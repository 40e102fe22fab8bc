"""Tests of the TT decoder's early-stopping rule."""

import numpy as np

from ttinfer import (
    CrossConfig,
    builtin_code_path,
    load_code,
    n0_from_ebn0,
    normal_approx_pe,
    stopping_threshold,
    ttdec,
)
from ttinfer.chancode import _stopping_rule_values


def test_cached_stopping_rule_matches_direct_computation():
    code = load_code(builtin_code_path("hamming_7_4"))
    n0 = n0_from_ebn0(3.0, code.rate)
    target_pe = normal_approx_pe(code, n0)
    eta = stopping_threshold(code, n0, target_pe)
    rng = np.random.default_rng(3)
    results = []
    for _ in range(2):
        y = 1.0 + np.sqrt(n0 / 2.0) * rng.standard_normal(code.n)
        hits = _stopping_rule_values.cache_info().hits
        results.append(ttdec(y, code, n0, (4,), CrossConfig(rng_seed=1)))
    assert _stopping_rule_values.cache_info().hits > hits
    for res in results:
        assert res.target_pe == target_pe
        assert res.eta == eta
