"""Tests of the decoding layer: the noncentral chi-squared helpers, the
BI-AWGN capacity limits, code-file validation, the early-stopping rule, and
paired agreement of the TT decoder with the exact bit-wise MAP decoder."""

import numpy as np
import pytest
import scipy.stats

from ttinfer import (
    CrossConfig,
    biawgn_capacity_dispersion,
    builtin_code_path,
    code_exact_bitwise_map,
    load_code,
    n0_from_ebn0,
    noncentral_chi2_cdf,
    noncentral_chi2_ppf,
    normal_approx_pe,
    stopping_threshold,
    ttdec,
)
from ttinfer.chancode import _stopping_rule_values


class TestNoncentralChi2:
    @pytest.mark.parametrize("df", [1, 7, 31])
    @pytest.mark.parametrize("nc", [0.0, 0.5, 12.0, 150.0])
    def test_cdf_matches_scipy(self, df, nc):
        mean = df + nc
        x = np.linspace(0.0, mean + 8.0 * np.sqrt(2.0 * df + 4.0 * nc), 41)
        np.testing.assert_allclose(
            noncentral_chi2_cdf(x, df, nc), scipy.stats.ncx2.cdf(x, df, nc),
            rtol=1e-9, atol=1e-12,
        )

    @pytest.mark.parametrize("df,nc", [(1, 0.0), (7, 3.0), (31, 150.0)])
    @pytest.mark.parametrize("q", [1e-9, 1e-3, 0.5, 0.999])
    def test_ppf_round_trips_through_cdf(self, df, nc, q):
        x = noncentral_chi2_ppf(q, df, nc)
        # bisection stops within 1e-8 * x, so the CDF is within pdf(x) * 1e-8 * x
        slack = scipy.stats.ncx2.pdf(x, df, nc) * 1e-8 * max(x, 1.0)
        assert abs(noncentral_chi2_cdf(x, df, nc) - q) <= 2.0 * slack + 1e-13

    def test_ppf_limits(self):
        assert noncentral_chi2_ppf(0.0, 3, 1.0) == 0.0
        assert noncentral_chi2_ppf(1.0, 3, 1.0) == np.inf


class TestBiAwgnCapacity:
    def test_noiseless_limit(self):
        capacity, dispersion = biawgn_capacity_dispersion(1e-3)
        assert capacity == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= dispersion <= 1e-12

    def test_vanishes_at_low_snr(self):
        # low-SNR slope of binary antipodal signalling: C ~ log2(e) / N0
        for n0 in (1e2, 1e3, 1e4):
            capacity, _ = biawgn_capacity_dispersion(n0)
            assert 0.0 < capacity < 2.0 / n0
            assert capacity * n0 == pytest.approx(np.log2(np.e), rel=2e-2)

    def test_strictly_decreasing_in_noise(self):
        grid = np.geomspace(0.1, 1e3, 30)
        capacities = [biawgn_capacity_dispersion(n0)[0] for n0 in grid]
        assert all(a > b for a, b in zip(capacities, capacities[1:]))


HAMMING_ROWS = ["1 0 1 1", "1 1 1 0", "0 1 1 1", "1 0 0 0", "0 1 0 0", "0 0 1 0", "0 0 0 1"]


def first_column_twice(row: str) -> str:
    bits = row.split()
    return " ".join([bits[0], *bits[:-1]])


class TestLoadCode:
    def test_reads_well_formed_file(self, tmp_path):
        path = tmp_path / "code.txt"
        path.write_text("\n".join(["7 4 3", *HAMMING_ROWS]) + "\n")
        code = load_code(path)
        assert (code.n, code.k, code.d_min, code.d_min_verified) == (7, 4, 3, True)

    @pytest.mark.parametrize(
        "lines,message",
        [
            pytest.param(["7 4", *HAMMING_ROWS], "header", id="bad-header"),
            pytest.param(["7 4 3", *HAMMING_ROWS[:-1]], "generator rows", id="wrong-row-count"),
            pytest.param(["7 4 3", "1 0 2 1", *HAMMING_ROWS[1:]], "row", id="non-bit-entry"),
            pytest.param(["7 4 3", *map(first_column_twice, HAMMING_ROWS)], "rank-deficient",
                         id="rank-deficient"),
            pytest.param(["7 4 4", *HAMMING_ROWS], "d_min", id="wrong-d-min"),
        ],
    )
    def test_rejects_malformed_file(self, tmp_path, lines, message):
        path = tmp_path / "code.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message):
            load_code(path)


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


@pytest.mark.parametrize("variant", ["sample", "sweep"])
@pytest.mark.parametrize("name", ["hamming_7_4", "bch_15_7"])
def test_ttdec_agrees_with_exact_map_trial_by_trial(name, variant):
    code = load_code(builtin_code_path(name))
    n0 = n0_from_ebn0(4.0, code.rate)
    rng = np.random.default_rng(123)
    for trial in range(20):
        u = rng.integers(0, 2, size=code.k)
        y = 1.0 - 2.0 * code.encode(u) + np.sqrt(n0 / 2.0) * rng.standard_normal(code.n)
        u_map, _ = code_exact_bitwise_map(y, code, n0)
        res = ttdec(y, code, n0, (10,), CrossConfig(rng_seed=trial), variant=variant)
        np.testing.assert_array_equal(res.u_hat, u_map, err_msg=f"trial {trial}")
