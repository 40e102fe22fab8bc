"""Tests of the decoding layer: the noncentral chi-squared helpers, the
BI-AWGN capacity limits, code-file validation, the early-stopping rule, the
ordered-statistics candidate list, and paired agreement of the TT decoder
with the exact bit-wise MAP decoder."""

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
from ttinfer import chancode
from ttinfer.chancode import _gf2_column_rank, _osd_list, _stopping_rule_values


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


@pytest.mark.parametrize("name", ["hamming_7_4", "bch_15_7"])
def test_osd_list_equals_brute_force(name):
    """All 2^k words whose bits on the most reliable basis differ from the
    hard decisions in at most 2 places, by decreasing y^T x, first 16."""
    code = load_code(builtin_code_path(name))
    n0 = n0_from_ebn0(2.0, code.rate)
    rng = np.random.default_rng(31)
    ids = np.arange(1 << code.k)
    words = (ids[:, None] >> np.arange(code.k)) & 1
    codewords = (words @ code.g.T) % 2
    for _ in range(10):
        y = 1.0 - 2.0 * code.encode(rng.integers(0, 2, size=code.k))
        y = y + np.sqrt(n0 / 2.0) * rng.standard_normal(code.n)
        basis = []
        for j in np.argsort(-np.abs(y)):
            if len(basis) < code.k and _gf2_column_rank(code.g[basis + [j]].T) > len(basis):
                basis.append(j)
        flips = np.sum(codewords[:, basis] != (y[basis] < 0), axis=1)
        keep = np.nonzero(flips <= 2)[0]
        corr = (1.0 - 2.0 * codewords[keep]) @ y
        expect = words[keep[np.argsort(-corr, kind="stable")[:16]]]
        np.testing.assert_array_equal(_osd_list(code, y), expect)


def perfbench_bch31_inputs(code, n0, seed, index):
    """The benchmark's bch31_4db trial ``index``: the data stream and one
    cross seed per variant split from SeedSequence([seed, index])."""
    data, *cross = np.random.SeedSequence([seed, index]).spawn(3)
    rng = np.random.default_rng(data)
    u = rng.integers(0, 2, size=code.k)
    y = 1.0 - 2.0 * code.encode(u) + np.sqrt(n0 / 2.0) * rng.standard_normal(code.n)
    seeds = {v: int(s.generate_state(1)[0]) for v, s in zip(("sample", "sweep"), cross)}
    return y, seeds


@pytest.mark.parametrize("variant", ["sample", "sweep"])
def test_ttdec_agrees_with_exact_marginals_on_bch_31_16(monkeypatch, variant):
    code = load_code(builtin_code_path("bch_31_16"))
    n0 = n0_from_ebn0(4.0, code.rate)
    tables = []

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        tables.append(out[0].probs)
        return out

    real = chancode.infer_marginals
    monkeypatch.setattr(chancode, "infer_marginals", recording)
    for index in range(10):
        y, seeds = perfbench_bch31_inputs(code, n0, 7, index)
        u_map, oracle = code_exact_bitwise_map(y, code, n0)
        tables.clear()
        res = ttdec(y, code, n0, (10,), CrossConfig(max_rank=1024, rng_seed=seeds[variant]),
                    variant=variant)
        np.testing.assert_array_equal(res.u_hat, u_map, err_msg=f"trial {index}")
        (probs,) = tables
        assert np.abs(probs - oracle.probs).max() <= 1e-3, index
