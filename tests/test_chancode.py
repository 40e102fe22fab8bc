"""Tests of the decoding layer: the exact log-APP TT against a dense oracle
and its straddle rank bound, the early-stopping threshold against a
full-range noncentral chi-squared reference, the BI-AWGN capacity limits,
code-file validation, the minimum distance against brute force, the rank
schedule, the GF(2) elimination against its numpy reference, the
ordered-statistics candidate list, and paired agreement of the TT decoder
with the exact bit-wise MAP decoder."""

import gc
import itertools
import pickle
from itertools import combinations

import numpy as np
import pytest
import scipy.stats
from scipy.special import chndtrix, gammainc, gammaln, xlogy

from ttinfer import (
    CrossConfig,
    biawgn_capacity_dispersion,
    build_code_logapp_tt,
    builtin_code_path,
    code_exact_bitwise_map,
    load_code,
    n0_from_ebn0,
    normal_approx_pe,
    stopping_threshold,
    tt_eval_many,
    tt_to_dense,
    ttdec,
)
from ttinfer import chancode, posterior
from ttinfer.chancode import (
    OSD_ORDER,
    _builtin_code_names,
    _osd_list,
    _stopping_rule_values,
)
from ttref import perfbench_bch31_inputs


def direct_logapp(code, y, n0, words):
    """Lambda(u) = sum_j (2 y_j / N_0) prod_{i: G_ji = 1} (-1)^{u_i}, term by
    term, for each row of ``words``."""
    signs = 1.0 - 2.0 * ((words @ code.g.T) % 2)
    return signs @ ((2.0 / n0) * np.asarray(y))


def straddle_bound(g, b):
    """min(distinct prefixes g[j, :b], distinct suffixes g[j, b:]) over the
    rows whose support has positions both left and right of bond b, plus 2."""
    rows = [j for j in range(g.shape[0]) if g[j, :b].any() and g[j, b:].any()]
    prefixes = {tuple(g[j, :b]) for j in rows}
    suffixes = {tuple(g[j, b:]) for j in rows}
    return min(len(prefixes), len(suffixes)) + 2


class TestLogAppMetric:
    @pytest.mark.parametrize("name", ["hamming_7_4", "bch_15_7", "bch_31_16"])
    def test_matches_dense_oracle_on_every_word(self, name):
        code = load_code(builtin_code_path(name))
        rng = np.random.default_rng(5)
        n0 = n0_from_ebn0(2.0, code.rate)
        y = 1.0 - 2.0 * code.encode(rng.integers(0, 2, size=code.k))
        y = y + np.sqrt(n0 / 2.0) * rng.standard_normal(code.n)
        words = posterior._assignment_digits(code.k, 2)
        dense = tt_to_dense(build_code_logapp_tt(code, y, n0)).data
        expect = direct_logapp(code, y, n0, words)
        err = np.abs(dense[tuple(words.T)] - expect).max()
        assert err <= 1e-12 * np.abs(expect).max()

    def test_matches_direct_sum_on_bch_63_30(self):
        code = load_code(builtin_code_path("bch_63_30"))
        rng = np.random.default_rng(6)
        n0 = n0_from_ebn0(4.0, code.rate)
        y = 1.0 + np.sqrt(n0 / 2.0) * rng.standard_normal(code.n)
        words = rng.integers(0, 2, size=(2000, code.k))
        got = tt_eval_many(build_code_logapp_tt(code, y, n0), words)
        expect = direct_logapp(code, y, n0, words)
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()

    @pytest.mark.parametrize("name", ["hamming_7_4", "bch_15_7", "bch_31_16", "bch_63_30"])
    def test_ranks_within_straddle_bound(self, name):
        code = load_code(builtin_code_path(name))
        ranks = build_code_logapp_tt(code, np.ones(code.n), 1.0).ranks
        assert ranks[0] == ranks[-1] == 1
        for b in range(1, code.k):
            assert ranks[b] <= straddle_bound(code.g, b), b

    def test_reloaded_codes_build_their_own_metric(self):
        """Codes loaded and dropped in turn reuse object ids; each build
        must still follow its own code."""
        rng = np.random.default_rng(8)
        for _ in range(3):
            for name in ("hamming_7_4", "bch_15_7"):
                code = load_code(builtin_code_path(name))
                y = rng.standard_normal(code.n)
                words = posterior._assignment_digits(code.k, 2)
                got = tt_eval_many(build_code_logapp_tt(code, y, 0.8), words)
                np.testing.assert_allclose(got, direct_logapp(code, y, 0.8, words),
                                           rtol=0, atol=1e-12 * np.abs(got).max())
                del code
                gc.collect()

    def test_pickled_copy_reuses_the_cached_tables(self, monkeypatch):
        """A code pickled into a worker job finds the metric layout and the
        half codebooks that the original built."""
        calls = []
        real = chancode._sum_of_products
        monkeypatch.setattr(chancode, "_sum_of_products", lambda f: calls.append(f) or real(f))
        rng = np.random.default_rng(12)
        g = np.vstack([np.eye(5, dtype=np.int64), rng.integers(0, 2, size=(4, 5))])
        code = chancode.LinearCode(g=g, n=9, k=5, d_min=1)
        copy = pickle.loads(pickle.dumps(code))
        assert not copy.g.flags.writeable
        y = rng.standard_normal(9)
        first = build_code_logapp_tt(code, y, 0.8)
        again = build_code_logapp_tt(copy, y, 0.8)
        assert len(calls) == 1
        assert [c.tobytes() for c in first.cores] == [c.tobytes() for c in again.cores]
        assert chancode._half_codebooks(copy) is chancode._half_codebooks(code)

    def test_all_zero_row_is_a_constant_term(self):
        g = np.array([[1, 0, 1], [0, 0, 0], [0, 1, 1], [1, 1, 0], [0, 0, 1]])
        code = chancode.LinearCode(g=g, n=5, k=3, d_min=1)
        y = np.array([0.3, -1.2, 0.7, 2.0, -0.4])
        words = posterior._assignment_digits(3, 2)
        got = tt_eval_many(build_code_logapp_tt(code, y, 0.5), words)
        np.testing.assert_allclose(got, direct_logapp(code, y, 0.5, words), rtol=1e-13)

    def test_single_information_bit(self):
        code = chancode.LinearCode(g=np.ones((3, 1)), n=3, k=1, d_min=3)
        y = np.array([0.5, -0.25, 1.0])
        tt = build_code_logapp_tt(code, y, 2.0)
        np.testing.assert_allclose(tt_to_dense(tt).data, [1.25, -1.25])


def test_default_ttdec_never_rounds(monkeypatch):
    def forbidden(*args, **kwargs):
        pytest.fail("tt_truncate ran")

    for module in (chancode, posterior):
        monkeypatch.setattr(module, "tt_truncate", forbidden)
    code = load_code(builtin_code_path("bch_15_7"))
    n0 = n0_from_ebn0(3.0, code.rate)
    y = 1.0 + np.sqrt(n0 / 2.0) * np.random.default_rng(9).standard_normal(code.n)
    ttdec(y, code, n0, (10,), CrossConfig(rng_seed=1))


@pytest.mark.parametrize("variant, name, trials", [
    *(pytest.param(variant, "bch_31_16", 5, id=variant) for variant in ("sample", "sweep")),
    *(pytest.param(variant, "bch_63_30", 1, id=f"{variant}-bch_63_30")
      for variant in ("sample", "sweep")),
])
def test_ttdec_rounded_metric_keeps_decisions(variant, name, trials):
    code = load_code(builtin_code_path(name))
    n0 = n0_from_ebn0(3.0, code.rate)
    rng = np.random.default_rng(41)
    for trial in range(trials):
        y = 1.0 - 2.0 * code.encode(rng.integers(0, 2, size=code.k))
        y = y + np.sqrt(n0 / 2.0) * rng.standard_normal(code.n)
        cfg = CrossConfig(rng_seed=trial)
        exact = ttdec(y, code, n0, (10,), cfg, variant=variant)
        rounded = ttdec(y, code, n0, (10,), cfg, variant=variant, trunc_tol=1e-9)
        np.testing.assert_array_equal(rounded.u_hat, exact.u_hat, err_msg=f"trial {trial}")


def ncx2_cdf_reference(x, df, nc):
    """CDF of chi^2_df(nc) as its Poisson mixture of central chi-squared
    CDFs, sum_j Pois(j; nc/2) P(df/2 + j, x/2), over every j from 0 to far
    past the Poisson mode: no term is dropped, so the far lower tail, where
    the small-j terms dominate, stays exact."""
    half = nc / 2.0
    j = np.arange(int(half + 40.0 * np.sqrt(half)) + 100)
    weights = np.exp(xlogy(j, half) - half - gammaln(j + 1.0))
    x = np.asarray(x, dtype=np.float64)
    return gammainc(df / 2.0 + j, x[..., None] / 2.0) @ weights


def ncx2_ppf_reference(q, df, nc):
    """Quantile of chi^2_df(nc): bisection on ``ncx2_cdf_reference`` down to
    round-off."""
    lo, hi = 0.0, df + nc + 100.0 * np.sqrt(2.0 * df + 4.0 * nc) + 100.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ncx2_cdf_reference(mid, df, nc) < q else (lo, mid)
    return 0.5 * (lo + hi)


class TestNoncentralChi2:
    """The reference mixture against scipy's independent CDF, and the
    quantile the stopping threshold takes (``chndtrix``) against it."""

    @pytest.mark.parametrize("df", [1, 7, 31])
    @pytest.mark.parametrize("nc", [0.0, 0.5, 12.0, 150.0])
    def test_cdf_matches_scipy(self, df, nc):
        mean = df + nc
        x = np.linspace(0.0, mean + 8.0 * np.sqrt(2.0 * df + 4.0 * nc), 41)
        np.testing.assert_allclose(
            ncx2_cdf_reference(x, df, nc), scipy.stats.ncx2.cdf(x, df, nc),
            rtol=1e-9, atol=1e-12,
        )

    @pytest.mark.parametrize("df,nc", [(1, 0.0), (7, 3.0), (31, 150.0)])
    @pytest.mark.parametrize("q", [1e-9, 1e-3, 0.5, 0.999])
    def test_ppf_round_trips_through_cdf(self, df, nc, q):
        x = chndtrix(q, df, nc)
        assert ncx2_cdf_reference(x, df, nc) == pytest.approx(q, rel=1e-7)

    def test_ppf_limits(self):
        code = load_code(builtin_code_path("hamming_7_4"))
        assert stopping_threshold(code, 1.0, 0.0) == 0.0
        for target_pe in (-1e-3, 1.0):
            with pytest.raises(ValueError, match="target error probability"):
                stopping_threshold(code, 1.0, target_pe)


@pytest.mark.parametrize("name", ["hamming_7_4", "bch_15_7"])
def test_ttdec_far_below_capacity_returns_a_result(name):
    """At -30 dB the normal approximation rounds to 1; the error target stays
    just below it, so the stopping threshold exists and the decoder decides."""
    code = load_code(builtin_code_path(name))
    n0 = n0_from_ebn0(-30.0, code.rate)
    assert normal_approx_pe(code, n0) == np.nextafter(1.0, 0.0)
    y = 1.0 + np.sqrt(n0 / 2.0) * np.random.default_rng(4).standard_normal(code.n)
    res = ttdec(y, code, n0, (4, 10), CrossConfig(rng_seed=2))
    assert res.u_hat.shape == (code.k,) and set(res.u_hat.tolist()) <= {0, 1}
    assert np.isfinite(res.eta) and res.target_pe < 1.0


@pytest.mark.parametrize("ebn0", [0.0, 2.0, 4.0, 6.0, 8.0])
@pytest.mark.parametrize("name", ["hamming_7_4", "bch_15_7", "bch_31_16", "bch_63_30"])
def test_stopping_threshold_matches_full_range_mixture(name, ebn0):
    # at 8 dB the quantile is 4e-17 (hamming_7_4) down to 6e-54 (bch_63_30)
    code = load_code(builtin_code_path(name))
    n0 = n0_from_ebn0(ebn0, code.rate)
    target_pe = normal_approx_pe(code, n0)
    expect = 0.5 * n0 * ncx2_ppf_reference(target_pe / 100.0, code.n, 8.0 * code.d_min / n0)
    assert stopping_threshold(code, n0, target_pe) == pytest.approx(expect, rel=1e-6)


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

    def test_resolves_packaged_code_names(self, tmp_path, monkeypatch):
        """A string that names no file names a packaged code; an existing
        file of that name wins."""
        assert load_code("bch_15_7") == load_code(builtin_code_path("bch_15_7"))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bch_15_7").write_text("\n".join(["7 4 3", *HAMMING_ROWS]) + "\n")
        assert load_code("bch_15_7").n == 7
        with pytest.raises(ValueError, match=r"^neither a file nor a packaged code \(bch_15_7, "):
            load_code("nosuch")

    def test_unreadable_file_error_leaves_the_path_out(self, tmp_path):
        with pytest.raises(ValueError, match="^cannot read code file: Is a directory$"):
            load_code(tmp_path)

    def test_codes_compare_and_hash_by_value(self):
        path = builtin_code_path("bch_15_7")
        code, again = load_code(path), load_code(path)
        assert code is not again and code == again and hash(code) == hash(again)
        with pytest.raises(ValueError):
            code.g[0, 0] = 1 - code.g[0, 0]
        g = code.g.copy()
        g[0, 0] ^= 1
        flipped = chancode.LinearCode(g=g, n=code.n, k=code.k, d_min=code.d_min)
        assert flipped != code and hash(flipped) != hash(code)

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


def brute_force_min_distance(g):
    k = g.shape[1]
    words = np.array(list(itertools.product(range(2), repeat=k)))[1:]
    return int(((words @ g.T) % 2).sum(axis=1).min())


class TestMinDistance:
    @pytest.mark.parametrize("name", [c for c in _builtin_code_names()
                                      if load_code(builtin_code_path(c)).k <= 20])
    def test_packaged_codes(self, name):
        code = load_code(builtin_code_path(name))
        assert chancode._min_distance(code) == brute_force_min_distance(code.g) == code.d_min

    def test_random_small_codes(self):
        rng = np.random.default_rng(36)
        for trial in range(50):
            k = int(rng.integers(1, 9))
            n = int(rng.integers(k, 16))
            while True:
                try:
                    code = chancode.LinearCode(g=rng.integers(0, 2, size=(n, k)), n=n, k=k,
                                               d_min=1)
                    break
                except ValueError:
                    continue
            assert chancode._min_distance(code) == brute_force_min_distance(code.g), trial

    @pytest.mark.parametrize("k, bit", [(1, 0), (2, 0), (2, 1), (4, 1), (4, 3), (5, 0), (5, 4)])
    def test_lightest_word_in_one_half(self, k, bit):
        """The only weight-1 codeword is information bit ``bit`` alone, so
        it is nonzero in one half (bits below k // 2, else the rest): every
        other column of [I; P] carries a full parity part, so any other
        word weighs at least 2."""
        parity = np.ones((6, k), dtype=np.int64)
        parity[:, bit] = 0
        code = chancode.LinearCode(g=np.vstack([np.eye(k, dtype=np.int64), parity]), n=k + 6,
                                   k=k, d_min=1)
        assert chancode._min_distance(code) == brute_force_min_distance(code.g) == 1


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


@pytest.mark.parametrize("schedule", [(), (10, 4), (4, 4), (0, 4)])
def test_ttdec_rejects_a_bad_rank_schedule(schedule):
    code = load_code(builtin_code_path("hamming_7_4"))
    with pytest.raises(ValueError, match="rank schedule"):
        ttdec(np.ones(code.n), code, 1.0, schedule, CrossConfig())


@pytest.mark.parametrize("kwargs,match", [
    (dict(variant="bogus"), "unknown cross variant 'bogus'"),
    (dict(taylor_p=-1), "taylor_p must be >= 0"),
    (dict(trunc_tol=-1.0), "trunc_tol must be >= 0"),
    (dict(trunc_tol=float("nan")), "trunc_tol must be >= 0"),
])
def test_ttdec_rejects_bad_pipeline_arguments(kwargs, match):
    code = load_code(builtin_code_path("hamming_7_4"))
    with pytest.raises(ValueError, match=match):
        ttdec(np.ones(code.n), code, 1.0, (10,), CrossConfig(), **kwargs)


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
        # Positions S are independent when the codewords take all 2^|S|
        # patterns on them.
        basis = []
        for j in np.argsort(-np.abs(y)):
            patterns = np.unique(codewords[:, basis + [j]], axis=0)
            if len(basis) < code.k and len(patterns) > 1 << len(basis):
                basis.append(j)
        flips = np.sum(codewords[:, basis] != (y[basis] < 0), axis=1)
        keep = np.nonzero(flips <= 2)[0]
        corr = (1.0 - 2.0 * codewords[keep]) @ y
        expect = words[keep[np.argsort(-corr, kind="stable")[:16]]]
        np.testing.assert_array_equal(_osd_list(code, y), expect)


def gf2_eliminate_reference(a, column_order):
    """``_gf2_eliminate`` as it was before its rows were packed into ints:
    per column, ``np.nonzero`` finds the pivot and the rows to clear, and
    fancy indexing swaps and XORs them."""
    basis = []
    for col in column_order:
        rank = len(basis)
        hits = np.nonzero(a[rank:, col])[0]
        if hits.size == 0:
            continue
        piv = rank + hits[0]
        a[[rank, piv]] = a[[piv, rank]]
        others = np.nonzero(a[:, col])[0]
        a[others[others != rank]] ^= a[rank]
        basis.append(col)
        if len(basis) == a.shape[0]:
            break
    return basis


def osd_list_flip_loop(code, y, size=16):
    """``_osd_list`` as it was before the flip table was cached: the flip
    patterns are built and XORed onto the hard decisions row by row."""
    n, k = code.n, code.k
    a = np.concatenate([code.g.T, np.eye(k, dtype=np.int64)], axis=1).astype(np.uint8)
    basis = gf2_eliminate_reference(a, np.argsort(-np.abs(y), kind="stable"))
    flips = [f for w in range(OSD_ORDER + 1) for f in combinations(range(k), w)]
    v = np.tile((y[basis] < 0).astype(np.int64), (len(flips), 1))
    for row, f in enumerate(flips):
        v[row, list(f)] ^= 1
    x = 1.0 - 2.0 * ((v @ a[:, :n]) % 2)
    order = np.argsort(-(x @ y), kind="stable")[:size]
    return (v[order] @ a[:, n:]) % 2


def assert_same_elimination(a, column_order, label):
    """``_gf2_eliminate`` and the reference leave byte-equal arrays and
    return equal pivot lists, element types included."""
    got_a, want_a = a.copy(), a.copy()
    got = chancode._gf2_eliminate(got_a, column_order)
    want = gf2_eliminate_reference(want_a, column_order)
    assert got == want and list(map(type, got)) == list(map(type, want)), label
    assert got_a.dtype == want_a.dtype and got_a.tobytes() == want_a.tobytes(), label


class TestGf2Eliminate:
    @pytest.mark.parametrize("name", _builtin_code_names())
    def test_osd_matrices_equal_reference(self, name):
        """[G^T | I] in the order of decreasing |y|, 1,000 noisy words."""
        code = load_code(builtin_code_path(name))
        n0 = n0_from_ebn0(3.0, code.rate)
        a = np.concatenate([code.g.T, np.eye(code.k, dtype=np.int64)], axis=1).astype(np.uint8)
        rng = np.random.default_rng(34)
        for trial in range(1000):
            y = 1.0 - 2.0 * code.encode(rng.integers(0, 2, size=code.k))
            y = y + np.sqrt(n0 / 2.0) * rng.standard_normal(code.n)
            assert_same_elimination(a, np.argsort(-np.abs(y), kind="stable"), trial)

    def test_perfbench_bch31_inputs_equal_reference(self):
        code = load_code(builtin_code_path("bch_31_16"))
        n0 = n0_from_ebn0(4.0, code.rate)
        a = np.concatenate([code.g.T, np.eye(code.k, dtype=np.int64)], axis=1).astype(np.uint8)
        for index in range(1000):
            y, _ = perfbench_bch31_inputs(code, n0, 7, index)
            assert_same_elimination(a, np.argsort(-np.abs(y), kind="stable"), index)

    def test_random_matrices_equal_reference(self):
        """Rank-deficient, wide, tall and 65-column-plus arrays, column
        orders that are partial or plain ranges."""
        rng = np.random.default_rng(35)
        for trial in range(300):
            rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 80))
            a = (rng.random((rows, cols)) < rng.uniform(0.05, 0.6)).astype(np.uint8)
            order = rng.permutation(cols)[: int(rng.integers(1, cols + 1))]
            assert_same_elimination(a, order, trial)
            assert_same_elimination(a, range(cols), trial)


@pytest.mark.parametrize("name", _builtin_code_names())
def test_osd_list_equals_flip_loop(name):
    """The cached flip table gives the same list, bit for bit and dtype."""
    code = load_code(builtin_code_path(name))
    n0 = n0_from_ebn0(3.0, code.rate)
    rng = np.random.default_rng(33)
    for trial in range(200):
        y = 1.0 - 2.0 * code.encode(rng.integers(0, 2, size=code.k))
        y = y + np.sqrt(n0 / 2.0) * rng.standard_normal(code.n)
        got, expect = _osd_list(code, y), osd_list_flip_loop(code, y)
        assert got.dtype == expect.dtype and got.shape == expect.shape, f"trial {trial}"
        assert got.tobytes() == expect.tobytes(), f"trial {trial}"


def assert_ttdec_agrees_with_exact_marginals(monkeypatch, indices, ebn0, variant, bound):
    """Paired check on the benchmark's bch_31_16 inputs of seed 7: decisions
    equal the exact bit-wise MAP's trial by trial, and the max |dP| of the
    one schedule step stays <= ``bound``."""
    code = load_code(builtin_code_path("bch_31_16"))
    n0 = n0_from_ebn0(ebn0, code.rate)
    tables = []

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        tables.append(out[0].probs)
        return out

    real = chancode.infer_marginals
    monkeypatch.setattr(chancode, "infer_marginals", recording)
    for index in indices:
        y, seeds = perfbench_bch31_inputs(code, n0, 7, index)
        u_map, oracle = code_exact_bitwise_map(y, code, n0)
        tables.clear()
        res = ttdec(y, code, n0, (10,), CrossConfig(max_rank=1024, rng_seed=seeds[variant]),
                    variant=variant)
        np.testing.assert_array_equal(res.u_hat, u_map, err_msg=f"trial {index}")
        (probs,) = tables
        assert np.abs(probs - oracle.probs).max() <= bound, index


@pytest.mark.parametrize("variant", ["sample", "sweep"])
def test_ttdec_agrees_with_exact_marginals_on_bch_31_16(monkeypatch, variant):
    assert_ttdec_agrees_with_exact_marginals(monkeypatch, range(10), 4.0, variant, 1e-3)


def test_ttdec_sweep_at_2db_agrees_with_exact_marginals_on_bch_31_16(monkeypatch):
    """Low Eb/N0, where the cross ranks grow and its rank test must not stop
    it early.  The bound is 1.1 x the max |dP| of 6.7e-4 that the cross
    without the rank test reached on these 25 inputs."""
    assert_ttdec_agrees_with_exact_marginals(monkeypatch, range(25), 2.0, "sweep", 7.4e-4)
