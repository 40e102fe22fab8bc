"""Tests of the cross's maxvol pivoting, the Taylor TT exponential, and the
elementwise TT-cross (both variants: update blocks of one and two cores)
against dense oracles, with its two stopping tests."""

import itertools
import math

import numpy as np
import pytest
from scipy.linalg.lapack import dgetrf

from ttinfer import (
    CrossConfig,
    DegenerateMatrixError,
    LogPosterior,
    NonFiniteValueError,
    build_prior_tt,
    build_quadratic_metric,
    builtin_code_path,
    infer_marginals,
    load_code,
    n0_from_ebn0,
    ones_tt,
    tt_cross,
    tt_eval_many,
    tt_exp_taylor,
    tt_hadamard,
    tt_to_dense,
    ttdec,
    zeros_tt,
)
from ttinfer import cross as cross_module
from ttinfer import posterior
from ttinfer.cross import _check_seed_indices, _maxvol, _rank_revealing_maxvol
from ttinfer.mimo import _sphere_list
from ttref import perfbench_bch31_inputs, perfbench_mimo16_inputs, random_tt, tt_svd


def clipped_random_tt(rng, dims, lo, hi, ranks=None):
    """Random TT whose entries are clipped into [lo, hi] (desk scale: the
    clipped dense tensor is re-decomposed exactly)."""
    if ranks is None:
        ranks = [3] * (len(dims) - 1)
    dense = np.clip(tt_to_dense(random_tt(dims, ranks, rng)).data, lo, hi)
    return tt_svd(dense, 0.0), dense


class TestMaxvol:
    def test_identity_selects_all_rows(self):
        rows = _maxvol(np.eye(4))[0]
        assert sorted(rows) == [0, 1, 2, 3]

    def test_rank1_is_argmax(self):
        # a tie in magnitude goes to the first row, as getrf's pivot does
        for col, row in [([1.0, 2.0, 4.0, 8.0], 3), ([2.0, -2.0, 1.0], 0),
                         ([-1.0, -5.0, -3.0], 1)]:
            assert _maxvol(np.array(col)[:, None])[0].tolist() == [row]

    def test_dominance_postcondition(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = rng.standard_normal((12, 4))
            rows = _maxvol(m)[0]
            b = np.linalg.solve(m[rows].T, m.T).T
            assert np.abs(b).max() <= 1.0 + 1e-2 + 1e-9

    def test_near_optimal_volume_vs_enumeration(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            m = rng.standard_normal((8, 3))
            rows = _maxvol(m)[0]
            vol = abs(np.linalg.det(m[rows]))
            best = max(
                abs(np.linalg.det(m[list(sub)])) for sub in itertools.combinations(range(8), 3)
            )
            assert vol >= best / (1.0 + 1e-2) ** 3

    def test_swap_gains_exceed_threshold(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((40, 5))
        _, _, history = _maxvol(m)
        # every recorded swap multiplies |det| by its gain, so the selected
        # volume is non-decreasing across iterations
        assert all(g > 1.0 + 1e-2 for g in history)

    def test_degenerate_raises(self):
        col = np.arange(6.0)[:, None]
        with pytest.raises(DegenerateMatrixError):
            _maxvol(np.hstack([col, 2 * col]))

    @pytest.mark.parametrize("m, match", [
        (np.ones((2, 3)), "at least as many rows"),
        (np.zeros((0, 0)), "columns are dependent"),
        (np.zeros((3, 0)), "columns are dependent"),
    ], ids=["wide", "empty", "no-columns"])
    def test_rejects_non_tall_matrix(self, m, match):
        with pytest.raises(ValueError, match=match):
            _maxvol(m)

    @staticmethod
    def assert_factor_is_fresh_solve(m):
        rows, factor, history = _maxvol(m)
        expect = np.linalg.solve(m[rows].T, m.T).T
        assert factor.shape == expect.shape
        assert factor.tobytes() == expect.tobytes()
        return history

    def test_factor_equals_solve_bytewise(self):
        """The factor the cross uses as its core is the solve at the final
        rows, byte for byte, also for the strided views the cross passes
        (leading columns of U, transposed rows of V^T)."""
        rng = np.random.default_rng(8)
        for n, r in [(2, 1), (4, 1), (6, 2), (12, 4), (16, 3), (9, 9)]:
            for _ in range(5):
                wide = rng.standard_normal((n, r + 2))
                self.assert_factor_is_fresh_solve(wide[:, :r])
                self.assert_factor_is_fresh_solve(np.ascontiguousarray(wide[:, :r]))
                self.assert_factor_is_fresh_solve(wide.T[:r].T)
                self.assert_factor_is_fresh_solve(-np.abs(wide[:, :r]))

    def test_factor_after_swaps_equals_solve_bytewise(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((40, 5))
        assert self.assert_factor_is_fresh_solve(m)  # swaps happened

    def test_factor_degenerate_raises(self):
        for m in (np.zeros((3, 2)), np.zeros((3, 1))):
            with pytest.raises(DegenerateMatrixError):
                _maxvol(m)
        # the init pass falls back to row 0 on an all-zero column
        assert _rank_revealing_maxvol(np.zeros((4, 1))).tolist() == [0]


class TestTaylorExp:
    def test_zero_gives_ones(self):
        out = tt_exp_taylor(zeros_tt((2, 3, 2)), 10, 8, 0.0)
        np.testing.assert_allclose(tt_to_dense(out).data, 1.0, rtol=1e-14)

    def test_degree_zero_gives_ones(self):
        rng = np.random.default_rng(14)
        a = random_tt((2, 2, 2), (2, 2), rng)
        out = tt_exp_taylor(a, 0, 8, 0.0)
        np.testing.assert_allclose(tt_to_dense(out).data, 1.0, rtol=1e-14)

    def test_remainder_bound_on_negative_range(self):
        rng = np.random.default_rng(15)
        a, dense = clipped_random_tt(rng, (2, 2, 2, 2, 2), -3.0, 0.0)
        out = tt_exp_taylor(a, 10, 10_000, 0.0)
        err = np.abs(tt_to_dense(out).data - np.exp(dense)).max()
        assert err <= 3.0**11 / math.factorial(11) + 1e-12

    def test_rank_cap(self):
        rng = np.random.default_rng(16)
        a = random_tt((2,) * 6, (4,) * 5, rng, scale=0.2)
        out = tt_exp_taylor(a, 8, 3, 1e-14)
        assert max(out.ranks) <= 3

    def test_ranks_within_unfolding_bounds(self):
        # A 1e-12 rounding of each Horner step keeps no bond above the rank
        # of its unfolding; unrounded, bond 1 alone would reach 85.
        rng = np.random.default_rng(41)
        dims = (2, 3, 2, 2, 3, 2, 2)
        for _ in range(5):
            a = random_tt(dims, (4, 5, 5, 5, 5, 4), rng)
            out = tt_exp_taylor(a, 3, 10_000, 1e-12)
            for bond in range(1, len(dims)):
                bound = min(np.prod(dims[:bond]), np.prod(dims[bond:]))
                assert out.ranks[bond] <= bound


def small_cfg(seed, conv_tol=1e-10, max_rank=64, oversample=4, sweeps=8):
    return CrossConfig(
        max_rank=max_rank,
        n_sweeps=sweeps,
        sample_oversample=oversample,
        conv_tol=conv_tol,
        rng_seed=seed,
    )


class TestCrossVariants:
    @pytest.mark.parametrize("variant", ["sample", "sweep"])
    def test_identity_returns_argument(self, variant):
        rng = np.random.default_rng(17)
        a = random_tt((2, 3, 2, 3), (3, 4, 3), rng)
        out = tt_cross(lambda v: v, a, a, small_cfg(1), variant).tt
        dense = tt_to_dense(a).data
        err = np.abs(tt_to_dense(out).data - dense).max()
        assert err <= 1e-8 * np.abs(dense).max()

    @pytest.mark.parametrize("variant,tol", [("sample", 1e-6), ("sweep", 1e-7)])
    def test_exp_against_dense_oracle(self, variant, tol):
        rng = np.random.default_rng(18)
        a, dense = clipped_random_tt(rng, (2,) * 6, -10.0, 0.0)
        init = tt_exp_taylor(a, 10, 64, 0.0)
        out = tt_cross(np.exp, a, init, small_cfg(2), variant).tt
        rel = np.abs(tt_to_dense(out).data - np.exp(dense)).max() / np.exp(dense).max()
        assert rel <= tol

    def test_sweep_usually_at_least_as_accurate(self):
        # from a modest Taylor init, the merged two-core updates recover the
        # exponential better than single-core interpolation on most seeds
        rng = np.random.default_rng(19)
        wins = 0
        trials = 10
        for t in range(trials):
            a, dense = clipped_random_tt(rng, (2,) * 8, -10.0, 0.0, ranks=[3] * 7)
            init = tt_exp_taylor(a, 10, 10, 1e-12)
            cfg = small_cfg(100 + t, conv_tol=1e-8)
            truth = np.exp(dense)
            errs = {}
            for variant in ("sample", "sweep"):
                out = tt_cross(np.exp, a, init, cfg, variant).tt
                errs[variant] = np.abs(tt_to_dense(out).data - truth).max()
            # both variants reach about 1e-13 on easy seeds; do not rank round-off
            if errs["sweep"] <= errs["sample"] * (1 + 1e-9) + 1e-12 * truth.max():
                wins += 1
        assert wins >= 0.8 * trials

    def test_square_matches_hadamard_oracle(self):
        rng = np.random.default_rng(20)
        a = random_tt((2, 2, 2, 2, 2), (2, 2, 2, 2), rng)
        truth = tt_to_dense(tt_hadamard(a, a)).data
        out = tt_cross(lambda v: v * v, a, a, small_cfg(3)).tt
        assert np.abs(tt_to_dense(out).data - truth).max() <= 1e-8 * np.abs(truth).max()

    def test_rank_adapts_to_exact_rank(self):
        # exp of this tensor has exact TT ranks (2,2,2): log of a positive
        # rank-2 product tensor
        rng = np.random.default_rng(21)
        pos = random_tt((2,) * 5, (2,) * 4, rng)
        dense = np.abs(tt_to_dense(pos).data) + 0.5
        target_rank = max(tt_svd(dense, 1e-12).ranks)
        a = tt_svd(np.log(dense), 0.0)
        init = tt_exp_taylor(a, 10, 16, 1e-14)
        cfg = small_cfg(4, conv_tol=1e-9, oversample=2, max_rank=32)
        out = tt_cross(np.exp, a, init, cfg, "sweep").tt
        assert max(out.ranks) <= target_rank + 2  # oversampling slack

    @pytest.mark.parametrize("variant", ["sample", "sweep"])
    def test_rank_cap_respected(self, variant):
        rng = np.random.default_rng(22)
        a = random_tt((3,) * 6, (5,) * 5, rng, scale=0.4)
        init = ones_tt(a.dims)
        cfg = small_cfg(5, conv_tol=1e-12, max_rank=3)
        out = tt_cross(np.exp, a, init, cfg, variant).tt
        assert max(out.ranks) <= 3

    @pytest.mark.parametrize("variant", ["sample", "sweep"])
    def test_seed_determinism(self, variant):
        rng = np.random.default_rng(23)
        a = random_tt((2,) * 5, (3,) * 4, rng, scale=0.5)
        init = tt_exp_taylor(a, 6, 8, 1e-12)
        first = tt_cross(np.exp, a, init, small_cfg(77), variant).tt
        second = tt_cross(np.exp, a, init, small_cfg(77), variant).tt
        assert first.ranks == second.ranks
        for c1, c2 in zip(first.cores, second.cores):
            np.testing.assert_array_equal(c1, c2)

    def test_pivot_interpolation_exactness(self, monkeypatch):
        # on an exactly-representable f the converged sample cross
        # interpolates f at every retained pivot cross
        rng = np.random.default_rng(24)
        a = random_tt((2, 3, 2, 3), (2, 2, 2), rng)
        truth = tt_to_dense(tt_hadamard(a, a)).data
        monkeypatch.setattr(cross_module, "_CrossEngine", RecordingEngine)
        res = tt_cross(lambda v: v * v, a, a, small_cfg(6))
        assert res.converged
        for b, (rows, cols) in enumerate(zip(*RecordingEngine.pivot_sets())):
            assert rows.shape == (res.tt.ranks[b + 1], b + 1)
            for prefix in rows[: 4]:
                for suffix in cols[: 4]:
                    idx = np.concatenate([prefix, suffix])
                    got = tt_eval_many(res.tt, idx[None, :])[0]
                    assert got == pytest.approx(truth[tuple(idx)], rel=1e-8, abs=1e-10)

    def test_non_finite_value_carries_index(self):
        rng = np.random.default_rng(25)
        a = random_tt((2, 2, 2), (2, 2), rng)  # has negative entries a.s.

        def unsafe_log(v):
            with np.errstate(invalid="ignore", divide="ignore"):
                return np.log(v)

        with pytest.raises(NonFiniteValueError) as err:
            tt_cross(unsafe_log, a, ones_tt(a.dims), small_cfg(7))
        assert len(err.value.index) == 3
        dims = a.dims
        assert all(0 <= k < d for k, d in zip(err.value.index, dims))

    # Each seed's single negative entry is first sampled by a different site:
    # width-1 updates left to right and right to left, the whole last and
    # first cores sampled at the end of width-1 passes, and width-2 updates
    # left to right and right to left.
    @pytest.mark.parametrize(
        "seed,variant",
        [(2, "sample"), (0, "sample"), (48, "sample"), (16, "sample"), (2, "sweep"), (0, "sweep")],
    )
    def test_non_finite_index_is_the_offending_entry(self, seed, variant):
        rng = np.random.default_rng(seed)
        order = int(rng.integers(3, 6))
        dims = tuple(int(d) for d in rng.integers(2, 4, size=order))
        dense = rng.uniform(0.5, 2.0, size=dims)
        bad = tuple(int(rng.integers(0, d)) for d in dims)
        dense[bad] = -1.0
        a = tt_svd(dense)

        def unsafe_log(v):
            with np.errstate(invalid="ignore"):
                return np.log(v)

        cfg = CrossConfig(max_rank=4, n_sweeps=3, sample_oversample=1, rng_seed=seed)
        with pytest.raises(NonFiniteValueError) as err:
            tt_cross(unsafe_log, a, ones_tt(dims), cfg, variant)
        assert err.value.index == bad

    def test_eval_count_scales_with_sweeps(self):
        rng = np.random.default_rng(26)
        a = random_tt((2,) * 6, (3,) * 5, rng, scale=0.3)
        cfg = small_cfg(8, conv_tol=1e-14, sweeps=4, oversample=4, max_rank=8)
        res = tt_cross(np.exp, a, ones_tt(a.dims), cfg)
        n, r, dim = a.order, 8 + 4, 2
        bound = res.n_half_sweeps * n * dim * (r + 4) * r * 4
        assert res.n_evals <= bound

    def test_order_one_tensor(self):
        a = tt_svd(np.array([-1.0, -2.0, 0.5]), 0.0)
        out = tt_cross(np.exp, a, a, small_cfg(9)).tt
        np.testing.assert_allclose(
            tt_to_dense(out).data, np.exp([-1.0, -2.0, 0.5]), rtol=1e-12
        )


class RecordingEngine(cross_module._CrossEngine):
    """The cross engine, keeping its last instance per class so that a test
    can read the pivot sets a run ended with."""

    def result(self, half_sweeps, converged):
        type(self).last = self
        return super().result(half_sweeps, converged)

    @classmethod
    def pivot_sets(cls):
        """Left prefixes (r_b, b) and right suffixes (r_b, N-b) of the last
        run's interior bonds b = 1..N-1."""
        inner = range(1, cls.last.n)
        return [cls.last.left[b] for b in inner], [cls.last.right[b] for b in inner]


class PerBondDrawEngine(RecordingEngine):
    """Reference cross that draws oversampling bond by bond: one
    ``integers(0, d, size=kick)`` call per free mode when a bond is visited,
    and every interface (oversampling and seed) multiplied from the far end
    of the train on its own."""

    def _draw_oversampling(self, lr, width):
        self.extra = {}

    def _far_end_interfaces(self, idx, bond, right):
        vec = np.ones((idx.shape[0], 1))
        if right:
            for j in range(self.n - 1, bond - 1, -1):
                vec = np.einsum("lcr,cr->cl", self.arg.cores[j][:, idx[:, j - bond], :], vec)
        else:
            for j in range(bond):
                vec = np.einsum("cl,lcr->cr", vec, self.arg.cores[j][:, idx[:, j], :])
        return vec

    def _seed_pivots(self, seeds):
        for b in range(1, self.n):
            suffixes = seeds[:, b:]
            self.right[b] = np.vstack([self.right[b], suffixes])
            self.right_if[b] = np.vstack(
                [self.right_if[b], self._far_end_interfaces(suffixes, b, right=True)]
            )

    def _candidates(self, bond, right):
        pivots, interfaces = (self.right, self.right_if) if right else (self.left, self.left_if)
        free = self.dims[bond:] if right else self.dims[:bond]
        kick = self.cfg.sample_oversample
        if kick == 0 or not free:
            return pivots[bond], interfaces[bond]
        extra = np.column_stack([self.rng.integers(0, d, size=kick) for d in free])
        extra_if = self._far_end_interfaces(extra, bond, right)
        return np.vstack([pivots[bond], extra]), np.vstack([interfaces[bond], extra_if])


def test_one_draw_over_bounds_matches_one_draw_per_bound():
    """What the probe and oversampling draws rely on: one ``integers`` call
    over an array of bounds yields, and consumes, what one call per bound
    would, also for a bound of 1 (which draws nothing)."""
    dims = (2, 3, 1, 4, 5)
    one, per = np.random.default_rng(44), np.random.default_rng(44)
    got = one.integers(0, np.repeat(dims, 7)).reshape(len(dims), -1).T
    want = np.column_stack([per.integers(0, d, size=7) for d in dims])
    np.testing.assert_array_equal(got, want)
    assert one.bit_generator.state == per.bit_generator.state


class TestBatchedOversampling:
    """One draw per half sweep and one interface pass reproduce the
    per-bond reference bit for bit, so the random stream is pinned on every
    numpy the suite runs on."""

    @pytest.mark.parametrize("variant", ["sample", "sweep"])
    @pytest.mark.parametrize("oversample", [0, 1, 2, 3])
    @pytest.mark.parametrize("seeded", [False, True])
    def test_matches_per_bond_reference(self, monkeypatch, variant, oversample, seeded):
        rng = np.random.default_rng(31 + oversample)
        dims = (2, 3, 4, 2, 5, 3)
        a = random_tt(dims, (2, 3, 3, 2, 2), rng, scale=0.6)
        seeds = np.column_stack([rng.integers(0, d, size=4) for d in dims]) if seeded else None
        cfg = CrossConfig(max_rank=12, n_sweeps=3, sample_oversample=oversample,
                          conv_tol=1e-12, rng_seed=oversample)
        # every sampled argument block must match too, not only the output
        sampled = {"got": [], "want": []}

        def recording_exp(key):
            def f(v):
                sampled[key].append(v.tobytes())
                return np.exp(v)
            return f

        monkeypatch.setattr(cross_module, "_CrossEngine", RecordingEngine)
        got = tt_cross(recording_exp("got"), a, ones_tt(dims), cfg, variant, seed_indices=seeds)
        monkeypatch.setattr(cross_module, "_CrossEngine", PerBondDrawEngine)
        want = tt_cross(recording_exp("want"), a, ones_tt(dims), cfg, variant, seed_indices=seeds)
        assert sampled["got"] == sampled["want"]
        assert got.tt.ranks == want.tt.ranks
        assert (got.n_evals, got.n_half_sweeps, got.converged) == (
            want.n_evals, want.n_half_sweeps, want.converged)
        for c1, c2 in zip(got.tt.cores, want.tt.cores):
            assert c1.tobytes() == c2.tobytes()
        for got_sets, want_sets in zip(RecordingEngine.pivot_sets(), PerBondDrawEngine.pivot_sets()):
            for s1, s2 in zip(got_sets, want_sets, strict=True):
                np.testing.assert_array_equal(s1, s2)


def cumsum_chop_ranks(s, delta):
    """The rank chop before it became a scan over the spectrum."""
    if s.size == 0:
        return 1
    if delta <= 0.0:
        return max(1, int(np.count_nonzero(s)))
    tail = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]
    keep = np.nonzero(tail > delta)[0]
    if keep.size == 0:
        return 1
    return int(keep[-1]) + 1


def array_maxvol(m, dom_tol=1e-2, max_iters=100):
    """``_maxvol`` as whole-array numpy operations: np.diag for the pivots,
    a permutation array, np.unravel_index for B's largest entry."""
    m = np.asarray(m, dtype=np.float64)
    n, r = m.shape
    lu, piv, _ = dgetrf(m)
    diag = np.abs(np.diag(lu)[:r])
    if diag.max() == 0.0 or diag.min() <= 1e-12 * diag.max():
        raise DegenerateMatrixError("pivoted pre-factorization failed: columns are dependent")
    perm = np.arange(n)
    for i, p in enumerate(piv[:r]):
        perm[i], perm[p] = perm[p], perm[i]
    rows = perm[:r].copy()
    b = np.linalg.solve(m[rows].T, m.T).T
    history = []
    for _ in range(max_iters):
        i, j = np.unravel_index(np.argmax(np.abs(b)), b.shape)
        gain = abs(b[i, j])
        if gain <= 1.0 + dom_tol:
            break
        history.append(float(gain))
        ej = np.zeros(r)
        ej[j] = 1.0
        b -= np.outer(b[:, j], b[i, :] - ej) / b[i, j]
        rows[j] = i
    if history:
        b = np.linalg.solve(m[rows].T, m.T).T
    return rows, b, history


def test_maxvol_matches_array_reference():
    """Rows, factor bytes and swap gains, on shapes with and without swaps
    and on the strided views the cross passes."""
    rng = np.random.default_rng(43)
    n_swapped = 0
    for n, r in [(1, 1), (5, 1), (12, 1), (6, 2), (12, 4), (40, 5), (9, 9)]:
        for _ in range(10):
            wide = rng.standard_normal((n, r + 3))
            for m in (wide[:, :r], wide.T[:r].T, np.ascontiguousarray(wide[:, :r]),
                      -np.abs(wide[:, :r])):
                rows, b, history = _maxvol(m)
                want_rows, want_b, want_history = array_maxvol(m)
                assert rows.dtype == want_rows.dtype
                np.testing.assert_array_equal(rows, want_rows)
                assert b.tobytes() == want_b.tobytes()
                assert history == want_history
                n_swapped += bool(history)
    assert n_swapped > 0


class ArrayBlockEngine(RecordingEngine):
    """Reference cross that lays out its oversampling draw with repeat,
    split and reshape and stacks candidates with vstack; run with
    ``array_maxvol`` and ``cumsum_chop_ranks`` patched in."""

    def _draw_oversampling(self, lr, width):
        n, kick = self.n, self.cfg.sample_oversample
        bonds = range(width, n) if lr else range(n - width, 0, -1)
        self.extra = {}
        if kick == 0 or not bonds:
            return
        modes = [range(b, n) if lr else range(b) for b in bonds]
        high = np.concatenate([np.repeat([self.dims[m] for m in ms], kick) for ms in modes])
        blocks = np.split(self.rng.integers(0, high), kick * np.cumsum([len(ms) for ms in modes]))
        fibers = np.zeros((kick * len(bonds), n), dtype=np.int64)
        for p, (ms, block) in enumerate(zip(modes, blocks)):
            fibers[p * kick : (p + 1) * kick, ms.start : ms.stop] = block.reshape(-1, kick).T
        vec = np.ones((fibers.shape[0], 1))
        if lr:
            for j in range(n - 1, width - 1, -1):
                end = kick * (j - width + 1)
                vec = np.einsum("lcr,cr->cl", self.arg.cores[j][:, fibers[:end, j], :], vec[:end])
                self.extra[j] = (fibers[end - kick : end, j:], vec[end - kick :])
        else:
            for j in range(n - width):
                end = kick * (n - width - j)
                vec = np.einsum("cl,lcr->cr", vec[:end], self.arg.cores[j][:, fibers[:end, j], :])
                self.extra[j + 1] = (fibers[end - kick : end, : j + 1], vec[end - kick :])

    def _candidates(self, bond, right):
        pivots, interfaces = (self.right, self.right_if) if right else (self.left, self.left_if)
        if bond not in self.extra:
            return pivots[bond], interfaces[bond]
        extra, extra_if = self.extra[bond]
        return np.vstack([pivots[bond], extra]), np.vstack([interfaces[bond], extra_if])


class TestBlockUpdateReference:
    """The block updates reproduce the whole-array reference byte for byte:
    cores, sampled blocks, pivot sets and counters."""

    @pytest.mark.parametrize("variant", ["sample", "sweep"])
    @pytest.mark.parametrize("oversample", [0, 1, 2, 3])
    @pytest.mark.parametrize("seeded", [False, True])
    def test_matches_array_reference(self, monkeypatch, variant, oversample, seeded):
        rng = np.random.default_rng(41 + oversample)
        dims = (3, 2, 4, 2, 5, 3, 2)
        a = random_tt(dims, (2, 3, 4, 3, 2, 2), rng, scale=0.7)
        seeds = np.column_stack([rng.integers(0, d, size=5) for d in dims]) if seeded else None
        cfg = CrossConfig(max_rank=10, n_sweeps=3, sample_oversample=oversample,
                          conv_tol=1e-10, rng_seed=7 + oversample)
        sampled = {"got": [], "want": []}

        def recording_exp(key):
            def f(v):
                sampled[key].append(v.tobytes())
                return np.exp(v)
            return f

        def reference_chop(s, delta):
            # the local threshold is conv_tol * np.linalg.norm(s), bit for bit
            assert delta == cfg.conv_tol * np.linalg.norm(s)
            return cumsum_chop_ranks(s, delta)

        monkeypatch.setattr(cross_module, "_CrossEngine", RecordingEngine)
        got = tt_cross(recording_exp("got"), a, ones_tt(dims), cfg, variant, seed_indices=seeds)
        monkeypatch.setattr(cross_module, "_CrossEngine", ArrayBlockEngine)
        monkeypatch.setattr(cross_module, "_maxvol", array_maxvol)
        monkeypatch.setattr(cross_module, "_chop_ranks", reference_chop)
        want = tt_cross(recording_exp("want"), a, ones_tt(dims), cfg, variant, seed_indices=seeds)
        assert sampled["got"] == sampled["want"]
        assert got.tt.ranks == want.tt.ranks
        assert (got.n_evals, got.n_half_sweeps, got.converged) == (
            want.n_evals, want.n_half_sweeps, want.converged)
        for c1, c2 in zip(got.tt.cores, want.tt.cores, strict=True):
            assert c1.tobytes() == c2.tobytes()
        for got_sets, want_sets in zip(RecordingEngine.pivot_sets(), ArrayBlockEngine.pivot_sets()):
            for s1, s2 in zip(got_sets, want_sets, strict=True):
                assert s1.dtype == s2.dtype
                np.testing.assert_array_equal(s1, s2)

    @pytest.mark.parametrize("variant", ["sample", "sweep"])
    def test_pipeline_crosses_match_per_bond_reference(self, monkeypatch, variant):
        """The benchmark's own crosses, where most block updates keep one
        column: 4x4 16-QAM 15 dB quadratic metrics seeded by the sphere list
        and bch_31_16 4 dB metrics seeded by the OSD list, sampled through
        ``infer_marginals``' shifted, clipped exponential.  The reference
        draws bond by bond, gathers fibers by fancy indexing and runs
        ``array_maxvol`` and ``cumsum_chop_ranks``."""
        columns = []
        maxvol = cross_module._maxvol

        def counting_maxvol(m):
            columns.append(m.shape[1])
            return maxvol(m)

        def compared(f, a, init, cfg, variant, seed_indices):
            sampled = {"got": [], "want": []}

            def recording(key):
                def g(v):
                    sampled[key].append(v.tobytes())
                    return f(v)
                return g

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cross_module, "_CrossEngine", RecordingEngine)
                mp.setattr(cross_module, "_maxvol", counting_maxvol)
                got = tt_cross(recording("got"), a, init, cfg, variant, seed_indices)
                mp.setattr(cross_module, "_CrossEngine", PerBondDrawEngine)
                mp.setattr(cross_module, "_maxvol", array_maxvol)
                mp.setattr(cross_module, "_chop_ranks", cumsum_chop_ranks)
                want = tt_cross(recording("want"), a, init, cfg, variant, seed_indices)
            assert sampled["got"] == sampled["want"]
            assert_same_result(got, want)
            assert got.converged == want.converged
            for got_sets, want_sets in zip(RecordingEngine.pivot_sets(),
                                           PerBondDrawEngine.pivot_sets()):
                for s1, s2 in zip(got_sets, want_sets, strict=True):
                    assert s1.dtype == s2.dtype
                    np.testing.assert_array_equal(s1, s2)
            return got

        monkeypatch.setattr(posterior, "tt_cross", compared)
        calls = [("mimo", 15.0, 1), ("mimo", 15.0, 4), ("bch", 4.0, 0), ("bch", 4.0, 3)]
        assert len(pipeline_crosses(calls, variant)) == len(calls)
        assert columns.count(1) > len(columns) / 2


class TestDrawLayout:
    def test_layout_is_cached_read_only(self):
        rng = np.random.default_rng(42)
        dims = (2, 3, 2, 4, 3)
        cfg = CrossConfig(max_rank=6, n_sweeps=2, sample_oversample=3, conv_tol=1e-12)
        tt_cross(np.exp, random_tt(dims, (2, 2, 2, 2), rng, scale=0.5), ones_tt(dims), cfg)
        layout = cross_module._draw_layout(dims, True, 1, 3)
        for arr in layout:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1
        # a second engine over the same dims reuses both directions' layouts
        before = cross_module._draw_layout.cache_info()
        tt_cross(np.exp, random_tt(dims, (3, 3, 3, 3), rng, scale=0.5), ones_tt(dims), cfg)
        after = cross_module._draw_layout.cache_info()
        assert after.misses == before.misses
        assert after.hits >= before.hits + 2
        assert cross_module._draw_layout(dims, True, 1, 3) is layout


class TestSeedValidation:
    @pytest.mark.parametrize(
        "seeds,match",
        [
            ([[1, 2, 0, 1], [0, -1, 1, 0]], r"seed row 1 \[0, -1, 1, 0\]"),
            ([[1, 2, 0, 1], [0, 1, 3, 0]], r"seed row 1 \[0, 1, 3, 0\]"),
            ([[0, 1]], "shaped"),
            (np.empty((0, 4)), "at least one"),
            ([[1, 2, 0, 1], [0, 1.7, 1, 0]], "must be integers"),
        ],
    )
    def test_bad_seed_indices_are_rejected(self, seeds, match):
        rng = np.random.default_rng(32)
        a = random_tt((2, 3, 3, 2), (2, 2, 2), rng)
        with pytest.raises(ValueError, match=match):
            tt_cross(np.exp, a, ones_tt(a.dims), small_cfg(10), seed_indices=seeds)

    def test_non_integer_seeds_are_not_truncated(self):
        for seeds in ([[0, 1.7, 0]], np.zeros((1, 3))):
            with pytest.raises(ValueError, match="must be integers"):
                _check_seed_indices(seeds, (2, 2, 2))
        got = _check_seed_indices(np.array([[0, 1, 0]], dtype=np.uint8), (2, 2, 2))
        assert got.dtype == np.int64 and got.tolist() == [[0, 1, 0]]


def saturation_reported_as(left_to_right, right_to_left):
    """The cross engine with its half sweeps reporting these saturation
    flags: all True switches the rank test off, all False ignores
    saturation."""

    class Engine(cross_module._CrossEngine):
        def half_sweep(self, lr, width):
            super().half_sweep(lr, width)
            return left_to_right if lr else right_to_left

    return Engine


def assert_same_result(got, want):
    assert got.tt.ranks == want.tt.ranks
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got.tt.cores, want.tt.cores))
    assert (got.n_evals, got.n_half_sweeps) == (want.n_evals, want.n_half_sweeps)


def pipeline_crosses(calls, variant, engine=None, **cfg):
    """The crosses of ``ttdet`` on 16-QAM inputs and ``ttdec`` on bch_31_16
    inputs, ``calls`` listing (point, SNR or Eb/N0 in dB, benchmark trial),
    run by ``engine`` in place of the cross engine when given.  A MIMO call
    runs ``ttdet``'s cross path (the quadratic metric seeded by the sphere
    list) whether or not ``ttdet`` would certify the list and skip it."""
    code = load_code(builtin_code_path("bch_31_16"))
    results = []
    real = posterior.tt_cross

    def recording(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(posterior, "tt_cross", recording)
        if engine is not None:
            mp.setattr(cross_module, "_CrossEngine", engine)
        for point, db, index in calls:
            if point == "mimo":
                const, ch, y, seeds = perfbench_mimo16_inputs(7, index, snr_db=db)
                cross_cfg = CrossConfig(rng_seed=seeds[variant], **cfg)
                lp = LogPosterior(build_quadratic_metric(y, ch.h, ch.sigma2, const.alphabet),
                                  const.alphabet)
                infer_marginals(lp, cross_cfg, 0, 10, variant,
                                seeds=_sphere_list(y, ch.h, const.alphabet))
            else:
                n0 = n0_from_ebn0(db, code.rate)
                y, seeds = perfbench_bch31_inputs(code, n0, 7, index)
                cross_cfg = CrossConfig(rng_seed=seeds[variant], **cfg)
                ttdec(y, code, n0, (10,), cross_cfg, variant=variant)
    return results


class TestRankStop:
    """The second stopping test: a full sweep whose bond ranks all equal
    those after the previous full sweep (the init's after the first) and
    whose every kept rank the SVD tolerance chose counts as converged."""

    HIGH_SNR = [("mimo", 15.0, 1), ("mimo", 15.0, 2), ("mimo", 15.0, 3),
                ("bch", 4.0, 0), ("bch", 4.0, 3), ("bch", 4.0, 5)]

    @pytest.mark.parametrize("variant", ["sample", "sweep"])
    def test_high_snr_crosses_stop_after_the_first_full_sweep(self, variant):
        got = pipeline_crosses(self.HIGH_SNR, variant)
        assert [(r.n_half_sweeps, r.converged) for r in got] == [(2, True)] * len(self.HIGH_SNR)
        # the sweep that ran is the first sweep of the cross without the test
        rank_test_off = saturation_reported_as(True, True)
        want = pipeline_crosses(self.HIGH_SNR, variant, rank_test_off, n_sweeps=1)
        for g, w in zip(got, want, strict=True):
            assert_same_result(g, w)

    @pytest.mark.parametrize("variant", ["sample", "sweep"])
    def test_low_snr_crosses_are_unchanged(self, variant):
        """At 5 dB the ranks grow, the rank test never fires, and every
        output byte equals the cross's with the test switched off."""
        calls = [("mimo", 5.0, index) for index in range(8)]
        got = pipeline_crosses(calls, variant)
        want = pipeline_crosses(calls, variant, saturation_reported_as(True, True))
        assert max(r.n_half_sweeps for r in got) > 4
        for g, w in zip(got, want, strict=True):
            assert_same_result(g, w)
            assert g.converged == w.converged

    @pytest.mark.parametrize("variant", ["sample", "sweep"])
    def test_rank_one_target_stops_exactly(self, monkeypatch, variant):
        rng = np.random.default_rng(60)
        a = build_prior_tt(rng.standard_normal(3), 6)
        res = tt_cross(np.exp, a, ones_tt(a.dims), small_cfg(3), variant)
        assert (res.n_half_sweeps, res.converged, max(res.tt.ranks)) == (2, True, 1)
        np.testing.assert_allclose(tt_to_dense(res.tt).data, np.exp(tt_to_dense(a).data),
                                   rtol=1e-12)
        # a saturated block in either half sweep leaves the stop to the probes
        for flags in ((True, False), (False, True)):
            monkeypatch.setattr(cross_module, "_CrossEngine", saturation_reported_as(*flags))
            assert tt_cross(np.exp, a, ones_tt(a.dims), small_cfg(3), variant).n_half_sweeps == 4

    @pytest.mark.parametrize(
        "variant,max_rank,oversample", [("sample", 1, 4), ("sweep", 1, 4), ("sample", 64, 0)]
    )
    def test_saturated_blocks_do_not_stop_the_first_sweep(
        self, monkeypatch, variant, max_rank, oversample
    ):
        """A full-rank target whose kept ranks the cap (max_rank 1) or the
        sample (one pivot, no oversampling) chose: the ranks stay at the
        init's 1, yet the cross goes on, where ignoring saturation stops it."""
        rng = np.random.default_rng(61)
        a = random_tt((3,) * 5, (3,) * 4, rng, scale=0.8)
        cfg = small_cfg(4, max_rank=max_rank, oversample=oversample)
        res = tt_cross(np.exp, a, ones_tt(a.dims), cfg, variant)
        assert max(res.tt.ranks) == 1 and res.n_half_sweeps > 2
        monkeypatch.setattr(cross_module, "_CrossEngine", saturation_reported_as(False, False))
        assert tt_cross(np.exp, a, ones_tt(a.dims), cfg, variant).n_half_sweeps == 2
