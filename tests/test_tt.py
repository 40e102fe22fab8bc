"""Dense-oracle tests of the TT data structure and its exact arithmetic.

Every operation is checked entrywise against explicit numpy tensors on
seeded random instances; the worked 2x2x2 example with slices [[1,2],[2,4]]
and [[2,4],[4,8]] pins down the slice-product evaluation convention and the
rank-1 compressibility case.
"""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttinfer import (
    CapacityError,
    QamConstellation,
    TensorTrain,
    builtin_code_path,
    chancode,
    constant_tt,
    load_code,
    mimo,
    ones_tt,
    tt_add,
    tt_eval_many,
    tt_hadamard,
    tt_marginals,
    tt_scale,
    tt_to_dense,
    tt_truncate,
    zeros_tt,
)
from ttinfer.tt import DENSE_BUDGET, _chop_ranks, _orthogonalize_lr, _sum_of_products
from ttref import random_tt, tt_svd


def random_instance(rng, max_order=8, max_dim=4, max_rank=6):
    order = int(rng.integers(2, max_order + 1))
    dims = rng.integers(2, max_dim + 1, size=order)
    ranks = rng.integers(1, max_rank + 1, size=order - 1)
    return random_tt(dims, ranks, rng)


def worked_example_tensor():
    """The 2x2x2 tensor whose mode-2 slices are [[1,2],[2,4]] and [[2,4],[4,8]];
    it factors exactly as the rank-1 product of three (1,2) vectors."""
    dense = np.empty((2, 2, 2))
    dense[:, 0, :] = [[1.0, 2.0], [2.0, 4.0]]
    dense[:, 1, :] = [[2.0, 4.0], [4.0, 8.0]]
    return dense


def worked_example_trivial_tt():
    """Rank-2 representation: identity stacks around the raw slices."""
    eye = np.eye(2)
    g1 = eye.reshape(1, 2, 2)
    g2 = worked_example_tensor()
    g3 = eye.reshape(2, 2, 1)
    return TensorTrain([g1, g2, g3])


def rank_one(vectors):
    """Rank-1 TT of the outer product v_1 x v_2 x ... x v_N."""
    return TensorTrain([np.asarray(v, dtype=np.float64).reshape(1, -1, 1) for v in vectors])


def full_grid(dims):
    return np.array(list(np.ndindex(*dims)))


class TestEval:
    def test_worked_example_entry(self):
        # paper-convention index (1,2,2) is (0,1,1) 0-based
        tt = worked_example_trivial_tt()
        assert tt_eval_many(tt, [[0, 1, 1]])[0] == pytest.approx(4.0)
        np.testing.assert_allclose(tt_to_dense(tt).data, worked_example_tensor())

    def test_all_ones_rank1(self):
        tt = ones_tt((2, 3, 2))
        np.testing.assert_array_equal(tt_eval_many(tt, full_grid(tt.dims)), 1.0)

    def test_matches_dense_on_full_grid(self):
        rng = np.random.default_rng(11)
        tt = random_tt((3, 3, 3, 3), (2, 2, 2), rng)
        dense = tt_to_dense(tt).data
        batch = tt_eval_many(tt, full_grid(tt.dims))
        np.testing.assert_allclose(batch, dense.ravel(), rtol=1e-12, atol=1e-14)

    def test_eval_many_matches_eval(self):
        """The batch equals the entries evaluated one by one as ordered
        products of core slices."""
        rng = np.random.default_rng(12)
        tt = random_instance(rng)
        idx = np.column_stack([rng.integers(0, d, size=50) for d in tt.dims])
        batch = tt_eval_many(tt, idx)
        single = [reduce(np.matmul, [core[:, k, :] for core, k in zip(tt.cores, row)])[0, 0]
                  for row in idx]
        np.testing.assert_allclose(batch, single, rtol=1e-12)

    def test_out_of_range_raises(self):
        tt = ones_tt((2, 2))
        for idx in ([[0, 2]], [[0, -1]], [[0, 0], [-2, 1]], [[0, 0, 0]], [0, 0]):
            with pytest.raises(IndexError):
                tt_eval_many(tt, idx)

    def test_non_integer_index_raises(self):
        tt = TensorTrain([np.arange(2.0).reshape(1, 2, 1), np.arange(1.0, 3.0).reshape(1, 2, 1)])
        for idx in ([[0.9, 1.2]], np.zeros((1, 2)), [[True, False]]):
            with pytest.raises(IndexError, match="integers"):
                tt_eval_many(tt, idx)
        small = np.array([[1, 1], [1, 0]], dtype=np.uint8)
        np.testing.assert_array_equal(tt_eval_many(tt, small), [2.0, 1.0])

    def test_empty_batch(self):
        out = tt_eval_many(ones_tt((2, 3)), np.zeros((0, 2), dtype=np.int64))
        assert out.shape == (0,)


class TestDenseBridge:
    def test_worked_example_rank1_form(self):
        vec = np.array([1.0, 2.0])
        tt = rank_one([vec, vec, vec])
        np.testing.assert_allclose(tt_to_dense(tt).data, worked_example_tensor())

    def test_zero_tt_dense(self):
        np.testing.assert_array_equal(tt_to_dense(zeros_tt((2, 2, 2))).data, 0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            tt = random_instance(rng)
            dense = tt_to_dense(tt).data
            back = tt_to_dense(tt_svd(dense, 0.0)).data
            # errors accumulate relative to the tensor scale, not per entry
            np.testing.assert_allclose(back, dense, atol=1e-12 * np.abs(dense).max())

    def test_budget_guard(self):
        # 2^25 entries: refused before anything is allocated
        assert DENSE_BUDGET == 2**24
        with pytest.raises(CapacityError):
            tt_to_dense(ones_tt((2,) * 25))


class TestFromDense:
    """The test-local TT-SVD that the cross and posterior tests build inputs
    and reference ranks with."""

    def test_worked_example_compresses_to_rank1(self):
        tt = tt_svd(worked_example_tensor(), 1e-12)
        assert tt.ranks == (1, 1, 1, 1)

    def test_outer_product_rank1(self):
        rng = np.random.default_rng(14)
        vecs = [rng.standard_normal(3) for _ in range(4)]
        dense = np.einsum("i,j,k,l->ijkl", *vecs)
        tt = tt_svd(dense, 1e-12)
        assert max(tt.ranks) == 1

    def test_exact_at_zero_tol_with_dimension_bounds(self):
        rng = np.random.default_rng(15)
        dense = rng.standard_normal((3, 3, 3, 3))
        tt = tt_svd(dense, 0.0)
        assert tt.ranks == (1, 3, 9, 3, 1)
        np.testing.assert_allclose(tt_to_dense(tt).data, dense, rtol=1e-12, atol=1e-13)

    def test_zero_tensor(self):
        tt = tt_svd(np.zeros((2, 3, 2)), 0.0)
        assert max(tt.ranks) == 1
        np.testing.assert_array_equal(tt_to_dense(tt).data, 0.0)


class TestArithmetic:
    def test_add_rank_formula(self):
        rng = np.random.default_rng(16)
        a = random_tt((2, 3, 2), (2, 3), rng)
        b = random_tt((2, 3, 2), (4, 1), rng)
        assert tt_add(a, b).ranks == (1, 6, 4, 1)

    def test_add_zero_identity(self):
        rng = np.random.default_rng(17)
        a = random_instance(rng)
        s = tt_add(a, zeros_tt(a.dims))
        np.testing.assert_allclose(tt_to_dense(s).data, tt_to_dense(a).data, rtol=1e-12)

    def test_add_dense_oracle(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            dims = tuple(rng.integers(2, 4, size=4))
            a = random_tt(dims, rng.integers(1, 5, size=3), rng)
            b = random_tt(dims, rng.integers(1, 5, size=3), rng)
            np.testing.assert_allclose(
                tt_to_dense(tt_add(a, b)).data,
                tt_to_dense(a).data + tt_to_dense(b).data,
                rtol=1e-11,
                atol=1e-12,
            )

    def test_add_shape_mismatch(self):
        with pytest.raises(ValueError):
            tt_add(ones_tt((2, 2)), ones_tt((2, 3)))

    def test_hadamard_rank_formula(self):
        rng = np.random.default_rng(19)
        a = random_tt((2, 2, 2), (2, 3), rng)
        b = random_tt((2, 2, 2), (2, 2), rng)
        assert tt_hadamard(a, b).ranks == (1, 4, 6, 1)

    def test_hadamard_ones_identity(self):
        rng = np.random.default_rng(20)
        a = random_instance(rng)
        h = tt_hadamard(a, ones_tt(a.dims))
        np.testing.assert_allclose(tt_to_dense(h).data, tt_to_dense(a).data, rtol=1e-12)

    def test_hadamard_dense_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            dims = tuple(rng.integers(2, 4, size=4))
            a = random_tt(dims, rng.integers(1, 4, size=3), rng)
            b = random_tt(dims, rng.integers(1, 4, size=3), rng)
            np.testing.assert_allclose(
                tt_to_dense(tt_hadamard(a, b)).data,
                tt_to_dense(a).data * tt_to_dense(b).data,
                rtol=1e-10,
                atol=1e-12,
            )

    def test_scale(self):
        rng = np.random.default_rng(22)
        a = random_instance(rng)
        dense = tt_to_dense(a).data
        np.testing.assert_allclose(tt_to_dense(tt_scale(a, 1.0)).data, dense, rtol=1e-15)
        np.testing.assert_array_equal(tt_to_dense(tt_scale(a, 0.0)).data, 0.0)
        lam = -1.0 / (2.0 * 0.37)
        scaled = tt_scale(a, lam)
        assert scaled.ranks == a.ranks
        np.testing.assert_allclose(tt_to_dense(scaled).data, lam * dense, rtol=1e-12)


def per_mode_marginal(a, mode):
    """One mode's marginal from its own prefix and suffix products of core
    sums, multiplied in the order ``tt_marginals`` shares across modes."""
    left = np.ones((1, 1))
    for core in a.cores[:mode]:
        left = left @ core.sum(axis=1)
    right = np.ones((1, 1))
    for core in a.cores[:mode:-1]:
        right = core.sum(axis=1) @ right
    return np.einsum("l,lkr,r->k", left[0], a.cores[mode], right[:, 0])


class TestModeOps:
    def test_marginalize_all_ones(self):
        out = tt_marginals(ones_tt((3, 3, 3, 3)))
        assert len(out) == 4
        for vec in out:
            np.testing.assert_allclose(vec, 27.0)

    def test_marginalize_separable(self):
        vecs = [np.array([1.0, 2.0]), np.array([0.5, 1.5, 2.5]), np.array([3.0, 1.0])]
        tt = rank_one(vecs)
        expect = vecs[1] * vecs[0].sum() * vecs[2].sum()
        np.testing.assert_allclose(tt_marginals(tt)[1], expect, rtol=1e-12)

    def test_marginalize_dense_oracle(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            a = random_instance(rng, max_order=5)
            dense = tt_to_dense(a).data
            mode = int(rng.integers(0, a.order))
            axes = tuple(i for i in range(a.order) if i != mode)
            np.testing.assert_allclose(
                tt_marginals(a)[mode], dense.sum(axis=axes), rtol=1e-10, atol=1e-11
            )

    def test_marginalize_invariant_under_exact_truncation(self):
        rng = np.random.default_rng(27)
        a = random_instance(rng)
        t = tt_truncate(a, 0.0)
        for mode, (va, vt) in enumerate(zip(tt_marginals(a), tt_marginals(t), strict=True)):
            np.testing.assert_allclose(va, vt, rtol=1e-10, atol=1e-11, err_msg=f"mode {mode}")

    @pytest.mark.parametrize("order", range(1, 8))
    def test_marginals_match_per_mode_products_bitwise(self, order):
        rng = np.random.default_rng([29, order])
        for _ in range(5):
            dims = rng.integers(2, 5, size=order)
            ranks = rng.integers(1, 7, size=order - 1)
            a = random_tt(dims, ranks, rng)
            out = tt_marginals(a)
            assert len(out) == order
            dense = tt_to_dense(a).data
            for mode, vec in enumerate(out):
                assert vec.shape == (dims[mode],)
                assert vec.tobytes() == per_mode_marginal(a, mode).tobytes()
                axes = tuple(i for i in range(order) if i != mode)
                np.testing.assert_allclose(vec, dense.sum(axis=axes), rtol=1e-10, atol=1e-11)


def random_factor_table(rng, order, size, n_terms=9):
    """A (terms x modes x alphabet) factor table whose supports cycle
    through empty, single-mode, full, gapped and repeated (a copy of an
    earlier term); the rows come from a pool of three, so that terms share
    prefixes and suffixes."""
    pool = rng.standard_normal((3, size))
    factors = np.ones((n_terms, order, size))
    for t in range(n_terms):
        kind = t % 5
        if kind == 4:
            factors[t] = factors[int(rng.integers(t))]
            continue
        if kind == 0:
            support = []
        elif kind == 1:
            support = [int(rng.integers(order))]
        elif kind == 2:
            support = range(order)
        else:
            support = [0, order - 1] + [i for i in range(1, order - 1) if rng.random() < 0.4]
        for i in support:
            factors[t, i] = pool[rng.integers(3)]
    return factors


def sum_of_products_dense(factors, c):
    """sum_t c_t prod_i F[t, i, x_i] as a dense array, term by term."""
    dense = 0.0
    for coef, rows in zip(c, factors):
        term = np.array(coef)
        for row in rows:
            term = np.multiply.outer(term, row)
        dense = dense + term
    return dense


class TestSumOfProducts:
    @pytest.mark.parametrize("size", [2, 3, 4])
    @pytest.mark.parametrize("order", range(1, 7))
    def test_matches_dense_oracle(self, order, size):
        rng = np.random.default_rng([33, order, size])
        for _ in range(4):
            factors = random_factor_table(rng, order, size)
            layout = _sum_of_products(factors)
            for _ in range(2):  # one layout serves every coefficient vector
                c = rng.standard_normal(factors.shape[0])
                got = tt_to_dense(layout.build(c)).data
                expect = sum_of_products_dense(factors, c)
                assert got.shape == (size,) * order
                assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()

    @pytest.mark.parametrize("order", range(1, 7))
    def test_ranks_within_straddle_bound(self, order):
        rng = np.random.default_rng([34, order])
        for _ in range(4):
            factors = random_factor_table(rng, order, 3, n_terms=15)
            ranks = _sum_of_products(factors).build(np.ones(15)).ranks
            support = ~np.all(factors == 1.0, axis=2)
            assert ranks[0] == ranks[-1] == 1
            for b in range(1, order):
                rows = [t for t in range(15) if support[t, :b].any() and support[t, b:].any()]
                prefixes = {factors[t, :b].tobytes() for t in rows}
                suffixes = {factors[t, b:].tobytes() for t in rows}
                assert ranks[b] <= min(len(prefixes), len(suffixes)) + 2, b

    def test_every_cached_layout_has_one_coefficient_row_per_term(self):
        """``build`` scales row t of ``pos`` by c[t]; that holds because each
        term's path crosses from the product side to the coefficient side
        exactly once.  Checked on the packaged codes' log-APP layouts and on
        the MIMO layouts for N = 2..16 real modes at 4- and 16-QAM."""
        layouts = []
        for name in chancode._builtin_code_names():
            code = load_code(builtin_code_path(name))
            layouts.append((name, chancode._logapp_layout(code), code.n))
        for m in (4, 16):
            alphabet = tuple(QamConstellation.from_order(m).alphabet.tolist())
            for n in range(2, 17):
                n_terms = n * (n - 1) // 2 + 2 * n + 1
                layouts.append((f"{m}-QAM N={n}", mimo._quadratic_layout(n, alphabet), n_terms))
        assert len(layouts) == 34
        for name, layout, n_terms in layouts:
            assert layout.pos.shape == layout.weight.shape, name
            assert layout.pos.shape[0] == n_terms, name


class TestTruncate:
    def test_worked_example_truncates_to_rank1_exactly(self):
        tt = worked_example_trivial_tt()
        assert tt.ranks == (1, 2, 2, 1)
        out = tt_truncate(tt, 1e-12)
        assert out.ranks == (1, 1, 1, 1)
        np.testing.assert_allclose(tt_to_dense(out).data, worked_example_tensor(), rtol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(28)
        a = random_instance(rng)
        once = tt_truncate(a, 1e-3)
        twice = tt_truncate(once, 1e-3)
        np.testing.assert_allclose(
            tt_to_dense(twice).data, tt_to_dense(once).data, rtol=1e-12, atol=1e-13
        )

    @pytest.mark.parametrize("tol", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10])
    def test_error_bound_over_tolerance_sweep(self, tol):
        rng = np.random.default_rng(29)
        for _ in range(5):
            a = random_tt((3, 3, 3, 3, 3), (8, 8, 8, 8), rng)
            dense = tt_to_dense(a).data
            norm = np.linalg.norm(dense)
            out = tt_truncate(a, tol)
            err = np.linalg.norm(tt_to_dense(out).data - dense)
            assert err <= np.sqrt(a.order - 1) * tol * norm

    def test_max_rank_cap(self):
        rng = np.random.default_rng(30)
        a = random_tt((3, 3, 3, 3), (6, 6, 6), rng)
        out = tt_truncate(a, 0.0, max_rank=2)
        assert max(out.ranks) <= 2

    def test_zero_tensor(self):
        out = tt_truncate(zeros_tt((2, 3, 2)), 1e-6)
        assert max(out.ranks) == 1
        np.testing.assert_array_equal(tt_to_dense(out).data, 0.0)


def cumsum_chop_ranks(s, delta):
    """Reference rank chop: the vectorized cumsum formula it replaced."""
    if s.size == 0:
        return 1
    if delta <= 0.0:
        return max(1, int(np.count_nonzero(s)))
    tail = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]  # tail[r] = ||s[r:]||
    keep = np.nonzero(tail > delta)[0]
    if keep.size == 0:
        return 1
    return int(keep[-1]) + 1


class TestChopRanks:
    def test_matches_cumsum_formula_on_random_spectra(self):
        """Also at thresholds equal to a tail norm and one ulp either side,
        where a tail summed in another order would flip the comparison."""
        rng = np.random.default_rng(47)
        for _ in range(300):
            size = int(rng.integers(1, 40))
            s = np.sort(rng.exponential(size=size) * 10.0 ** rng.uniform(-14, 2, size=size))[::-1]
            tail = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]
            at = tail[int(rng.integers(0, size))]
            for delta in (at, np.nextafter(at, 0.0), np.nextafter(at, np.inf),
                          1e-6 * np.linalg.norm(s), float(rng.uniform(0.0, 2.0 * tail[0]))):
                assert _chop_ranks(s, delta) == cumsum_chop_ranks(s, delta)

    @pytest.mark.parametrize("s, delta, rank", [
        ([], 1.0, 1),
        ([3.0, 2.0, 0.0], 0.0, 2),
        ([3.0, 2.0, 1.0], -1.0, 3),
        ([0.0, 0.0], 0.0, 1),
        ([3.0, 1.0, 0.0, 0.0], 1e-12, 2),
        ([3.0, 1.0, 0.0, 0.0], 0.0, 2),
        ([0.0, 0.0, 0.0], 1e-12, 1),
        ([1e-3, 1e-4, 1e-5], 1.0, 1),
        ([3.0, 4.0], 3.99, 2),
        ([3.0, 4.0], 4.0, 1),
        ([3.0, 4.0], 5.0, 1),
    ], ids=["empty", "zero-delta", "negative-delta", "all-zero", "zero-tail",
            "zero-tail-zero-delta", "all-zero-positive-delta", "all-below-delta",
            "tail-above-delta", "tail-at-delta", "total-at-delta"])
    def test_edge_cases(self, s, delta, rank):
        s = np.asarray(s, dtype=np.float64)
        assert _chop_ranks(s, delta) == cumsum_chop_ranks(s, delta) == rank


@st.composite
def tt_pairs(draw, min_order=2, max_dim=3):
    """Two random TTs on the same small grid (order min_order-5, dims
    2-max_dim, ranks 1-4)."""
    dims = draw(st.lists(st.integers(2, max_dim), min_size=min_order, max_size=5))
    rank_lists = st.lists(st.integers(1, 4), min_size=len(dims) - 1, max_size=len(dims) - 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_tt(dims, draw(rank_lists), rng), random_tt(dims, draw(rank_lists), rng)


def abs_dense(tt):
    """Dense tensor of |cores|: the sum of |path products| at every entry,
    the scale that bounds round-off in evaluating ``tt``."""
    return tt_to_dense(TensorTrain([np.abs(c) for c in tt.cores])).data


class TestAlgebraProperties:
    @settings(max_examples=60, deadline=None)
    @given(tt_pairs(min_order=1, max_dim=4))
    def test_add_matches_dense(self, pair):
        a, b = pair
        out = tt_add(a, b)
        inner = tuple(x + y for x, y in zip(a.ranks[1:-1], b.ranks[1:-1]))
        assert out.ranks == (1, *inner, 1)
        scale = abs_dense(a) + abs_dense(b)
        np.testing.assert_allclose(
            tt_to_dense(out).data,
            tt_to_dense(a).data + tt_to_dense(b).data,
            rtol=0,
            atol=1e-12 * scale.max(),
        )

    @settings(max_examples=60, deadline=None)
    @given(tt_pairs(min_order=1, max_dim=4))
    def test_hadamard_matches_dense(self, pair):
        a, b = pair
        out = tt_hadamard(a, b)
        inner = tuple(x * y for x, y in zip(a.ranks[1:-1], b.ranks[1:-1]))
        assert out.ranks == (1, *inner, 1)
        scale = abs_dense(a) * abs_dense(b)
        np.testing.assert_allclose(
            tt_to_dense(out).data,
            tt_to_dense(a).data * tt_to_dense(b).data,
            rtol=0,
            atol=1e-12 * scale.max(),
        )


class TestRoundingProperties:
    @settings(max_examples=60, deadline=None)
    @given(tt_pairs())
    def test_orthogonalize_is_left_orthogonal_and_exact(self, pair):
        a = pair[0]
        cores = _orthogonalize_lr(list(a.cores))
        for core in cores[:-1]:
            rl, n, rr = core.shape
            q = core.reshape(rl * n, rr)
            np.testing.assert_allclose(q.T @ q, np.eye(rr), rtol=0, atol=1e-12)
        dense = tt_to_dense(a).data
        np.testing.assert_allclose(
            tt_to_dense(TensorTrain(cores)).data, dense, rtol=0, atol=1e-12 * np.linalg.norm(dense)
        )

    @settings(max_examples=60, deadline=None)
    @given(tt_pairs(), st.sampled_from([1e-1, 1e-3, 1e-6, 1e-10]))
    def test_truncated_horner_step_within_bound(self, pair, tol):
        a, b = pair
        step = tt_add(tt_hadamard(a, b), ones_tt(a.dims))
        dense = tt_to_dense(a).data * tt_to_dense(b).data + 1.0
        norm = np.linalg.norm(dense)
        err = np.linalg.norm(tt_to_dense(tt_truncate(step, tol)).data - dense)
        # tol * ||step|| plus a round-off floor for the smallest tolerance
        assert err <= tol * norm * (1 + 1e-9) + 1e-12 * norm


class TestNorm:
    """The QR sweep leaves the Frobenius norm in the last core; tt_truncate's
    tolerance is relative to it."""

    @staticmethod
    def norm(a):
        return float(np.linalg.norm(_orthogonalize_lr(list(a.cores))[-1]))

    def test_zero(self):
        assert self.norm(zeros_tt((2, 2, 2))) == 0.0

    def test_all_ones(self):
        assert self.norm(ones_tt((2, 2, 2))) == pytest.approx(np.sqrt(8.0))

    def test_dense_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            a = random_instance(rng)
            assert self.norm(a) == pytest.approx(np.linalg.norm(tt_to_dense(a).data), rel=1e-11)


class TestStructure:
    def test_boundary_and_chain_validation(self):
        with pytest.raises(ValueError):
            TensorTrain([np.ones((2, 2, 1))])
        with pytest.raises(ValueError):
            TensorTrain([np.ones((1, 2, 3)), np.ones((2, 2, 1))])

    def test_immutability(self):
        tt = ones_tt((2, 2))
        with pytest.raises(AttributeError):
            tt.cores = ()
        with pytest.raises(ValueError):
            tt.cores[0][0, 0, 0] = 5.0

    def test_constant(self):
        tt = constant_tt((2, 2, 2), 3.5)
        np.testing.assert_array_equal(tt_to_dense(tt).data, 3.5)
