"""Dense-oracle tests of the TT data structure and its exact arithmetic.

Every operation is checked entrywise against explicit numpy tensors on
seeded random instances; the worked 2x2x2 example with slices [[1,2],[2,4]]
and [[2,4],[4,8]] pins down the slice-product evaluation convention and the
rank-1 compressibility case.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ttinfer import (
    CapacityError,
    DenseTensor,
    TensorTrain,
    constant_tt,
    ones_tt,
    random_tt,
    rank_one_tt,
    tt_add,
    tt_eval,
    tt_eval_many,
    tt_from_dense,
    tt_hadamard,
    tt_marginals,
    tt_norm,
    tt_scale,
    tt_to_dense,
    tt_truncate,
    zeros_tt,
)
from ttinfer.tt import _orthogonalize_lr, _round_gram, _sum_of_products


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


class TestEval:
    def test_worked_example_entry(self):
        # paper-convention index (1,2,2) is (0,1,1) 0-based
        tt = worked_example_trivial_tt()
        assert tt_eval(tt, (0, 1, 1)) == pytest.approx(4.0)
        np.testing.assert_allclose(tt_to_dense(tt).data, worked_example_tensor())

    def test_all_ones_rank1(self):
        tt = ones_tt((2, 3, 2))
        for idx in np.ndindex(2, 3, 2):
            assert tt_eval(tt, idx) == 1.0

    def test_matches_dense_on_full_grid(self):
        rng = np.random.default_rng(11)
        tt = random_tt((3, 3, 3, 3), (2, 2, 2), rng)
        dense = tt_to_dense(tt).data
        for idx in np.ndindex(*tt.dims):
            assert tt_eval(tt, idx) == pytest.approx(dense[idx], rel=1e-12, abs=1e-14)

    def test_eval_many_matches_eval(self):
        rng = np.random.default_rng(12)
        tt = random_instance(rng)
        idx = np.column_stack([rng.integers(0, d, size=50) for d in tt.dims])
        batch = tt_eval_many(tt, idx)
        single = [tt_eval(tt, row) for row in idx]
        np.testing.assert_allclose(batch, single, rtol=1e-12)

    def test_out_of_range_raises(self):
        tt = ones_tt((2, 2))
        with pytest.raises(IndexError):
            tt_eval(tt, (0, 2))
        with pytest.raises(IndexError):
            tt_eval(tt, (0, 0, 0))


class TestDenseBridge:
    def test_worked_example_rank1_form(self):
        vec = np.array([1.0, 2.0])
        tt = rank_one_tt([vec, vec, vec])
        np.testing.assert_allclose(tt_to_dense(tt).data, worked_example_tensor())

    def test_zero_tt_dense(self):
        np.testing.assert_array_equal(tt_to_dense(zeros_tt((2, 2, 2))).data, 0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            tt = random_instance(rng)
            dense = tt_to_dense(tt).data
            back = tt_to_dense(tt_from_dense(dense, 0.0)).data
            # errors accumulate relative to the tensor scale, not per entry
            np.testing.assert_allclose(back, dense, atol=1e-12 * np.abs(dense).max())

    def test_budget_guard(self):
        tt = ones_tt((4, 4, 4))
        with pytest.raises(CapacityError):
            tt_to_dense(tt, budget=63)
        with pytest.raises(CapacityError):
            DenseTensor.from_array(np.zeros(64), budget=63)


class TestFromDense:
    def test_worked_example_compresses_to_rank1(self):
        tt = tt_from_dense(worked_example_tensor(), 1e-12)
        assert tt.ranks == (1, 1, 1, 1)

    def test_outer_product_rank1(self):
        rng = np.random.default_rng(14)
        vecs = [rng.standard_normal(3) for _ in range(4)]
        dense = np.einsum("i,j,k,l->ijkl", *vecs)
        tt = tt_from_dense(dense, 1e-12)
        assert tt.max_rank == 1

    def test_exact_at_zero_tol_with_dimension_bounds(self):
        rng = np.random.default_rng(15)
        dense = rng.standard_normal((3, 3, 3, 3))
        tt = tt_from_dense(dense, 0.0)
        assert tt.ranks == (1, 3, 9, 3, 1)
        np.testing.assert_allclose(tt_to_dense(tt).data, dense, rtol=1e-12, atol=1e-13)

    def test_zero_tensor(self):
        tt = tt_from_dense(np.zeros((2, 3, 2)), 0.0)
        assert tt.max_rank == 1
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
        tt = rank_one_tt(vecs)
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
        assert out.max_rank == 1
        np.testing.assert_array_equal(tt_to_dense(out).data, 0.0)


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


def horner_step(a, b, k):
    return tt_add(tt_scale(tt_hadamard(a, b), 1.0 / k), ones_tt(a.dims))


class TestGramRounding:
    # Either the tolerance sits above the Gram route's 1e-7 resolution, or a
    # tiny tolerance is overruled by a rank cap that binds at every bond.
    @settings(max_examples=80, deadline=None)
    @given(
        tt_pairs(),
        st.integers(1, 10),
        st.sampled_from([(None, 1e-1), (None, 1e-3), (None, 1e-6), (1, 1e-12), (2, 1e-12)]),
    )
    def test_matches_qr_rounding(self, pair, k, case):
        max_rank, tol = case
        step = horner_step(*pair, k)
        qr = tt_truncate(step, tol, max_rank)
        if max_rank is not None:
            assume(all(r == max_rank for r in qr.ranks[1:-1]))
        gram = _round_gram(step.cores, tol, max_rank)
        assert gram.ranks == qr.ranks
        dense = tt_to_dense(qr).data
        err = np.linalg.norm(tt_to_dense(gram).data - dense)
        assert err <= 1e-10 * np.linalg.norm(tt_to_dense(step).data)

    def test_ranks_within_unfolding_bounds(self):
        # Gram eigen-noise sits near 1e-8 * s_max, far above a 1e-12
        # tolerance; without the rank floor it inflated the outer bonds.
        rng = np.random.default_rng(41)
        dims = (2, 3, 2, 2, 3, 2, 2)
        for _ in range(5):
            a = random_tt(dims, (4, 5, 5, 5, 5, 4), rng)
            b = random_tt(dims, (3, 4, 4, 4, 4, 3), rng)
            out = _round_gram(horner_step(a, b, 3).cores, 1e-12)
            for bond in range(1, len(dims)):
                bound = min(np.prod(dims[:bond]), np.prod(dims[bond:]))
                assert out.ranks[bond] <= bound

    def test_edge_cases_as_qr_rounding(self):
        single = TensorTrain([np.arange(3.0).reshape(1, 3, 1)])
        np.testing.assert_array_equal(_round_gram(single.cores, 1e-6).cores[0], single.cores[0])
        out = _round_gram(zeros_tt((2, 3, 2)).cores, 1e-6)
        assert out.max_rank == 1
        np.testing.assert_array_equal(tt_to_dense(out).data, 0.0)
        with pytest.raises(ValueError):
            _round_gram(ones_tt((2, 2)).cores, -1.0)


class TestNorm:
    def test_zero(self):
        assert tt_norm(zeros_tt((2, 2, 2))) == 0.0

    def test_all_ones(self):
        assert tt_norm(ones_tt((2, 2, 2))) == pytest.approx(np.sqrt(8.0))

    def test_dense_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            a = random_instance(rng)
            assert tt_norm(a) == pytest.approx(np.linalg.norm(tt_to_dense(a).data), rel=1e-11)


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
