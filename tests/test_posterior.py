"""Tests of the generic log-posterior pipeline: prior construction,
marginal inference against exhaustive enumeration, and MAP decisions."""

import numpy as np
import pytest

from ttinfer import (
    CrossConfig,
    LogPosterior,
    MarginalTable,
    build_code_logapp_tt,
    build_prior_tt,
    build_quadratic_metric,
    builtin_code_path,
    code_exact_bitwise_map,
    constant_tt,
    infer_marginals,
    lmmse_detect,
    load_code,
    map_decision,
    mimo_exact_marginals,
    tt_add,
    tt_eval_many,
    tt_to_dense,
    tt_truncate,
    ttdec,
    ttdet,
)
from ttinfer import posterior
from ttref import perfbench_mimo16_inputs, tt_svd


def enumerate_marginals(log_dense):
    """Exhaustive softmax marginalization of a dense log-metric."""
    weights = np.exp(log_dense - log_dense.max())
    order = log_dense.ndim
    table = np.empty((order, log_dense.shape[0]))
    for mode in range(order):
        axes = tuple(a for a in range(order) if a != mode)
        vec = weights.sum(axis=axes)
        table[mode] = vec / vec.sum()
    return table


def generous_cfg(seed):
    return CrossConfig(max_rank=64, n_sweeps=8, sample_oversample=4, conv_tol=1e-12, rng_seed=seed)


class TestPrior:
    def test_uniform_prior_is_constant(self):
        length = 4
        v = np.full(length, np.log(1.0 / length))
        tt = build_prior_tt(v, 5)
        np.testing.assert_allclose(tt_to_dense(tt).data, 5 * np.log(0.25), rtol=1e-12)

    def test_binary_prior_entry(self):
        v = np.log(np.array([0.7, 0.3]))
        tt = build_prior_tt(v, 3)
        # paper-convention index (1,2,1) -> (0,1,0)
        assert tt_eval_many(tt, [[0, 1, 0]])[0] == pytest.approx(2 * np.log(0.7) + np.log(0.3))

    def test_interior_ranks_exactly_two(self):
        rng = np.random.default_rng(40)
        v = rng.standard_normal(3)
        tt = build_prior_tt(v, 6)
        assert tt.ranks == (1, 2, 2, 2, 2, 2, 1)

    def test_dense_sum_oracle(self):
        rng = np.random.default_rng(41)
        v = rng.standard_normal(3)
        tt = build_prior_tt(v, 6)
        dense = tt_to_dense(tt).data
        expect = np.zeros_like(dense)
        for mode in range(6):
            shape = [1] * 6
            shape[mode] = 3
            expect = expect + v.reshape(shape)
        np.testing.assert_allclose(dense, expect, rtol=1e-11, atol=1e-12)

    @pytest.mark.parametrize("n_modes", [1, 2, 3, 6])
    @pytest.mark.parametrize("length", [2, 3, 4])
    def test_cores_are_the_explicit_rank_two_cores(self, n_modes, length):
        """First core (1, v), interior [[1, v], [0, 1]], last (v; 1), and v
        for a single mode, byte for byte."""
        v = np.random.default_rng([42, n_modes, length]).standard_normal(length)
        first, mid, last = np.zeros((1, length, 2)), np.zeros((2, length, 2)), np.zeros((2, length, 1))
        first[0, :, 0] = mid[0, :, 0] = mid[1, :, 1] = last[1, :, 0] = 1.0
        first[0, :, 1] = mid[0, :, 1] = last[0, :, 0] = v
        expect = [v.reshape(1, length, 1)] if n_modes == 1 else [first, *[mid] * (n_modes - 2), last]
        got = build_prior_tt(v, n_modes).cores
        assert [c.shape for c in got] == [c.shape for c in expect]
        assert all(g.tobytes() == e.tobytes() for g, e in zip(got, expect))

    def test_single_mode_degenerates_to_vector(self):
        v = np.array([0.1, -0.4])
        tt = build_prior_tt(v, 1)
        np.testing.assert_allclose(tt_to_dense(tt).data, v)


class TestInferMarginals:
    def test_flat_posterior_is_uniform(self):
        lp = LogPosterior(constant_tt((2, 2), 0.0), np.array([-1.0, 1.0]))
        table, _ = infer_marginals(lp, generous_cfg(1), taylor_p=10, taylor_max_rank=8)
        np.testing.assert_allclose(table.probs, 0.5, atol=1e-9)

    @pytest.mark.parametrize("variant", ["sample", "sweep"])
    def test_matches_enumeration_on_random_metrics(self, variant):
        rng = np.random.default_rng(46)
        for trial in range(20):
            dense = 3.0 * rng.standard_normal((2, 2, 2, 2))
            lp = LogPosterior(tt_svd(dense, 0.0), np.array([-1.0, 1.0]))
            table, _ = infer_marginals(
                lp, generous_cfg(trial), taylor_p=10, taylor_max_rank=16, variant=variant
            )
            expect = enumerate_marginals(dense)
            assert np.abs(table.probs - expect).max() <= 1e-6

    def test_shift_invariance(self):
        rng = np.random.default_rng(47)
        dense = rng.standard_normal((2, 2, 2, 2))
        base = tt_svd(dense, 0.0)
        lifted = tt_add(base, constant_tt(base.dims, 11.7))
        alpha = np.array([-1.0, 1.0])
        t1, _ = infer_marginals(LogPosterior(base, alpha), generous_cfg(3), 10, 16)
        t2, _ = infer_marginals(LogPosterior(lifted, alpha), generous_cfg(3), 10, 16)
        assert np.abs(t1.probs - t2.probs).max() <= 1e-9

    @pytest.mark.parametrize("variant", ["sample", "sweep"])
    def test_seeded_shift_invariance(self, variant):
        # the pipeline path: seeds set the shift, which f subtracts, so a
        # constant added to the metric cancels up to round-off
        rng = np.random.default_rng(51)
        dense = 4.0 * rng.standard_normal((4,) * 5)
        base = tt_svd(dense, 0.0)
        lifted = tt_add(base, constant_tt(base.dims, 250.0))
        seeds = np.column_stack(np.unravel_index(np.argsort(dense, axis=None)[-16:], dense.shape))
        alpha = np.arange(4.0)
        t1, _ = infer_marginals(LogPosterior(base, alpha), generous_cfg(6), 0, 1,
                                variant=variant, seeds=seeds)
        t2, _ = infer_marginals(LogPosterior(lifted, alpha), generous_cfg(6), 0, 1,
                                variant=variant, seeds=seeds)
        assert np.abs(t1.probs - t2.probs).max() <= 1e-12
        np.testing.assert_array_equal(map_decision(t1, alpha), map_decision(t2, alpha))
        np.testing.assert_allclose(t1.probs, enumerate_marginals(dense), atol=1e-6)

    @pytest.mark.parametrize("taylor_p,rounds", [(0, 0), (4, 1)])
    def test_metric_is_rounded_only_for_the_taylor_init(self, monkeypatch, taylor_p, rounds):
        calls = []
        monkeypatch.setattr(posterior, "tt_truncate", lambda *a: calls.append(a) or tt_truncate(*a))
        rng = np.random.default_rng(52)
        lp = LogPosterior(tt_svd(rng.standard_normal((2,) * 4), 0.0), np.array([0.0, 1.0]))
        infer_marginals(lp, generous_cfg(7), taylor_p, 8, seeds=np.zeros((1, 4), dtype=np.int64))
        assert len(calls) == rounds

    @pytest.mark.parametrize("seeds,match", [
        ([[0, 0, 2]], r"seed row 0 \[0, 0, 2\] outside dims"),
        ([[0, -1, 0]], r"seed row 0 \[0, -1, 0\] outside dims"),
        (np.empty((0, 3)), "at least one"),
        ([[0, 1.7, 0]], "must be integers"),
    ])
    def test_bad_seeds_are_rejected_before_the_shift(self, monkeypatch, seeds, match):
        monkeypatch.setattr(posterior, "tt_eval_many", lambda *a: pytest.fail("shift taken first"))
        rng = np.random.default_rng(53)
        lp = LogPosterior(tt_svd(rng.standard_normal((2,) * 3), 0.0), np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match=match):
            infer_marginals(lp, generous_cfg(8), 0, 1, seeds=seeds)

    def test_reports_max_rank(self):
        rng = np.random.default_rng(48)
        dense = rng.standard_normal((2, 2, 2, 2, 2))
        lp = LogPosterior(tt_svd(dense, 0.0), np.array([0.0, 1.0]))
        _, rmax = infer_marginals(lp, generous_cfg(4), 10, 16)
        assert rmax >= 1

    def test_alphabet_dimension_mismatch(self):
        with pytest.raises(ValueError):
            LogPosterior(constant_tt((2, 3), 0.0), np.array([0.0, 1.0]))


class TestMapDecision:
    def test_clear_winner(self):
        table = MarginalTable(np.array([[0.9, 0.1]]))
        assert map_decision(table, np.array([-1.0, 1.0]))[0] == -1.0

    def test_tie_breaks_to_lowest_index(self):
        table = MarginalTable(np.array([[0.5, 0.5], [0.25, 0.75]]))
        out = map_decision(table, np.array([-3.0, 3.0]))
        np.testing.assert_array_equal(out, [-3.0, 3.0])

    def test_matches_argmax_oracle(self):
        rng = np.random.default_rng(49)
        alphabet = np.array([-3.0, -1.0, 1.0, 3.0])
        raw = rng.random((10, 4))
        table = MarginalTable(raw / raw.sum(axis=1, keepdims=True))
        out = map_decision(table, alphabet)
        expect = alphabet[np.argmax(table.probs, axis=1)]
        np.testing.assert_array_equal(out, expect)

    def test_marginal_table_validation(self):
        with pytest.raises(ValueError):
            MarginalTable(np.array([[0.5, 0.6]]))
        with pytest.raises(ValueError):
            MarginalTable(np.array([[-0.1, 1.1]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_marginal_table_rejects_non_finite_entries(self, bad):
        # NaN fails neither the sign test nor the row-sum test
        with pytest.raises(ValueError, match="finite"):
            MarginalTable(np.array([[0.25, 0.75], [bad, bad]]))


class TestNormalizationKillsConstant:
    def test_truncated_vs_raw_metric(self):
        # tt_truncate(0) renormalizes the representation; marginals must agree
        rng = np.random.default_rng(50)
        dense = rng.standard_normal((2, 2, 2))
        base = tt_svd(dense, 0.0)
        alpha = np.array([0.0, 1.0])
        t1, _ = infer_marginals(LogPosterior(base, alpha), generous_cfg(5), 10, 8)
        t2, _ = infer_marginals(
            LogPosterior(tt_truncate(base, 0.0), alpha), generous_cfg(5), 10, 8
        )
        assert np.abs(t1.probs - t2.probs).max() <= 1e-8


@pytest.mark.parametrize("bad", ["nan", "inf", "column", "complex"])
@pytest.mark.parametrize("entry", [
    "ttdet", "build_quadratic_metric", "mimo_exact_marginals", "lmmse_detect",
    "ttdec", "build_code_logapp_tt", "code_exact_bitwise_map",
])
def test_every_entry_point_rejects_a_bad_observation(entry, bad):
    """Every function that takes an observation checks it through
    ``posterior._check_observation``: a NaN or infinite entry, a column
    vector and a complex vector raise ValueError, where a good observation
    passes."""
    const, ch, y, _ = perfbench_mimo16_inputs(7, 0)
    code, a = load_code(builtin_code_path("hamming_7_4")), const.alphabet
    call = {
        "ttdet": lambda y: ttdet(y, ch, a, CrossConfig()),
        "build_quadratic_metric": lambda y: build_quadratic_metric(y, ch.h, ch.sigma2, a),
        "mimo_exact_marginals": lambda y: mimo_exact_marginals(y, ch.h, ch.sigma2, a),
        "lmmse_detect": lambda y: lmmse_detect(y, ch, a),
        "ttdec": lambda y: ttdec(y, code, 1.0, (10,), CrossConfig()),
        "build_code_logapp_tt": lambda y: build_code_logapp_tt(code, y, 1.0),
        "code_exact_bitwise_map": lambda y: code_exact_bitwise_map(y, code, 1.0),
    }[entry]
    if entry in ("ttdec", "build_code_logapp_tt", "code_exact_bitwise_map"):
        y = np.linspace(-1.0, 1.0, code.n)
    call(y)
    if bad == "column":
        y, match = y[:, None], "does not match"
    elif bad == "complex":
        y, match = y + 1j, "observation must be real"
    else:
        y, match = y.copy(), "observation must be finite"
        y[3] = float(bad)
    with pytest.raises(ValueError, match=match):
        call(y)
