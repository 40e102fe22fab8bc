"""Tests of the MIMO model pieces: channel statistics, real decomposition,
SNR accounting, the exact TT constructions, the list sphere decoder, the
certified list exit, and end-to-end detection against exhaustive
enumeration."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from ttinfer import (
    ChannelRealization,
    CrossConfig,
    DegenerateChannelError,
    LogPosterior,
    QamConstellation,
    SimConfig,
    build_quadratic_metric,
    harness,
    infer_marginals,
    mimo_exact_marginals,
    noise_variance_for_snr,
    realify_channel,
    sample_channel,
    tt_to_dense,
    tt_truncate,
    ttdet,
)
from ttinfer import mimo, posterior
from ttinfer.mimo import (
    LIST_EXIT_TOL,
    _log_outside_bound,
    _sphere_list,
)
from ttref import perfbench_mimo16_inputs


def assignments(n_modes, alphabet):
    base = len(alphabet)
    idx = np.arange(base**n_modes)
    digits = (idx[:, None] // base ** np.arange(n_modes - 1, -1, -1)) % base
    return np.asarray(alphabet)[digits], digits


class TestConstellation:
    def test_4qam(self):
        c = QamConstellation.from_order(4)
        np.testing.assert_array_equal(c.alphabet, [-1.0, 1.0])
        assert c.energy_real == 1.0 and c.energy_complex == 2.0

    def test_16qam(self):
        c = QamConstellation.from_order(16)
        np.testing.assert_array_equal(c.alphabet, [-3.0, -1.0, 1.0, 3.0])
        assert c.energy_real == 5.0 and c.energy_complex == 10.0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            QamConstellation.from_order(8)


class TestChannel:
    def test_entry_statistics(self):
        rng = np.random.default_rng(60)
        h = sample_channel(20, 25, rng)
        mags = np.abs(h.ravel()) ** 2
        # |h|^2 is Exp(1): mean 1, var 1; 5 sigma over 500 samples
        assert abs(mags.mean() - 1.0) <= 5.0 / np.sqrt(mags.size)

    def test_seed_determinism(self):
        h1 = sample_channel(4, 4, np.random.default_rng(7))
        h2 = sample_channel(4, 4, np.random.default_rng(7))
        np.testing.assert_array_equal(h1, h2)

    def test_block_structure(self):
        rng = np.random.default_rng(61)
        hc = sample_channel(3, 2, rng)
        h = realify_channel(hc)
        nr, nt = hc.shape
        np.testing.assert_array_equal(h[:nr, :nt], hc.real)
        np.testing.assert_array_equal(h[:nr, nt:], -hc.imag)
        np.testing.assert_array_equal(h[nr:, :nt], hc.imag)
        np.testing.assert_array_equal(h[nr:, nt:], hc.real)


class TestRealify:
    def test_real_input_stacks_zero_imag(self):
        h = np.array([[1.0, -3.0], [2.0, 0.5]])
        zero = np.zeros((2, 2))
        np.testing.assert_array_equal(realify_channel(h + 0j), np.block([[h, zero], [zero, h]]))

    def test_complex_arithmetic_oracle(self):
        rng = np.random.default_rng(62)
        hc = sample_channel(3, 4, rng)
        xc = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        nc = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        yc = hc @ xc + nc

        def stack(z):
            return np.concatenate([z.real, z.imag])

        np.testing.assert_allclose(realify_channel(hc) @ stack(xc) + stack(nc), stack(yc), rtol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(63)
        hc = sample_channel(3, 5, rng)
        ch = ChannelRealization.from_complex(hc, 0.5)
        assert (ch.nt_complex, ch.nr_complex, ch.nt, ch.nr) == (3, 5, 6, 10)
        np.testing.assert_array_equal(ch.h[:5, :3] + 1j * ch.h[5:, :3], hc)


class TestNoiseVariance:
    def test_monotone_in_snr(self):
        rng = np.random.default_rng(64)
        hc = sample_channel(4, 4, rng)
        vars = [noise_variance_for_snr(hc, 2.0, s) for s in (-10.0, 0.0, 10.0, 20.0)]
        assert all(a > b for a, b in zip(vars, vars[1:]))

    def test_proportional_to_channel_energy(self):
        rng = np.random.default_rng(65)
        hc = sample_channel(4, 4, rng)
        v1 = noise_variance_for_snr(hc, 2.0, 3.0)
        v2 = noise_variance_for_snr(np.sqrt(2.0) * hc, 2.0, 3.0)
        assert v2 == pytest.approx(2.0 * v1, rel=1e-12)

    def test_zero_channel_rejected(self):
        with pytest.raises(DegenerateChannelError):
            noise_variance_for_snr(np.zeros((2, 2), dtype=complex), 2.0, 0.0)

    def test_expected_stream_snr_matches(self):
        # Monte Carlo: mean signal power over mean noise power, per transmit
        # stream, should land on the target within 0.1 dB
        rng = np.random.default_rng(66)
        const = QamConstellation.from_order(4)
        target = 3.0
        sig = noise = 0.0
        for _ in range(2000):
            hc = sample_channel(4, 4, rng)
            s2 = noise_variance_for_snr(hc, const.energy_complex, target)
            h = realify_channel(hc)
            x = const.alphabet[rng.integers(0, 2, size=8)]
            n = np.sqrt(s2) * rng.standard_normal(8)
            sig += np.sum((h @ x) ** 2)
            noise += 4 * np.sum(n**2)  # N_T times the noise energy
        measured = 10 * np.log10(sig / noise)
        assert measured == pytest.approx(target, abs=0.1)


def row_term(y_j, h_j, sigma2, alphabet):
    """The log-likelihood term -(y_j - h_j^T x)^2 / (2 sigma^2) of one receive
    row: the quadratic metric of a one-row channel."""
    return build_quadratic_metric(np.array([y_j]), np.asarray(h_j)[None, :], sigma2, alphabet)


class TestLogLikTerm:
    def test_zero_row_gives_constant(self):
        tt = row_term(1.5, np.zeros(3), 0.5, np.array([-1.0, 1.0]))
        np.testing.assert_allclose(tt_to_dense(tt).data, -(1.5**2) / 1.0, rtol=1e-12)

    def test_exhaustive_formula_oracle(self):
        rng = np.random.default_rng(69)
        alphabet = np.array([-1.0, 1.0])
        for _ in range(10):
            h = rng.standard_normal(4)
            y = float(rng.standard_normal())
            s2 = float(rng.uniform(0.2, 2.0))
            tt = row_term(y, h, s2, alphabet)
            xs, _ = assignments(4, alphabet)
            expect = -((y - xs @ h) ** 2) / (2 * s2)
            got = tt_to_dense(tt).data.reshape(-1)
            np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12)

    def test_rank_bounds(self):
        # (h^T x)^2 needs only (1, partial sum, its square) on every bond
        rng = np.random.default_rng(70)
        h = rng.standard_normal(6)
        alphabet = np.array([-1.0, 1.0])
        raw = row_term(0.7, h, 1.0, alphabet)
        assert max(raw.ranks) <= 5
        assert max(tt_truncate(raw, 1e-12).ranks) <= 3

    def test_invalid_variance(self):
        with pytest.raises(ValueError):
            row_term(0.0, np.ones(2), 0.0, np.array([-1.0, 1.0]))


class TestQuadraticMetric:
    @pytest.mark.parametrize("nt,nr,size", [(1, 2, 4), (2, 2, 2), (3, 5, 4), (8, 8, 4), (8, 6, 4)])
    def test_exhaustive_formula_oracle(self, nt, nr, size):
        rng = np.random.default_rng(76)
        alphabet = np.arange(-size + 1, size, 2, dtype=np.float64)
        h = rng.standard_normal((nr, nt))
        y = rng.standard_normal(nr)
        s2 = 0.4
        tt = build_quadratic_metric(y, h, s2, alphabet)
        xs, _ = assignments(nt, alphabet)
        expect = -np.sum((y - xs @ h.T) ** 2, axis=1) / (2 * s2)
        got = tt_to_dense(tt).data.reshape(-1)
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12 * np.abs(expect).max())

    @pytest.mark.parametrize("nt", [1, 2, 5, 8, 9])
    def test_rank_bounds(self, nt):
        rng = np.random.default_rng(77)
        tt = build_quadratic_metric(
            rng.standard_normal(3), rng.standard_normal((3, nt)), 1.0, np.array([-1.0, 1.0])
        )
        for bond in range(1, nt):
            assert tt.ranks[bond] <= min(bond, nt - bond) + 2

    @pytest.mark.parametrize("sigma2", [0.0, -1.0])
    def test_invalid_variance(self, sigma2):
        with pytest.raises(ValueError):
            build_quadratic_metric(np.zeros(2), np.ones((2, 2)), sigma2, np.array([-1.0, 1.0]))

    def test_matches_summed_row_terms(self):
        rng = np.random.default_rng(78)
        alphabet = QamConstellation.from_order(16).alphabet
        h = realify_channel(sample_channel(4, 4, rng))
        y = h @ alphabet[rng.integers(0, 4, size=8)] + 0.3 * rng.standard_normal(8)
        s2 = 0.09
        expect = sum(tt_to_dense(row_term(y[j], h[j], s2, alphabet)).data for j in range(8))
        got = tt_to_dense(build_quadratic_metric(y, h, s2, alphabet)).data
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12 * np.abs(expect).max())


def desk_channel(rng, snr_db, nt_complex=2):
    const = QamConstellation.from_order(4)
    hc = sample_channel(nt_complex, nt_complex, rng)
    s2 = noise_variance_for_snr(hc, const.energy_complex, snr_db)
    ch = ChannelRealization.from_complex(hc, s2)
    x = const.alphabet[rng.integers(0, 2, size=ch.nt)]
    y = ch.h @ x + np.sqrt(s2) * rng.standard_normal(ch.nr)
    return const, ch, x, y


def cross_path(y, ch, alphabet, cfg, taylor_p, taylor_max_rank, variant="sample"):
    """The marginals of ``ttdet``'s cross path, which it takes on inputs the
    sphere list does not certify: the quadratic metric, exponentiated by the
    cross seeded with the list."""
    lp = LogPosterior(build_quadratic_metric(y, ch.h, ch.sigma2, alphabet), alphabet)
    return infer_marginals(lp, cfg, taylor_p, taylor_max_rank, variant,
                           seeds=_sphere_list(y, ch.h, alphabet))[0]


class TestDetector:
    """2x2 4-QAM desk channels have 16 hypotheses, as many as the sphere
    list holds, so ``ttdet`` returns the exact list marginals there; the
    cross's checks call its path directly."""

    def test_noiseless_consistency(self):
        rng = np.random.default_rng(71)
        const = QamConstellation.from_order(4)
        hc = sample_channel(2, 2, rng)
        ch = ChannelRealization.from_complex(hc, 1e-4)
        x = const.alphabet[rng.integers(0, 2, size=4)]
        y = ch.h @ x  # no noise at all
        cfg = CrossConfig(max_rank=32, n_sweeps=8, sample_oversample=4, conv_tol=1e-10, rng_seed=5)
        trial = ttdet(y, ch, const.alphabet, cfg, taylor_p=10, taylor_max_rank=16)
        assert trial.certified and trial.max_rank_observed == 0
        np.testing.assert_array_equal(trial.x_hat, x)
        marginals = cross_path(y, ch, const.alphabet, cfg, 10, 16)
        np.testing.assert_array_equal(const.alphabet[np.argmax(marginals.probs, axis=1)], x)

    @pytest.mark.parametrize("variant", ["sample", "sweep"])
    def test_marginals_match_enumeration(self, variant):
        rng = np.random.default_rng(72)
        for trial_idx in range(10):
            const, ch, x, y = desk_channel(rng, snr_db=2.0)
            cfg = CrossConfig(
                max_rank=32, n_sweeps=8, sample_oversample=4, conv_tol=1e-12, rng_seed=trial_idx
            )
            oracle = mimo_exact_marginals(y, ch.h, ch.sigma2, const.alphabet)
            marginals = cross_path(y, ch, const.alphabet, cfg, 10, 16, variant)
            assert np.abs(marginals.probs - oracle.probs).max() <= 1e-4
            # the list is the whole space: the exit is exact
            trial = ttdet(y, ch, const.alphabet, cfg, 10, 16, variant)
            assert trial.certified
            np.testing.assert_allclose(trial.marginals.probs, oracle.probs, rtol=0, atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(73)
        const, ch, x, y = desk_channel(rng, snr_db=0.0)
        perm = rng.permutation(ch.nt)
        m1 = mimo_exact_marginals(y, ch.h, ch.sigma2, const.alphabet)
        m2 = mimo_exact_marginals(y, ch.h[:, perm], ch.sigma2, const.alphabet)
        np.testing.assert_allclose(m2.probs, m1.probs[perm], rtol=1e-10)
        cfg = CrossConfig(max_rank=32, n_sweeps=8, sample_oversample=4, conv_tol=1e-12, rng_seed=9)
        ch_p = ChannelRealization(
            h=ch.h[:, perm], sigma2=ch.sigma2, nt_complex=ch.nt_complex, nr_complex=ch.nr_complex
        )
        t1 = cross_path(y, ch, const.alphabet, cfg, 10, 16)
        t2 = cross_path(y, ch_p, const.alphabet, cfg, 10, 16)
        assert np.abs(t2.probs - t1.probs[perm]).max() <= 1e-6

    def test_joint_scaling_invariance(self):
        rng = np.random.default_rng(74)
        const, ch, x, y = desk_channel(rng, snr_db=1.0)
        scale = 3.7
        ch_s = ChannelRealization(
            h=scale * ch.h,
            sigma2=scale**2 * ch.sigma2,
            nt_complex=ch.nt_complex,
            nr_complex=ch.nr_complex,
        )
        m1 = mimo_exact_marginals(y, ch.h, ch.sigma2, const.alphabet)
        m2 = mimo_exact_marginals(scale * y, ch_s.h, ch_s.sigma2, const.alphabet)
        np.testing.assert_allclose(m2.probs, m1.probs, rtol=1e-9)

    def test_score_counts_symbol_errors(self):
        # the harness scores each detection against the transmitted symbols
        rng = np.random.default_rng(75)
        const, ch, x, y = desk_channel(rng, snr_db=5.0)
        cfg = CrossConfig(max_rank=32, n_sweeps=8, sample_oversample=4, conv_tol=1e-10, rng_seed=2)
        trial = ttdet(y, ch, const.alphabet, cfg, 10, 16)
        assert trial.certified and trial.max_rank_observed == 0
        sim = SimConfig(scenario="mimo", snr_grid=(5.0,), detectors=("sample",), nt_complex=2)
        for x_hat in (trial.x_hat, -x):
            rows = harness._trial_records(sim, 0, x, lambda det: (x_hat, trial.max_rank_observed, 0))
            errors = int(np.count_nonzero(x_hat != x))
            # (detector, trial, errors, rmax, early, failed)
            assert rows == [("sample", 0, errors, trial.max_rank_observed, 0, 0)]


class TestSphereList:
    @pytest.mark.parametrize("nr, nt, size, list_size", [
        (8, 8, 4, 16),  # square
        (10, 6, 4, 16),  # tall
        (4, 8, 2, 16),  # wide: levels 4..7 have no row of R
        (3, 5, 4, 16),  # wide, 4-ary
        (2, 3, 2, 100),  # list longer than the 8 hypotheses
    ])
    def test_equals_dense_top_k(self, nr, nt, size, list_size):
        rng = np.random.default_rng(nr * 100 + nt)
        alphabet = np.arange(-size + 1, size, 2.0)
        xs, digits = assignments(nt, alphabet)
        for _ in range(3):
            h = rng.standard_normal((nr, nt))
            y = h @ alphabet[rng.integers(0, size, size=nt)] + 0.7 * rng.standard_normal(nr)
            metric = np.sum((y[None, :] - xs @ h.T) ** 2, axis=1)
            expect = digits[np.argsort(metric, kind="stable")[:list_size]]
            np.testing.assert_array_equal(_sphere_list(y, h, alphabet, list_size), expect)


def assert_ttdet_agrees_with_exact_marginals(indices, snr_db, variant, bound):
    """Paired check on the benchmark's 16-QAM inputs of seed 7: decisions
    equal the exact MAP's trial by trial, and max |dP| stays <= ``bound``
    (<= ``LIST_EXIT_TOL`` on certified calls).  Returns the number of
    certified calls."""
    certified = 0
    for index in indices:
        const, ch, y, seeds = perfbench_mimo16_inputs(7, index, snr_db=snr_db)
        oracle = mimo_exact_marginals(y, ch.h, ch.sigma2, const.alphabet)
        trial = ttdet(y, ch, const.alphabet, CrossConfig(max_rank=1024, rng_seed=seeds[variant]),
                      variant=variant)
        np.testing.assert_array_equal(
            trial.x_hat, const.alphabet[np.argmax(oracle.probs, axis=1)], err_msg=f"trial {index}"
        )
        error = np.abs(trial.marginals.probs - oracle.probs).max()
        assert error <= (LIST_EXIT_TOL if trial.certified else bound), index
        assert (trial.max_rank_observed == 0) == trial.certified, index
        certified += trial.certified
    return certified


@pytest.mark.parametrize("variant", ["sample", "sweep"])
def test_ttdet_agrees_with_exact_marginals_trial_by_trial(variant):
    """16-QAM at 15 dB, where the random-probe mode search missed the mode:
    trial 26 of seed 7 gave exactly uniform ``sample`` marginals.  The
    sphere list certifies 17 of these 20 calls."""
    assert assert_ttdet_agrees_with_exact_marginals(range(7, 27), 15.0, variant, 1e-3) == 17


def test_ttdet_sweep_at_5db_agrees_with_exact_marginals_trial_by_trial():
    """Low SNR, where the cross ranks grow and its rank test must not stop
    it early (the list certifies none of these calls).  The bound is 1.1 x
    the max |dP| of 7.4e-5 that the cross without the rank test reached on
    these 25 inputs."""
    assert assert_ttdet_agrees_with_exact_marginals(range(25), 5.0, "sweep", 8e-5) == 0


def test_default_ttdet_never_rounds(monkeypatch):
    def forbidden(*args, **kwargs):
        pytest.fail("tt_truncate ran")

    for module in (mimo, posterior):
        monkeypatch.setattr(module, "tt_truncate", forbidden)
    const, ch, y, seeds = perfbench_mimo16_inputs(7, 0)
    trial = ttdet(y, ch, const.alphabet, CrossConfig(rng_seed=seeds["sweep"]), variant="sweep")
    assert not trial.certified


@pytest.mark.parametrize("variant", ["sample", "sweep"])
def test_ttdet_rounded_metric_keeps_decisions(variant):
    for index in range(5):
        const, ch, y, seeds = perfbench_mimo16_inputs(3, index, snr_db=10.0)
        cfg = CrossConfig(rng_seed=seeds[variant])
        exact = ttdet(y, ch, const.alphabet, cfg, variant=variant)
        rounded = ttdet(y, ch, const.alphabet, cfg, variant=variant, trunc_tol=1e-9)
        assert not (exact.certified or rounded.certified), index
        np.testing.assert_array_equal(rounded.x_hat, exact.x_hat, err_msg=f"trial {index}")


@pytest.mark.parametrize("index,certified", [(1, True), (0, False)])
@pytest.mark.parametrize("kwargs,match", [
    (dict(variant="bogus"), "unknown cross variant 'bogus'"),
    (dict(taylor_p=-1), "taylor_p must be >= 0"),
    (dict(taylor_max_rank=0), "taylor_max_rank must be >= 1"),
    (dict(trunc_tol=-1.0), "trunc_tol must be >= 0"),
    (dict(trunc_tol=math.nan), "trunc_tol must be >= 0"),
])
def test_ttdet_rejects_bad_pipeline_arguments(index, certified, kwargs, match):
    """Arguments the cross path would reject raise whether or not the list
    certifies the input (trial 1 of seed 7 at 15 dB is certified, trial 0
    is not)."""
    const, ch, y, seeds = perfbench_mimo16_inputs(7, index)
    cfg = CrossConfig(rng_seed=seeds["sweep"])
    assert ttdet(y, ch, const.alphabet, cfg, variant="sweep").certified is certified
    with pytest.raises(ValueError, match=match):
        ttdet(y, ch, const.alphabet, cfg, **{"variant": "sweep", **kwargs})


class TestListExit:
    """The bound on the posterior mass outside the sphere list, and the
    list's marginals that ``ttdet`` returns when the bound is small."""

    @staticmethod
    def enumerate_input(seed, index, snr_db):
        """A benchmark 16-QAM input, the log weights of all 4^8 hypotheses,
        and the rows of its sphere list among them."""
        const, ch, y, _ = perfbench_mimo16_inputs(seed, index, snr_db=snr_db)
        xs, _ = assignments(ch.nt, const.alphabet)
        everything = -np.sum((y - xs @ ch.h.T) ** 2, axis=1) / (2.0 * ch.sigma2)
        listed = _sphere_list(y, ch.h, const.alphabet)
        rows = listed @ const.size_real ** np.arange(ch.nt - 1, -1, -1)
        return const, ch, y, everything, rows

    @pytest.mark.parametrize("snr_db", [5.0, 10.0, 15.0, 20.0])
    def test_bound_covers_the_outside_mass(self, snr_db):
        for index in range(5):
            *_, everything, rows = self.enumerate_input(11, index, snr_db)
            inside = np.zeros(everything.size, dtype=bool)
            inside[rows] = True
            ratio = logsumexp(everything[~inside]) - logsumexp(everything[inside])
            assert _log_outside_bound(everything[rows], everything.size) >= ratio, (snr_db, index)

    @pytest.mark.parametrize("snr_db", [15.0, 20.0])
    def test_certified_marginals_match_enumeration(self, snr_db):
        certified = 0
        for index in range(10):
            const, ch, y, everything, rows = self.enumerate_input(11, index, snr_db)
            bound = _log_outside_bound(everything[rows], everything.size)
            trial = ttdet(y, ch, const.alphabet, CrossConfig(), variant="sweep")
            assert trial.certified == (bound < math.log(LIST_EXIT_TOL)), index
            if trial.certified:
                certified += 1
                oracle = mimo_exact_marginals(y, ch.h, ch.sigma2, const.alphabet)
                error = np.abs(trial.marginals.probs - oracle.probs).max()
                assert error <= min(LIST_EXIT_TOL, math.exp(bound)) + 1e-14, index
        assert certified > 0

    def test_a_list_of_the_whole_space_bounds_nothing_outside(self):
        log_weights = np.linspace(-30.0, 0.0, 16)
        assert _log_outside_bound(log_weights, 16) == -math.inf
        # 2x2 4-QAM at 0 dB: a flat posterior, yet the 16-row list is exact
        const, ch, x, y = desk_channel(np.random.default_rng(79), snr_db=0.0)
        trial = ttdet(y, ch, const.alphabet, CrossConfig())
        oracle = mimo_exact_marginals(y, ch.h, ch.sigma2, const.alphabet)
        assert trial.certified and oracle.probs.max(axis=1).min() < 0.9
        np.testing.assert_allclose(trial.marginals.probs, oracle.probs, rtol=0, atol=1e-12)

    def test_bound_is_summed_in_the_log_domain(self):
        """|A|^N past the float range still gives a finite bound."""
        log_weights = np.array([0.0, -1.0, -2.0])
        got = _log_outside_bound(log_weights, 4**600)
        want = 600 * math.log(4) - 2.0 - math.log(1 + math.exp(-1) + math.exp(-2))
        assert got == pytest.approx(want, rel=1e-14)
