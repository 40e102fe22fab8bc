"""Tests of the Monte Carlo harness: the split-half exact oracles against
brute-force enumeration, their input checks, cached tables and enumeration
limit, the configuration checks (among them the code file, both oracles'
enumeration limit and the SNR bound), the one code load per config, the
detector defaults that every sweep runs at, the per-trial records of
failed inferences and their count in the sweep log, the early flags of
MIMO and decode rows, and the worker-count independence of ``run_sweep``
and its failure on an unwritable output path before any trial runs."""

import inspect
import itertools
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import logsumexp

from ttinfer import (
    ChannelRealization,
    CrossConfig,
    InferenceFailureError,
    QamConstellation,
    SimConfig,
    builtin_code_path,
    chancode,
    code_exact_bitwise_map,
    harness,
    load_code,
    mimo_exact_marginals,
    n0_from_ebn0,
    noise_variance_for_snr,
    posterior,
    run_sweep,
    sample_channel,
    ttdec,
    ttdet,
)


def brute_force_log_marginals(logits, digits, base):
    """ln P(symbol i = v) for every i and v, by log-sum-exp over every
    assignment: row t of ``digits`` is assignment t and ``logits[t]`` its
    unnormalized log-probability."""
    total = logsumexp(logits)
    table = np.full((digits.shape[1], base), -np.inf)
    for i in range(digits.shape[1]):
        for v in range(base):
            mask = digits[:, i] == v
            if mask.any():
                table[i, v] = logsumexp(logits[mask]) - total
    return table


def mimo_brute_force(y, h, sigma2, alphabet):
    digits = np.array(list(itertools.product(range(len(alphabet)), repeat=h.shape[1])))
    resid = y - np.asarray(alphabet)[digits] @ h.T
    return brute_force_log_marginals(-np.sum(resid**2, axis=1) / (2.0 * sigma2), digits,
                                     len(alphabet))


def code_brute_force(y, code, n0):
    words = np.array(list(itertools.product(range(2), repeat=code.k)))
    codebook = 1.0 - 2.0 * ((words @ code.g.T) % 2)
    return brute_force_log_marginals((2.0 / n0) * (codebook @ y), words, 2)


def assert_close_to_brute_force(probs, log_expect):
    """Same decisions, max |dP| <= 1e-12, and |d ln P| <= 1e-9 wherever
    P > 1e-300."""
    expect = np.exp(log_expect)
    np.testing.assert_array_equal(probs.argmax(axis=1), expect.argmax(axis=1))
    assert np.abs(probs - expect).max() <= 1e-12
    live = expect > 1e-300
    assert np.all(probs[live] > 0)
    assert np.abs(np.log(probs[live]) - log_expect[live]).max() <= 1e-9


def random_code(rng, n, k):
    """A random full-rank n x k generator (``d_min`` is left at 1)."""
    while True:
        try:
            return chancode.LinearCode(g=rng.integers(0, 2, size=(n, k)), n=n, k=k, d_min=1)
        except ValueError:
            continue


class TestSplitOracles:
    """The split-half enumerations against a test-local evaluation of every
    assignment."""

    @pytest.mark.parametrize("snr_db", [0.0, 15.0, 30.0])
    def test_mimo_4x4_16qam(self, snr_db):
        const = QamConstellation.from_order(16)
        rng = np.random.default_rng([71, int(snr_db)])
        for _ in range(4):
            h_c = sample_channel(4, 4, rng)
            sigma2 = noise_variance_for_snr(h_c, const.energy_complex, snr_db)
            ch = ChannelRealization.from_complex(h_c, sigma2)
            x = const.alphabet[rng.integers(0, const.size_real, size=ch.nt)]
            y = ch.h @ x + np.sqrt(sigma2) * rng.standard_normal(ch.nt)
            probs = mimo_exact_marginals(y, ch.h, sigma2, const.alphabet).probs
            assert_close_to_brute_force(probs, mimo_brute_force(y, ch.h, sigma2, const.alphabet))

    @pytest.mark.parametrize("shape", [(3, 5), (5, 3), (2, 1), (1, 1), (4, 2)])
    def test_mimo_shapes(self, shape):
        """A wide and a tall H, single modes, and an even split."""
        alphabet = np.array([-3.0, -1.0, 1.0, 3.0])
        rng = np.random.default_rng([72, *shape])
        for sigma2 in (4.0, 0.3, 0.02):
            h = rng.standard_normal(shape)
            y = h @ alphabet[rng.integers(0, 4, size=shape[1])]
            y = y + np.sqrt(sigma2) * rng.standard_normal(shape[0])
            probs = mimo_exact_marginals(y, h, sigma2, alphabet).probs
            assert probs.shape == (shape[1], 4)
            assert_close_to_brute_force(probs, mimo_brute_force(y, h, sigma2, alphabet))

    @pytest.mark.parametrize("name", ["hamming_7_4", "bch_15_7", "bch_31_16"])
    @pytest.mark.parametrize("ebn0", [1.0, 4.0, 8.0])
    def test_packaged_codes(self, name, ebn0):
        """bch_15_7 splits its k = 7 bits unevenly, 3 and 4."""
        code = load_code(builtin_code_path(name))
        n0 = n0_from_ebn0(ebn0, code.rate)
        rng = np.random.default_rng([73, code.k, int(ebn0)])
        for _ in range(3):
            u = rng.integers(0, 2, size=code.k)
            y = 1.0 - 2.0 * code.encode(u) + np.sqrt(n0 / 2.0) * rng.standard_normal(code.n)
            u_hat, marginals = code_exact_bitwise_map(y, code, n0)
            np.testing.assert_array_equal(u_hat, marginals.probs.argmax(axis=1))
            assert_close_to_brute_force(marginals.probs, code_brute_force(y, code, n0))

    @pytest.mark.parametrize("n, k", [(3, 1), (6, 1), (5, 3), (9, 3)])
    def test_random_small_codes(self, n, k):
        rng = np.random.default_rng([74, n, k])
        for _ in range(5):
            code = random_code(rng, n, k)
            n0 = rng.uniform(0.2, 3.0)
            y = 1.0 - 2.0 * code.encode(rng.integers(0, 2, size=k))
            y = y + np.sqrt(n0 / 2.0) * rng.standard_normal(n)
            _, marginals = code_exact_bitwise_map(y, code, n0)
            assert marginals.probs.shape == (k, 2)
            assert_close_to_brute_force(marginals.probs, code_brute_force(y, code, n0))


class TestOracleInputChecks:
    @pytest.mark.parametrize("y, h", [
        pytest.param(np.array([0.3]), np.eye(4), id="short-y"),
        pytest.param(np.zeros(5), np.eye(4), id="long-y"),
        pytest.param(np.zeros((4, 1)), np.eye(4), id="column-y"),
        pytest.param(np.zeros(4), np.ones(4), id="vector-h"),
        pytest.param(np.zeros(4), np.zeros((4, 0)), id="no-modes"),
    ])
    def test_mimo_rejects_mismatched_shapes(self, y, h):
        with pytest.raises(ValueError, match="does not match"):
            mimo_exact_marginals(y, h, 0.5, [-1.0, 1.0])

    @pytest.mark.parametrize("sigma2", [0.0, -0.5, np.nan])
    def test_mimo_rejects_bad_noise_variance(self, sigma2):
        with pytest.raises(ValueError, match="noise variance"):
            mimo_exact_marginals(np.zeros(4), np.eye(4), sigma2, [-1.0, 1.0])

    @pytest.mark.parametrize("y", [np.array([0.3]), np.zeros(6), np.zeros(8), np.zeros((7, 1))],
                             ids=["length-1", "short", "long", "column"])
    def test_code_rejects_wrong_observation_length(self, y):
        code = load_code(builtin_code_path("hamming_7_4"))
        with pytest.raises(ValueError, match="block length"):
            code_exact_bitwise_map(y, code, 1.0)

    @pytest.mark.parametrize("n0", [0.0, -1.0, np.nan])
    def test_code_rejects_bad_noise_density(self, n0):
        code = load_code(builtin_code_path("hamming_7_4"))
        with pytest.raises(ValueError, match="noise density"):
            code_exact_bitwise_map(np.ones(code.n), code, n0)


class TestDecodingOracle:
    def test_near_certain_bits_keep_nonnegative_mass(self):
        # bch_31_16 at Eb/N0 4 dB, the input where total-minus-one-mass gave a
        # zero-bit mass of -2.2e-16 and MarginalTable rejected it.
        code = load_code(builtin_code_path("bch_31_16"))
        n0 = n0_from_ebn0(4.0, code.rate)
        rng = np.random.default_rng(np.random.SeedSequence([704, 3]).spawn(3)[0])
        u = rng.integers(0, 2, size=code.k)
        y = 1.0 - 2.0 * code.encode(u) + np.sqrt(n0 / 2.0) * rng.standard_normal(code.n)
        u_hat, marginals = code_exact_bitwise_map(y, code, n0)
        assert np.all(marginals.probs >= 0.0)
        np.testing.assert_allclose(marginals.probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(u_hat, marginals.probs.argmax(axis=1))

    @pytest.mark.parametrize("name, ebn0", [
        ("bch_31_16", 1.0), ("bch_31_16", 4.0), ("bch_15_7", 1.0), ("bch_15_7", 4.0),
        ("hamming_7_4", 4.0),
    ])
    def test_table_equals_masked_sums(self, name, ebn0):
        """Each bit's two sums against boolean-mask sums over a test-local
        codebook of every word, to the brute-force tolerances."""
        code = load_code(builtin_code_path(name))
        n0 = n0_from_ebn0(ebn0, code.rate)
        bits = np.array(list(itertools.product(range(2), repeat=code.k)))
        codebook = 1.0 - 2.0 * ((bits @ code.g.T) % 2)
        rng = np.random.default_rng([61, code.k, int(ebn0)])
        for _ in range(8):
            u = rng.integers(0, 2, size=code.k)
            y = 1.0 - 2.0 * code.encode(u) + np.sqrt(n0 / 2.0) * rng.standard_normal(code.n)
            logits = (2.0 / n0) * (codebook @ y)
            weights = np.exp(logits - logits.max())
            want = np.empty((code.k, 2))
            for i in range(code.k):
                ones = bits[:, i] == 1
                want[i] = (weights[~ones].sum(), weights[ones].sum())
            want /= want.sum(axis=1, keepdims=True)
            _, marginals = code_exact_bitwise_map(y, code, n0)
            np.testing.assert_array_equal(marginals.probs.argmax(axis=1), want.argmax(axis=1))
            assert np.abs(marginals.probs - want).max() <= 1e-12
            live = want > 1e-300
            assert np.abs(np.log(marginals.probs[live]) - np.log(want[live])).max() <= 1e-9


def single_parity_check_file(tmp_path, k, d_min=2):
    """The (k + 1, k) single-parity-check code, whose minimum distance is 2,
    as a code file stating ``d_min``."""
    rows = [" ".join("1" if j == i else "0" for j in range(k)) for i in range(k)]
    path = tmp_path / f"spc_{k}_{d_min}.txt"
    path.write_text("\n".join([f"{k + 1} {k} {d_min}", *rows, " ".join(["1"] * k)]) + "\n")
    return path


class TestOracleTables:
    def test_tables_are_cached_read_only(self):
        digits = posterior._assignment_digits(3, 4)
        bits = posterior._assignment_digits(5, 2)
        assert posterior._assignment_digits(3, 4) is digits
        assert digits.dtype == bits.dtype == np.uint8
        assert not digits.flags.writeable and not bits.flags.writeable
        with pytest.raises(ValueError):
            digits[0, 0] = 1
        np.testing.assert_array_equal(digits, list(itertools.product(range(4), repeat=3)))
        np.testing.assert_array_equal(bits, list(itertools.product(range(2), repeat=5)))

    def test_half_codebooks_are_cached_read_only(self):
        code = load_code(builtin_code_path("bch_15_7"))
        bits_a, x_a, bits_b, x_b = chancode._half_codebooks(code)
        assert chancode._half_codebooks(load_code(builtin_code_path("bch_15_7")))[1] is x_a
        assert bits_a.shape == (8, 3) and bits_b.shape == (16, 4)
        assert x_a.shape == (8, 15) and x_b.shape == (16, 15)
        assert not x_a.flags.writeable and not x_b.flags.writeable
        for bits, x, cols in ((bits_a, x_a, slice(0, 3)), (bits_b, x_b, slice(3, 7))):
            u = np.zeros((bits.shape[0], code.k), dtype=np.int64)
            u[:, cols] = bits
            np.testing.assert_array_equal(x, 1.0 - 2.0 * ((u @ code.g.T) % 2))

    def test_table_size_is_limited(self, tmp_path):
        """Both oracles and ``load_code`` stop at the enumeration limit,
        2^20 assignments, and work up to it."""
        assert posterior.ASSIGNMENT_LIMIT == 1 << 20
        with pytest.raises(ValueError, match="enumeration limit"):
            posterior._assignment_digits(21, 2)
        four = [-3.0, -1.0, 1.0, 3.0]
        with pytest.raises(ValueError, match="enumeration limit"):
            harness.mimo_exact_marginals(np.zeros(11), np.eye(11), 1.0, four)
        probs = harness.mimo_exact_marginals(np.zeros(10), np.eye(10), 1.0, four).probs
        # y = 0 and H = I make each symbol's posterior symmetric in the alphabet
        np.testing.assert_allclose(probs, probs[:, ::-1], rtol=0, atol=1e-12)
        at_limit = load_code(single_parity_check_file(tmp_path, 20))
        assert at_limit.d_min_verified
        _, marginals = code_exact_bitwise_map(np.ones(21), at_limit, 1.0)
        assert np.all(marginals.probs[:, 0] > 0.5)
        above = load_code(single_parity_check_file(tmp_path, 21))
        assert not above.d_min_verified
        with pytest.raises(ValueError, match="enumeration limit"):
            code_exact_bitwise_map(np.ones(22), above, 1.0)
        with pytest.raises(ValueError, match="enumeration limit"):
            chancode._min_distance(above)
        # a wrong d_min is caught at the limit and trusted above it
        with pytest.raises(ValueError, match="stated d_min 3"):
            load_code(single_parity_check_file(tmp_path, 20, d_min=3))
        assert load_code(single_parity_check_file(tmp_path, 21, d_min=3)).d_min == 3

    def test_repeated_oracle_calls_are_identical(self):
        rng = np.random.default_rng(60)
        h = rng.standard_normal((4, 4))
        alphabet = np.array([-3.0, -1.0, 1.0, 3.0])
        y = h @ alphabet[rng.integers(0, 4, size=4)] + 0.5 * rng.standard_normal(4)
        first = harness.mimo_exact_marginals(y, h, 0.25, alphabet).probs
        assert first.tobytes() == harness.mimo_exact_marginals(y, h, 0.25, alphabet).probs.tobytes()
        code = load_code(builtin_code_path("bch_15_7"))
        y = 1.0 - 2.0 * code.encode(rng.integers(0, 2, size=code.k)) + rng.standard_normal(code.n)
        _, first = code_exact_bitwise_map(y, code, 1.0)
        _, again = code_exact_bitwise_map(y, code, 1.0)
        assert first.probs.tobytes() == again.probs.tobytes()


def hamming_sweep(tmp_path, workers: int, max_trials: int = 6) -> SimConfig:
    return SimConfig(
        scenario="decode",
        snr_grid=(3.0, 4.0),
        detectors=("oracle", "sample", "sweep"),
        code_path=str(builtin_code_path("hamming_7_4")),
        min_block_errors=100,
        max_trials=max_trials,
        master_seed=5,
        workers=workers,
        out_path=str(tmp_path / f"sweep-w{workers}.csv"),
        trial_dump=str(tmp_path / f"trials-w{workers}.csv"),
    )


class TestRunSweep:
    def test_csv_identical_across_worker_counts(self, tmp_path):
        # more than one batch per grid point
        for workers in (1, 2):
            run_sweep(hamming_sweep(tmp_path, workers, max_trials=harness.BATCH_SIZE + 8))
        for stem in ("sweep", "trials"):
            serial = (tmp_path / f"{stem}-w1.csv").read_bytes()
            assert serial == (tmp_path / f"{stem}-w2.csv").read_bytes()

    def test_one_pool_per_sweep(self, tmp_path, monkeypatch):
        built = []

        class CountingPool(harness.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        # 2 grid points x 2 batches each
        run_sweep(hamming_sweep(tmp_path, 2, max_trials=harness.BATCH_SIZE + 8))
        assert len(built) == 1

    def test_log_reports_failed_inferences(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise InferenceFailureError("no usable mass")

        monkeypatch.setattr(harness, "ttdec", fail)
        lines = []
        result = run_sweep(hamming_sweep(tmp_path, 1), log=lines.append)
        assert result.inference_failures == 2 * 2 * 6
        assert len(lines) == 2
        for line in lines:
            assert ", 6 sample failures, 6 sweep failures, " in line

    @pytest.mark.parametrize("field", ["out_path", "trial_dump"])
    def test_unwritable_output_fails_before_any_trial(self, tmp_path, monkeypatch, field):
        monkeypatch.setattr(harness, "_run_trial", lambda args: pytest.fail("trial ran"))
        bad = str(tmp_path / "missing" / "x.csv")
        with pytest.raises(OSError) as exc:
            run_sweep(replace(hamming_sweep(tmp_path, 1), **{field: bad}))
        assert exc.value.filename == bad


class TestSimConfig:
    def test_rejects_repeated_detector(self):
        # a repeated detector would be run, counted and written twice
        with pytest.raises(ValueError, match="detector 'sample' is listed more than once"):
            SimConfig(scenario="decode", snr_grid=(1.0,), detectors=("oracle", "sample", "sample"),
                      code_path=str(builtin_code_path("hamming_7_4")))

    def test_rejects_more_workers_than_a_batch_holds(self, tmp_path, monkeypatch):
        """No more than one batch of trials is ever in flight, and a pool
        starts every worker it is given."""
        monkeypatch.setattr(harness, "ProcessPoolExecutor",
                            lambda *args, **kwargs: pytest.fail("pool started"))
        cfg = hamming_sweep(tmp_path, harness.BATCH_SIZE)
        with pytest.raises(ValueError, match=f"workers must be <= {harness.BATCH_SIZE}"):
            replace(cfg, workers=harness.BATCH_SIZE + 1)

    @pytest.mark.parametrize("dump", ["sweep.csv", "./sweep.csv", "link.csv"])
    def test_rejects_trial_dump_onto_sweep_csv(self, tmp_path, monkeypatch, dump):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "link.csv").symlink_to(tmp_path / "sweep.csv")
        with pytest.raises(ValueError, match="out_path and trial_dump name the same file"):
            replace(hamming_sweep(tmp_path, 1), out_path="sweep.csv", trial_dump=dump)

    def test_rejects_decode_oracle_past_enumeration_limit(self):
        with pytest.raises(posterior.EnumerationLimitError,
                           match="the oracle detector cannot run: 1073741824 assignments"):
            SimConfig(scenario="decode", snr_grid=(4.0,), detectors=("oracle", "sweep"),
                      code_path=str(builtin_code_path("bch_63_30")))

    def test_rejects_malformed_code_file(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("garbage\n")
        with pytest.raises(ValueError, match=re.escape(f"{str(bad)!r}: malformed header 'garbage'")):
            SimConfig(scenario="decode", snr_grid=(4.0,), detectors=("sample",),
                      code_path=str(bad))

    @pytest.mark.parametrize("content, message", [
        (None, "neither a file nor a packaged code"),
        ("", "empty code file"),
        ("garbage\n", "malformed header 'garbage'"),
        ("nosuch", "neither a file nor a packaged code (bch_15_7, "),
        # a header needs three integers n >= k >= 1
        *((f"{header}\n", f"malformed header {header!r}; expected 'n k d_min'")
          for header in ("7 4 x", "-1 4 3", "0 0 1", "4 7 3")),
    ], ids=["missing", "empty", "malformed", "unknown-name",
            "header-not-int", "header-negative-n", "header-zero-k", "header-k-above-n"])
    def test_code_errors_name_the_path_once(self, tmp_path, content, message):
        """``SimConfig``'s prefix is the one place that names the path."""
        code_path = str(tmp_path / "code.txt")
        if content == "nosuch":
            code_path = content
        elif content is not None:
            (tmp_path / "code.txt").write_text(content)
        with pytest.raises(ValueError, match=re.escape(f"{code_path!r}: {message}")) as exc:
            SimConfig(scenario="decode", snr_grid=(4.0,), detectors=("sample",),
                      code_path=code_path)
        assert str(exc.value).count(code_path) == 1

    def test_cross_config_sets_the_rank_cap_and_seed(self):
        cfg = SimConfig(scenario="mimo", snr_grid=(4.0,), detectors=("sweep",), cross_max_rank=7)
        assert cfg.cross_config(11) == CrossConfig(max_rank=7, rng_seed=11)
        with pytest.raises(ValueError, match="cross_max_rank must be >= 1"):
            replace(cfg, cross_max_rank=0)

    @pytest.mark.parametrize("scenario", ["mimo", "decode"])
    def test_rejects_grid_values_past_the_snr_limit(self, scenario):
        """Past about 3000 dB the noise level leaves the float range; the
        limit itself is a valid grid value."""
        limit = harness.SNR_LIMIT_DB
        cfg = SimConfig(scenario=scenario, snr_grid=(-limit, limit), detectors=("sample",),
                        code_path=str(builtin_code_path("hamming_7_4")))
        for value in (limit + 0.5, -limit - 0.5):
            with pytest.raises(ValueError, match="SNR grid values must be finite and within"):
                replace(cfg, snr_grid=(0.0, value))

    def test_code_is_loaded_once_when_the_config_is_built(self, tmp_path, monkeypatch):
        """``SimConfig`` loads the code, ``run_sweep`` and its trials read
        ``cfg.code``, and ``replace`` loads it again for the new config."""
        calls = []

        def counting_load(path):
            calls.append(path)
            return load_code(path)

        monkeypatch.setattr(harness, "load_code", counting_load)
        cfg = hamming_sweep(tmp_path, 1, max_trials=2)
        assert len(calls) == 1 and cfg.code.k == 4
        run_sweep(cfg)
        assert len(calls) == 1
        again = replace(cfg, workers=2)
        assert len(calls) == 2 and again.code.k == 4
        mimo = SimConfig(scenario="mimo", snr_grid=(4.0,), detectors=("sample",))
        assert mimo.code is None and len(calls) == 2

    def test_sweeps_run_the_detectors_at_their_defaults(self):
        """perfbench passes these constants to ttdet and ttdec, so it
        measures the calls that a sweep makes."""
        for detector, names in ((ttdet, ("taylor_p", "taylor_max_rank", "trunc_tol")),
                                (ttdec, ("taylor_p", "trunc_tol"))):
            params = inspect.signature(detector).parameters
            for name in names:
                assert getattr(SimConfig, name) == params[name].default, (detector, name)
        assert SimConfig.schedule == (10,)


class TestTrialRecords:
    @pytest.mark.parametrize("scenario", ["mimo", "decode"])
    def test_failed_inference_counts_every_symbol_wrong(self, monkeypatch, scenario):
        def fail(*args, **kwargs):
            raise InferenceFailureError("no usable mass")

        monkeypatch.setattr(harness, "ttdet" if scenario == "mimo" else "ttdec", fail)
        cfg = SimConfig(
            scenario=scenario,
            snr_grid=(4.0,),
            detectors=("oracle", "sample"),
            nt_complex=2,
            code_path=str(builtin_code_path("hamming_7_4")),
        )
        oracle, sample = harness._run_trial((cfg, 4.0, 0, 3))
        symbols = 4 if scenario == "mimo" else cfg.code.k
        # (detector, trial, errors, rmax, early, failed)
        assert sample == ("sample", 3, symbols, 0, 0, 1)
        assert oracle[:2] == ("oracle", 3) and oracle[5] == 0


    @pytest.mark.parametrize("qam,snr_db,certified", [(4, 10.0, True), (16, 5.0, False)])
    def test_mimo_rows_report_certified_calls_as_early(self, qam, snr_db, certified):
        """A MIMO TT row's ``early`` is 1 when the sphere list certified the
        call, whose rank is then 0; 2x2 4-QAM has no hypothesis outside the
        list, and 2x2 16-QAM at 5 dB keeps mass outside it."""
        cfg = SimConfig(scenario="mimo", snr_grid=(snr_db,), detectors=("oracle", "sample", "sweep"),
                        nt_complex=2, qam=qam)
        for trial in range(3):
            for det, _, _, rmax, early, failed in harness._run_trial((cfg, snr_db, 0, trial)):
                if det != "oracle":
                    assert (early, rmax == 0, failed) == (int(certified), certified, 0), trial

    def test_decode_rows_report_early_stops(self, monkeypatch):
        """A decode TT row's ``early`` is the ``early_stop`` of its ``ttdec``
        call on the same trial; ``hamming_7_4`` at 3-4 dB stops early on
        some trials and not on others."""
        calls = []

        def spy(*args, **kwargs):
            calls.append(ttdec(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(harness, "ttdec", spy)
        cfg = SimConfig(scenario="decode", snr_grid=(3.0, 4.0),
                        detectors=("oracle", "sample", "sweep"), code_path="hamming_7_4",
                        master_seed=11)
        early_seen = set()
        for point, snr_db in enumerate(cfg.snr_grid):
            for trial in range(8):
                calls.clear()
                tt_rows = harness._run_trial((cfg, snr_db, point, trial))[1:]
                assert [row[3:] for row in tt_rows] == [
                    (res.max_rank_observed, int(res.early_stop), 0) for res in calls], trial
                early_seen.update(row[4] for row in tt_rows)
        assert early_seen == {0, 1}
