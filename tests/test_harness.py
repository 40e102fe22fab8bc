"""Tests of the Monte Carlo harness: the exact oracles and their cached
enumeration tables, the configuration checks, the per-trial records of
failed inferences and their count in the sweep log, the realized-SNR noise
scaling, and the worker-count independence of ``run_sweep`` and its
failure on an unwritable output path before any trial runs."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from ttinfer import (
    InferenceFailureError,
    SimConfig,
    builtin_code_path,
    code_exact_bitwise_map,
    harness,
    load_code,
    n0_from_ebn0,
    posterior,
    run_sweep,
)


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
        """Each bit's two sums run over the same weights in the same order
        as boolean masks would select them, so the table is byte-equal."""
        code = load_code(builtin_code_path(name))
        n0 = n0_from_ebn0(ebn0, code.rate)
        bits = posterior._assignment_digits(code.k, 2)[:, ::-1]
        rng = np.random.default_rng([61, code.k, int(ebn0)])
        for _ in range(8):
            u = rng.integers(0, 2, size=code.k)
            y = 1.0 - 2.0 * code.encode(u) + np.sqrt(n0 / 2.0) * rng.standard_normal(code.n)
            logits = (2.0 / n0) * (code.bpsk_codebook() @ y)
            weights = np.exp(logits - logits.max())
            want = np.empty((code.k, 2))
            for i in range(code.k):
                ones = bits[:, i] == 1
                want[i] = (weights[~ones].sum(), weights[ones].sum())
            want /= want.sum(axis=1, keepdims=True)
            _, marginals = code_exact_bitwise_map(y, code, n0)
            assert marginals.probs.tobytes() == want.tobytes()


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

    def test_table_size_is_limited(self):
        assert posterior._assignment_digits(20, 2).shape == (1 << 20, 20)
        with pytest.raises(ValueError, match="enumeration limit"):
            posterior._assignment_digits(21, 2)
        with pytest.raises(ValueError, match="enumeration limit"):
            harness.mimo_exact_marginals(np.zeros(11), np.eye(11), 1.0, [-3.0, -1.0, 1.0, 3.0])

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


def hamming_sweep(tmp_path, workers: int) -> SimConfig:
    return SimConfig(
        scenario="decode",
        snr_grid=(3.0, 4.0),
        detectors=("oracle", "sample", "sweep"),
        code_path=str(builtin_code_path("hamming_7_4")),
        min_block_errors=100,
        max_trials=6,
        batch_size=4,
        master_seed=5,
        workers=workers,
        out_path=str(tmp_path / f"sweep-w{workers}.csv"),
        trial_dump=str(tmp_path / f"trials-w{workers}.csv"),
    )


class TestRunSweep:
    def test_csv_identical_across_worker_counts(self, tmp_path):
        for workers in (1, 2):
            run_sweep(hamming_sweep(tmp_path, workers))
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
        run_sweep(hamming_sweep(tmp_path, 2))
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
    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_rejects_empty_batches(self, batch_size):
        # a batch of no trials would never advance the sweep
        with pytest.raises(ValueError):
            SimConfig(scenario="mimo", snr_grid=(10.0,), detectors=("sample",),
                      batch_size=batch_size)


class TestTrialRecords:
    @pytest.mark.parametrize("scenario", ["mimo", "decode"])
    def test_failed_inference_counts_every_symbol_wrong(self, monkeypatch, scenario):
        def fail(*args, **kwargs):
            raise InferenceFailureError("no usable mass")

        monkeypatch.setattr(harness, "ttdet" if scenario == "mimo" else "ttdec", fail)
        code = load_code(builtin_code_path("hamming_7_4")) if scenario == "decode" else None
        cfg = SimConfig(
            scenario=scenario,
            snr_grid=(4.0,),
            detectors=("oracle", "sample"),
            nt_complex=2,
            code_path=str(builtin_code_path("hamming_7_4")),
        )
        rec = harness._run_trial((cfg, code, 4.0, 0, 3))
        symbols = 4 if scenario == "mimo" else code.k
        assert rec["trial"] == 3
        assert rec["sample"] == {"errors": symbols, "block": 1, "rmax": 0, "early": 0, "failed": 1}
        assert rec["oracle"]["failed"] == 0


class TestRealizedSnr:
    @pytest.mark.parametrize("snr_db", [0.0, 12.5])
    def test_noise_hits_the_realized_snr(self, monkeypatch, snr_db):
        seen = []

        def capture(y, ch, alphabet):
            seen.append((y, ch.h))
            return np.zeros(ch.nt)

        truths = []
        score = harness._trial_records

        def records(cfg, trial, truth, detect):
            truths.append(truth)
            return score(cfg, trial, truth, detect)

        monkeypatch.setattr(harness, "lmmse_detect", capture)
        monkeypatch.setattr(harness, "_trial_records", records)
        cfg = SimConfig(scenario="mimo", snr_grid=(snr_db,), detectors=("lmmse",),
                        nt_complex=3, qam=16, realized_snr=True)
        for trial in range(4):
            harness._mimo_trial(cfg, snr_db, 0, trial)
        assert len(seen) == len(truths) == 4
        for (y, h), x in zip(seen, truths):
            signal = h @ x
            noise = y - signal
            ratio = np.dot(signal, signal) / (cfg.nt_complex * np.dot(noise, noise))
            assert ratio == pytest.approx(10.0 ** (snr_db / 10.0), rel=1e-12, abs=0)
