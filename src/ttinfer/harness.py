"""Monte Carlo benchmarking harness: error-rate sweeps over SNR grids with
exact-enumeration oracles, an LMMSE baseline, rank statistics, and CSV output.

Every trial derives its own random stream from (master seed, SNR point,
trial index), so results are reproducible for a fixed seed and statistically
identical for any worker count.  All detectors enabled for a sweep consume
the same channel/noise realization of each trial.
"""

from __future__ import annotations

import csv
import io
import math
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .chancode import LinearCode, _all_information_words, _rank_schedule, load_code, n0_from_ebn0, ttdec
from .cross import CrossConfig
from .mimo import (
    ChannelRealization,
    QamConstellation,
    noise_variance_for_snr,
    realify_channel,
    sample_channel,
    ttdet,
)
from .posterior import (
    InferenceFailureError,
    MarginalTable,
    map_decision,
)

__all__ = [
    "RankStats",
    "SimConfig",
    "SweepResult",
    "SweepRow",
    "code_exact_bitwise_map",
    "lmmse_detect",
    "mimo_exact_marginals",
    "rank_stats",
    "run_sweep",
]

CSV_HEADER = (
    "detector,snr_db,trials,sym_errors,blk_errors,rate,"
    "mean_rmax,median_rmax,max_rmax,early_stop_rate,wall_ms"
)

ORACLE_ASSIGNMENT_LIMIT = 1 << 20

MIMO_DETECTORS = ("oracle", "sample", "sweep", "lmmse")
DECODE_DETECTORS = ("oracle", "sample", "sweep")
TT_DETECTORS = ("sample", "sweep")


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo sweep: scenario, model, detectors, stopping rule.

    ``snr_grid`` is the SNR per transmit stream in dB for the MIMO scenario
    (||H~ x~||^2 / (N_T * ||n~||^2)) and Eb/N0 in dB for decoding.  The sweep
    at each grid point stops once the reference detector (the oracle when
    enabled, else the first listed detector) has accumulated
    ``min_block_errors`` block errors, or at ``max_trials``.

    Each sweep setting gets its one default here, and building a config
    with an out-of-range field raises ValueError.  ``cross`` holds the
    cross settings; ``cross_config`` gives each trial its own seed.
    """

    scenario: str
    snr_grid: tuple[float, ...]
    detectors: tuple[str, ...]
    # MIMO model
    nt_complex: int = 4
    qam: int = 4
    taylor_max_rank: int = 10
    realized_snr: bool = False
    # decoding model
    code_path: str | None = None
    schedule: tuple[int, ...] = (10,)
    # shared pipeline knobs
    taylor_p: int = 0
    trunc_tol: float = 0.0
    cross: CrossConfig = CrossConfig()
    # run control
    min_block_errors: int = 100
    max_trials: int = 10_000
    master_seed: int = 0
    workers: int = 1
    batch_size: int = 32
    out_path: str | None = None
    trial_dump: str | None = None

    def __post_init__(self):
        if self.scenario not in ("mimo", "decode"):
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if not self.snr_grid:
            raise ValueError("SNR grid must be nonempty")
        if not all(math.isfinite(v) for v in self.snr_grid):
            raise ValueError(f"SNR grid values must be finite, got {list(self.snr_grid)}")
        if not self.detectors:
            raise ValueError("need at least one detector")
        allowed = MIMO_DETECTORS if self.scenario == "mimo" else DECODE_DETECTORS
        for det in self.detectors:
            if det not in allowed:
                raise ValueError(f"detector {det!r} not available for {self.scenario}")
        if self.scenario == "decode" and self.code_path is None:
            raise ValueError("decoding sweeps need a code file")
        QamConstellation.from_order(self.qam)
        _rank_schedule(self.schedule)
        if not self.trunc_tol >= 0:
            raise ValueError("trunc_tol must be >= 0")
        for name, low in (("taylor_p", 0), ("master_seed", 0), ("taylor_max_rank", 1),
                          ("nt_complex", 1), ("workers", 1), ("min_block_errors", 1),
                          ("max_trials", 1), ("batch_size", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")

    def cross_config(self, seed: int) -> CrossConfig:
        return replace(self.cross, rng_seed=seed)


@dataclass
class SweepRow:
    """Aggregated results of one detector at one grid point."""

    detector: str
    snr_db: float
    trials: int
    sym_errors: int
    blk_errors: int
    rate: float
    mean_rmax: float
    median_rmax: float
    max_rmax: int
    early_stop_rate: float
    wall_ms: float


@dataclass
class SweepResult:
    rows: list[SweepRow] = field(default_factory=list)
    inference_failures: int = 0

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        for r in self.rows:
            # wall time is interactive telemetry, not part of the
            # reproducible record; the column stays 0 so that fixed-seed
            # runs emit byte-identical files.
            buf.write(
                f"{r.detector},{r.snr_db:.10g},{r.trials},{r.sym_errors},{r.blk_errors},"
                f"{r.rate:.10g},{r.mean_rmax:.10g},{r.median_rmax:.10g},{r.max_rmax},"
                f"{r.early_stop_rate:.10g},0\n"
            )
        return buf.getvalue()


@dataclass(frozen=True)
class RankStats:
    histogram: dict[int, int]
    mean: float
    median: float


def rank_stats(records) -> RankStats:
    """Integer-binned histogram plus exact mean/median of observed ranks."""
    values = np.asarray(list(records), dtype=np.int64)
    if values.size == 0:
        raise ValueError("need at least one record")
    uniq, counts = np.unique(values, return_counts=True)
    hist = {int(v): int(c) for v, c in zip(uniq, counts)}
    return RankStats(histogram=hist, mean=float(values.mean()), median=float(np.median(values)))


# ---------------------------------------------------------------------------
# Exact oracles and the LMMSE baseline
# ---------------------------------------------------------------------------


# The enumeration tables depend only on the problem size: built once, shared read-only.
@lru_cache(maxsize=4)
def _assignment_digits(n_modes: int, base: int) -> np.ndarray:
    total = base**n_modes
    if total > ORACLE_ASSIGNMENT_LIMIT:
        raise ValueError(f"{total} assignments exceed the oracle limit {ORACLE_ASSIGNMENT_LIMIT}")
    idx = np.arange(total)
    powers = base ** np.arange(n_modes - 1, -1, -1)
    digits = (idx[:, None] // powers[None, :]) % base
    digits.flags.writeable = False
    return digits


def mimo_exact_marginals(y: np.ndarray, h: np.ndarray, sigma2: float, alphabet) -> MarginalTable:
    """Exact symbol-wise posteriors of y = Hx + n by direct enumeration of
    all |A|^{N_T} assignments (independent of any TT construction)."""
    alphabet = np.asarray(alphabet, dtype=np.float64)
    n_modes = h.shape[1]
    digits = _assignment_digits(n_modes, alphabet.size)
    x_all = alphabet[digits]
    resid = y[None, :] - x_all @ h.T
    logits = -np.einsum("ij,ij->i", resid, resid) / (2.0 * sigma2)
    weights = np.exp(logits - logits.max())
    table = np.empty((n_modes, alphabet.size))
    for mode in range(n_modes):
        table[mode] = np.bincount(digits[:, mode], weights=weights, minlength=alphabet.size)
    table /= table.sum(axis=1, keepdims=True)
    return MarginalTable(table)


def code_exact_bitwise_map(y: np.ndarray, code: LinearCode, n0: float):
    """Exact bit-wise MAP decoding by summing codeword likelihoods.

    Returns (u_hat, marginals) where marginals[i] is P(u_i | y).  Requires
    k small enough to enumerate the 2^k codewords.
    """
    codebook = code.bpsk_codebook()
    logits = (2.0 / n0) * (codebook @ np.asarray(y, dtype=np.float64))
    weights = np.exp(logits - logits.max())
    bits = _all_information_words(code.k)
    table = np.empty((code.k, 2))
    for i in range(code.k):
        ones = bits[:, i] == 1
        table[i] = (weights[~ones].sum(), weights[ones].sum())
    table /= table.sum(axis=1, keepdims=True)
    marginals = MarginalTable(table)
    u_hat = map_decision(marginals, np.array([0.0, 1.0])).astype(np.int64)
    return u_hat, marginals


def lmmse_detect(y: np.ndarray, ch: ChannelRealization, alphabet) -> np.ndarray:
    """LMMSE equalization followed by symbol-wise nearest-neighbor slicing:
    x_hat = slice((H^T H + (sigma^2/E_x) I)^-1 H^T y)."""
    alphabet = np.asarray(alphabet, dtype=np.float64)
    energy = float(np.mean(alphabet**2))
    gram = ch.h.T @ ch.h + (ch.sigma2 / energy) * np.eye(ch.nt)
    try:
        est = np.linalg.solve(gram, ch.h.T @ y)
    except np.linalg.LinAlgError:
        est = np.linalg.solve(gram + 1e-12 * np.eye(ch.nt), ch.h.T @ y)
    nearest = np.argmin(np.abs(est[:, None] - alphabet[None, :]), axis=1)
    return alphabet[nearest]


# ---------------------------------------------------------------------------
# Per-trial execution
# ---------------------------------------------------------------------------


def _trial_streams(master_seed: int, point: int, trial: int):
    root = np.random.SeedSequence(entropy=(master_seed, point, trial))
    data_seq, sample_seq, sweep_seq = root.spawn(3)
    rng = np.random.default_rng(data_seq)
    seeds = {
        "sample": int(sample_seq.generate_state(1)[0]),
        "sweep": int(sweep_seq.generate_state(1)[0]),
    }
    return rng, seeds


def _trial_records(cfg: SimConfig, trial: int, truth: np.ndarray, detect) -> dict:
    """Score every enabled detector on one trial.  ``detect(det)`` returns
    (decisions, max rank, early stop); a detector whose inference fails
    counts as failed with every symbol wrong."""
    out: dict = {"trial": trial}
    for det in cfg.detectors:
        try:
            decisions, rmax, early = detect(det)
            errors = int(np.count_nonzero(decisions != truth))
            out[det] = {"errors": errors, "block": int(errors > 0), "rmax": rmax,
                        "early": early, "failed": 0}
        except InferenceFailureError:
            out[det] = {"errors": truth.size, "block": 1, "rmax": 0, "early": 0, "failed": 1}
    return out


def _mimo_trial(cfg: SimConfig, snr_db: float, point: int, trial: int) -> dict:
    const = QamConstellation.from_order(cfg.qam)
    rng, seeds = _trial_streams(cfg.master_seed, point, trial)
    h_c = sample_channel(cfg.nt_complex, cfg.nt_complex, rng)
    sigma2 = noise_variance_for_snr(h_c, const.energy_complex, snr_db)
    n_t = 2 * cfg.nt_complex
    x = const.alphabet[rng.integers(0, const.size_real, size=n_t)]
    noise = np.sqrt(sigma2) * rng.standard_normal(n_t)
    h = realify_channel(h_c)
    signal = h @ x
    if cfg.realized_snr:
        target = np.dot(signal, signal) * 10.0 ** (-snr_db / 10.0) / cfg.nt_complex
        noise *= np.sqrt(target / np.dot(noise, noise))
    y = signal + noise
    ch = ChannelRealization(h=h, sigma2=sigma2, nt_complex=cfg.nt_complex, nr_complex=cfg.nt_complex)

    def detect(det):
        if det == "oracle":
            marg = mimo_exact_marginals(y, h, sigma2, const.alphabet)
            return map_decision(marg, const.alphabet), 0, 0
        if det == "lmmse":
            return lmmse_detect(y, ch, const.alphabet), 0, 0
        res = ttdet(
            y,
            ch,
            const.alphabet,
            cfg.cross_config(seeds[det]),
            taylor_p=cfg.taylor_p,
            taylor_max_rank=cfg.taylor_max_rank,
            variant=det,
            trunc_tol=cfg.trunc_tol,
        )
        return res.x_hat, res.max_rank_observed, 0

    return _trial_records(cfg, trial, x, detect)


def _decode_trial(cfg: SimConfig, code: LinearCode, ebn0_db: float, point: int, trial: int) -> dict:
    n0 = n0_from_ebn0(ebn0_db, code.rate)
    rng, seeds = _trial_streams(cfg.master_seed, point, trial)
    u = rng.integers(0, 2, size=code.k)
    x = 1.0 - 2.0 * code.encode(u)
    y = x + np.sqrt(n0 / 2.0) * rng.standard_normal(code.n)

    def detect(det):
        if det == "oracle":
            return code_exact_bitwise_map(y, code, n0)[0], 0, 0
        res = ttdec(
            y,
            code,
            n0,
            cfg.schedule,
            cfg.cross_config(seeds[det]),
            taylor_p=cfg.taylor_p,
            variant=det,
            trunc_tol=cfg.trunc_tol,
        )
        return res.u_hat, res.max_rank_observed, int(res.early_stop)

    return _trial_records(cfg, trial, u, detect)


def _run_trial(args):
    cfg, code, snr_db, point, trial = args
    if cfg.scenario == "mimo":
        return _mimo_trial(cfg, snr_db, point, trial)
    return _decode_trial(cfg, code, snr_db, point, trial)


# ---------------------------------------------------------------------------
# Sweep driver
# ---------------------------------------------------------------------------


def run_sweep(cfg: SimConfig, log=None) -> SweepResult:
    """Execute the configured Monte Carlo sweep and (optionally) write CSVs.

    Per grid point, trials run in deterministic batches until the reference
    detector reaches the block-error target or the trial cap; every enabled
    detector sees the same realizations.  Returns the aggregated result;
    writes ``cfg.out_path`` (sweep CSV) and ``cfg.trial_dump`` (per-trial
    CSV) when set.
    """
    code = load_code(cfg.code_path) if cfg.scenario == "decode" else None
    reference = "oracle" if "oracle" in cfg.detectors else cfg.detectors[0]
    symbols_per_trial = 2 * cfg.nt_complex if cfg.scenario == "mimo" else (code.k if code else 0)
    result = SweepResult()
    dump_rows: list[tuple] = []
    # One pool for the whole sweep: starting workers for every batch made
    # workers=2 slower than serial.
    pool = ProcessPoolExecutor(max_workers=cfg.workers) if cfg.workers > 1 else None
    with pool or nullcontext():
        run_jobs = pool.map if pool else map
        for point, snr_db in enumerate(cfg.snr_grid):
            start = time.perf_counter()
            agg = {
                det: {"errors": 0, "blocks": 0, "early": 0, "failed": 0, "rmax": []}
                for det in cfg.detectors
            }
            trials_done = 0
            while trials_done < cfg.max_trials:
                batch = min(cfg.batch_size, cfg.max_trials - trials_done)
                jobs = [(cfg, code, snr_db, point, trials_done + i) for i in range(batch)]
                records = list(run_jobs(_run_trial, jobs))
                for rec in records:
                    for det in cfg.detectors:
                        r = rec[det]
                        agg[det]["errors"] += r["errors"]
                        agg[det]["blocks"] += r["block"]
                        agg[det]["early"] += r["early"]
                        agg[det]["failed"] += r["failed"]
                        agg[det]["rmax"].append(r["rmax"])
                        if cfg.trial_dump:
                            dump_rows.append(
                                (det, snr_db, rec["trial"], r["errors"], r["rmax"], r["early"])
                            )
                trials_done += batch
                if agg[reference]["blocks"] >= cfg.min_block_errors:
                    break
            wall_ms = 1e3 * (time.perf_counter() - start)
            for det in cfg.detectors:
                ranks = np.asarray(agg[det]["rmax"], dtype=np.int64)
                tt_based = det in TT_DETECTORS
                row = SweepRow(
                    detector=det,
                    snr_db=snr_db,
                    trials=trials_done,
                    sym_errors=agg[det]["errors"],
                    blk_errors=agg[det]["blocks"],
                    rate=agg[det]["errors"] / (trials_done * symbols_per_trial),
                    mean_rmax=float(ranks.mean()) if tt_based else 0.0,
                    median_rmax=float(np.median(ranks)) if tt_based else 0.0,
                    max_rmax=int(ranks.max()) if tt_based else 0,
                    early_stop_rate=agg[det]["early"] / trials_done,
                    wall_ms=wall_ms,
                )
                result.rows.append(row)
                result.inference_failures += agg[det]["failed"]
            if log is not None:
                failures = "".join(
                    f", {agg[det]['failed']} {det} failures" for det in cfg.detectors
                    if det in TT_DETECTORS
                )
                log(
                    f"point {snr_db:g} dB: {trials_done} trials, "
                    f"{agg[reference]['blocks']} reference block errors{failures}, {wall_ms:.0f} ms"
                )
    if cfg.out_path:
        with open(cfg.out_path, "w", newline="") as fh:
            fh.write(result.to_csv())
    if cfg.trial_dump:
        with open(cfg.trial_dump, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["detector", "snr_db", "trial", "errors", "rmax", "early"])
            for row in dump_rows:
                writer.writerow([row[0], f"{row[1]:.10g}", *row[2:]])
    return result
