"""Monte Carlo benchmarking harness: error-rate sweeps over SNR grids with
exact-enumeration oracles, an LMMSE baseline, and CSV output.

Every trial derives its own random stream from (master seed, SNR point,
trial index), so results are reproducible for a fixed seed and statistically
identical for any worker count.  All detectors enabled for a sweep consume
the same channel/noise realization of each trial.
"""

from __future__ import annotations

import csv
import io
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .chancode import LinearCode, _half_codebooks, load_code, n0_from_ebn0, ttdec
from .cross import CrossConfig
from .mimo import (
    ChannelRealization,
    QamConstellation,
    noise_variance_for_snr,
    sample_channel,
    ttdet,
)
from .posterior import (
    EnumerationLimitError,
    InferenceFailureError,
    MarginalTable,
    _assignment_digits,
    _check_enumeration,
    _check_observation,
    map_decision,
)

__all__ = [
    "SimConfig",
    "SweepResult",
    "SweepRow",
    "code_exact_bitwise_map",
    "lmmse_detect",
    "mimo_exact_marginals",
    "run_sweep",
]

CSV_HEADER = (
    "detector,snr_db,trials,sym_errors,blk_errors,rate,"
    "mean_rmax,median_rmax,max_rmax,early_stop_rate,wall_ms"
)

# The detectors of each scenario; TT_DETECTORS fixes the order of the cross seeds.
DETECTORS = {"mimo": ("oracle", "sample", "sweep", "lmmse"), "decode": ("oracle", "sample", "sweep")}
TT_DETECTORS = ("sample", "sweep")

# Trials per batch; a sweep point checks its stopping rule after each batch,
# so no more than this many workers are ever busy at once.
BATCH_SIZE = 32

# Largest |grid value| in dB: past about 3000 dB the noise level 10^(-v/10)
# overflows or underflows to zero and a trial fails mid-sweep, while at
# 1000 dB it and its square are still normal floats.
SNR_LIMIT_DB = 1000.0


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo sweep: scenario, model, detectors, stopping rule.

    ``snr_grid`` is the SNR per transmit stream in dB for the MIMO scenario
    (||H~ x~||^2 / (N_T * ||n~||^2)) and Eb/N0 in dB for decoding.  The sweep
    at each grid point stops once the reference detector (the oracle when
    enabled, else the first listed detector) has accumulated
    ``min_block_errors`` block errors, or at ``max_trials``.

    Each sweep setting gets its one default here.  A decode config loads its
    code (``code_path``, a file or a packaged code name) into ``code`` (None
    for MIMO), and a config with an out-of-range field (``workers`` above
    ``BATCH_SIZE`` or grid values past ``SNR_LIMIT_DB`` among them), a
    ``code_path`` that ``load_code`` rejects, an oracle past the enumeration
    limit, or an ``out_path`` and a ``trial_dump`` that name the same file
    raises ValueError.  Every sweep runs ``ttdet`` and ``ttdec`` at their
    defaults: no Taylor init, no rounding of the exact metric, and a
    one-step rank schedule.  Of the cross settings only the rank cap
    ``cross_max_rank`` is a sweep setting; ``cross_config`` gives each
    trial its own seed and leaves the others at ``CrossConfig``'s defaults.
    """

    # perfbench reads these four; ROADMAP items 1 and 2 delete them.
    taylor_p: ClassVar[int] = 0
    taylor_max_rank: ClassVar[int] = 10
    trunc_tol: ClassVar[float] = 0.0
    schedule: ClassVar[tuple[int, ...]] = (10,)

    scenario: str
    snr_grid: tuple[float, ...]
    detectors: tuple[str, ...]
    # MIMO model
    nt_complex: int = 4
    qam: int = 4
    # decoding model
    code_path: str | None = None
    # cross
    cross_max_rank: int = CrossConfig.max_rank
    # run control
    min_block_errors: int = 100
    max_trials: int = 10_000
    master_seed: int = 0
    workers: int = 1
    out_path: str | None = None
    trial_dump: str | None = None
    code: LinearCode | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.scenario not in DETECTORS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if not self.snr_grid:
            raise ValueError("SNR grid must be nonempty")
        if not all(abs(v) <= SNR_LIMIT_DB for v in self.snr_grid):  # False for nan too
            raise ValueError(f"SNR grid values must be finite and within "
                             f"[-{SNR_LIMIT_DB:g}, {SNR_LIMIT_DB:g}] dB, got {list(self.snr_grid)}")
        if not self.detectors:
            raise ValueError("need at least one detector")
        for i, det in enumerate(self.detectors):
            if det not in DETECTORS[self.scenario]:
                raise ValueError(f"detector {det!r} not available for {self.scenario}")
            if det in self.detectors[:i]:
                raise ValueError(f"detector {det!r} is listed more than once")
        if self.scenario == "decode" and self.code_path is None:
            raise ValueError("decoding sweeps need a code file")
        try:
            code = load_code(self.code_path) if self.scenario == "decode" else None
        except ValueError as err:
            raise ValueError(f"{self.code_path!r}: {err}") from None
        object.__setattr__(self, "code", code)
        const = QamConstellation.from_order(self.qam)
        if "oracle" in self.detectors:  # it enumerates 2^k words or |A|^(2 N_T) vectors
            modes, base = (code.k, 2) if code else (2 * self.nt_complex, const.size_real)
            try:
                _check_enumeration(modes, base)
            except EnumerationLimitError as err:
                raise EnumerationLimitError(
                    f"the oracle detector cannot run: {err}; drop it from the detectors") from None
        for name, low in (("master_seed", 0), ("nt_complex", 1), ("cross_max_rank", 1),
                          ("workers", 1), ("min_block_errors", 1), ("max_trials", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        if self.workers > BATCH_SIZE:
            raise ValueError(f"workers must be <= {BATCH_SIZE}, the trials in one batch")
        if (self.out_path and self.trial_dump
                and os.path.realpath(self.out_path) == os.path.realpath(self.trial_dump)):
            raise ValueError(f"out_path and trial_dump name the same file {self.out_path!r}")

    def cross_config(self, seed: int) -> CrossConfig:
        return CrossConfig(max_rank=self.cross_max_rank, rng_seed=seed)


@dataclass
class SweepRow:
    """Aggregated results of one detector at one grid point.

    ``early_stop_rate`` is the share of trials whose call ended early: for
    a decode TT row, the decided word passed the distance test; for a MIMO
    TT row, the sphere list certified the posterior and no cross ran (those
    calls count rank 0).  It is 0 for the oracle and LMMSE rows.
    """

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


# ---------------------------------------------------------------------------
# Exact oracles and the LMMSE baseline
# ---------------------------------------------------------------------------


# Offset and floor of the oracles' log-weights, whose maximum is moved to
# _WEIGHT_OFFSET: exp is slow wherever it underflows, and on [-700, 200]
# every weight is a normal number while 2^20 weights of at most e^200 sum
# without overflow.  A weight at the floor is below e^-900 of the largest,
# far under anything a normalized marginal can hold.
_WEIGHT_OFFSET = 200.0
_WEIGHT_FLOOR = -700.0


def _split_marginals(log_weights: np.ndarray, digits_a: np.ndarray, digits_b: np.ndarray,
                     base: int) -> MarginalTable:
    """Normalized per-mode marginals of a split enumeration: entry (i, j) of
    ``log_weights`` (overwritten) is the unnormalized log-probability of
    the assignment whose first modes take the digits ``digits_a[i]`` and
    whose last modes take ``digits_b[j]``.  A first-half mode bins the row
    sums and a second-half mode the column sums, so each symbol's mass is
    summed on its own."""
    log_weights -= log_weights.max() - _WEIGHT_OFFSET
    weights = np.exp(np.maximum(log_weights, _WEIGHT_FLOOR, out=log_weights), out=log_weights)
    halves = ((digits_a, weights.sum(axis=1)), (digits_b, weights.sum(axis=0)))
    table = np.array([np.bincount(column, weights=mass, minlength=base)
                      for digits, mass in halves for column in digits.T])
    table /= table.sum(axis=1, keepdims=True)
    return MarginalTable(table)


def mimo_exact_marginals(y: np.ndarray, h: np.ndarray, sigma2: float, alphabet) -> MarginalTable:
    """Exact symbol-wise posteriors of y = Hx + n over all |A|^N assignments
    (independent of any TT construction).

    The modes split into the first a = N // 2 and the last N - a, each
    enumerated on its own.  With r = y - H_a x_a and s = H_b x_b,
    ||y - Hx||^2 = ||r||^2 + ||s||^2 - 2 r.s, so the metrics of all
    |A|^a x |A|^(N - a) pairs come from one matrix product.  Raises
    ValueError when y does not match H, sigma2 is not positive, or |A|^N
    exceeds the enumeration limit.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] < 1:
        raise ValueError(f"observation shape {np.shape(y)} does not match channel shape {h.shape}")
    y = _check_observation(y, h.shape[0], f"channel shape {h.shape}")
    if not sigma2 > 0:
        raise ValueError("noise variance must be positive")
    alphabet = np.asarray(alphabet, dtype=np.float64)
    n_modes = h.shape[1]
    _check_enumeration(n_modes, alphabet.size)
    a = n_modes // 2
    digits_a = _assignment_digits(a, alphabet.size)
    digits_b = _assignment_digits(n_modes - a, alphabet.size)
    r = y - alphabet[digits_a] @ h[:, :a].T
    s = alphabet[digits_b] @ h[:, a:].T
    # -||y - Hx||^2 / (2 sigma^2) = (2 r.s - ||r||^2 - ||s||^2) / (2 sigma^2)
    logits = r @ s.T
    logits *= 2.0
    logits -= np.einsum("ij,ij->i", r, r)[:, None]
    logits -= np.einsum("ij,ij->i", s, s)
    logits /= 2.0 * sigma2
    return _split_marginals(logits, digits_a, digits_b, alphabet.size)


def code_exact_bitwise_map(y: np.ndarray, code: LinearCode, n0: float):
    """Exact bit-wise MAP decoding by summing codeword likelihoods.

    Returns (u_hat, marginals) where marginals[i] is P(u_i | y).  The
    information bits split into two halves (``chancode._half_codebooks``):
    word (u_a, u_b) has BPSK codeword x_a * x_b, so the log-likelihoods
    (2 / N0) y.x of all words are the matrix (X_a * (2 / N0) y) X_b^T.
    Raises ValueError when y is not a vector of length n, n0 is not
    positive, or 2^k exceeds the enumeration limit.
    """
    y = _check_observation(y, code.n, f"block length {code.n}")
    if not n0 > 0:
        raise ValueError("noise density must be positive")
    bits_a, x_a, bits_b, x_b = _half_codebooks(code)
    logits = (x_a * ((2.0 / n0) * y)) @ x_b.T
    marginals = _split_marginals(logits, bits_a, bits_b, 2)
    u_hat = map_decision(marginals, np.array([0.0, 1.0])).astype(np.int64)
    return u_hat, marginals


def lmmse_detect(y: np.ndarray, ch: ChannelRealization, alphabet) -> np.ndarray:
    """LMMSE equalization followed by symbol-wise nearest-neighbor slicing:
    x_hat = slice((H^T H + (sigma^2/E_x) I)^-1 H^T y)."""
    y = _check_observation(y, ch.nr, f"channel shape {ch.h.shape}")
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


def _run_trial(args) -> list[tuple]:
    """Run every enabled detector on one realization: one row
    (detector, trial, errors, rmax, early, failed) per detector, in
    ``cfg.detectors`` order, for ``args = (cfg, snr_db, point, trial)``.

    ``SeedSequence((master_seed, point, trial))`` spawns the data stream
    and then one cross seed per ``TT_DETECTORS`` entry, so a detector's
    seed does not depend on which others run.  ``early`` is 1 for a
    ``ttdec`` call whose decided word passed the distance test or a
    ``ttdet`` call that the sphere list certified, else 0; a detector whose
    inference fails counts as failed with every symbol wrong.

    perfbench swaps ``ttdec`` and ``code_exact_bitwise_map`` for timed
    wrappers, and its tracer wraps this function, ``ttdet``, ``ttdec``, both
    oracles and ``lmmse_detect``.  So each is looked up as a module global
    at call time, the decode oracle is called as ``(y, code, n0)``, and
    ``variant=`` is passed to the TT calls as a keyword.
    """
    cfg, snr_db, point, trial = args
    root = np.random.SeedSequence(entropy=(cfg.master_seed, point, trial))
    data_seq, *cross_seqs = root.spawn(1 + len(TT_DETECTORS))
    seeds = {det: int(seq.generate_state(1)[0]) for det, seq in zip(TT_DETECTORS, cross_seqs)}
    rng = np.random.default_rng(data_seq)
    if cfg.scenario == "mimo":
        const = QamConstellation.from_order(cfg.qam)
        h_c = sample_channel(cfg.nt_complex, cfg.nt_complex, rng)
        sigma2 = noise_variance_for_snr(h_c, const.energy_complex, snr_db)
        ch = ChannelRealization.from_complex(h_c, sigma2)
        truth = const.alphabet[rng.integers(0, const.size_real, size=ch.nt)]
        y = ch.h @ truth + np.sqrt(sigma2) * rng.standard_normal(ch.nt)
    else:
        code = cfg.code
        n0 = n0_from_ebn0(snr_db, code.rate)
        truth = rng.integers(0, 2, size=code.k)
        y = 1.0 - 2.0 * code.encode(truth) + np.sqrt(n0 / 2.0) * rng.standard_normal(code.n)
    rows = []
    for det in cfg.detectors:
        rmax = early = 0
        try:
            if det == "oracle" and cfg.scenario == "mimo":
                marg = mimo_exact_marginals(y, ch.h, sigma2, const.alphabet)
                decisions = map_decision(marg, const.alphabet)
            elif det == "oracle":
                decisions = code_exact_bitwise_map(y, code, n0)[0]
            elif det == "lmmse":
                decisions = lmmse_detect(y, ch, const.alphabet)
            elif cfg.scenario == "mimo":
                res = ttdet(y, ch, const.alphabet, cfg.cross_config(seeds[det]), variant=det)
                decisions, rmax, early = res.x_hat, res.max_rank_observed, int(res.certified)
            else:
                res = ttdec(y, code, n0, cfg.schedule, cfg.cross_config(seeds[det]), variant=det)
                decisions, rmax, early = res.u_hat, res.max_rank_observed, int(res.early_stop)
        except InferenceFailureError:
            rows.append((det, trial, truth.size, 0, 0, 1))
        else:
            rows.append((det, trial, int(np.count_nonzero(decisions != truth)), rmax, early, 0))
    return rows


# ---------------------------------------------------------------------------
# Sweep driver
# ---------------------------------------------------------------------------


def run_sweep(cfg: SimConfig, log=None) -> SweepResult:
    """Execute the configured Monte Carlo sweep and (optionally) write CSVs.

    Per grid point, trials run in deterministic batches until the reference
    detector reaches the block-error target or the trial cap; every enabled
    detector sees the same realizations.  Returns the aggregated result;
    writes ``cfg.out_path`` (sweep CSV) and ``cfg.trial_dump`` (per-trial
    CSV) when set.  An output path that cannot be opened for writing raises
    OSError before the first trial; the code and the oracle's enumeration
    limit were checked when ``cfg`` was built.
    """
    for path in (cfg.out_path, cfg.trial_dump):
        if path:
            open(path, "a").close()  # append mode leaves an existing file as it is
    reference = "oracle" if "oracle" in cfg.detectors else cfg.detectors[0]
    symbols_per_trial = 2 * cfg.nt_complex if cfg.scenario == "mimo" else cfg.code.k
    result = SweepResult()
    dump: list[tuple[float, list[tuple]]] = []  # (snr_db, trial rows) per grid point
    # One pool for the whole sweep: starting workers for every batch made
    # workers=2 slower than serial.
    pool = ProcessPoolExecutor(max_workers=cfg.workers) if cfg.workers > 1 else None
    with pool or nullcontext():
        run_jobs = pool.map if pool else map
        for point, snr_db in enumerate(cfg.snr_grid):
            start = time.perf_counter()
            rows: list[tuple] = []  # (detector, trial, errors, rmax, early, failed)
            trials_done = ref_blocks = 0
            while trials_done < cfg.max_trials:
                batch = min(BATCH_SIZE, cfg.max_trials - trials_done)
                jobs = [(cfg, snr_db, point, trials_done + i) for i in range(batch)]
                for records in run_jobs(_run_trial, jobs):
                    rows.extend(records)
                    ref_blocks += sum(det == reference and errors > 0
                                      for det, _, errors, *_ in records)
                trials_done += batch
                if ref_blocks >= cfg.min_block_errors:
                    break
            wall_ms = 1e3 * (time.perf_counter() - start)
            failures = {}
            for det in cfg.detectors:
                errors, ranks, early, failed = np.array(
                    [r[2:] for r in rows if r[0] == det], dtype=np.int64).T
                sym_errors = int(errors.sum())
                result.rows.append(SweepRow(
                    detector=det,
                    snr_db=snr_db,
                    trials=trials_done,
                    sym_errors=sym_errors,
                    blk_errors=int(np.count_nonzero(errors)),
                    rate=sym_errors / (trials_done * symbols_per_trial),
                    mean_rmax=float(ranks.mean()),
                    median_rmax=float(np.median(ranks)),
                    max_rmax=int(ranks.max()),
                    early_stop_rate=int(early.sum()) / trials_done,
                ))
                failures[det] = int(failed.sum())
            result.inference_failures += sum(failures.values())
            if cfg.trial_dump:
                dump.append((snr_db, rows))
            if log is not None:
                failed_tt = "".join(
                    f", {failures[det]} {det} failures" for det in cfg.detectors
                    if det in TT_DETECTORS
                )
                log(
                    f"point {snr_db:g} dB: {trials_done} trials, "
                    f"{ref_blocks} reference block errors{failed_tt}, {wall_ms:.0f} ms"
                )
    if cfg.out_path:
        with open(cfg.out_path, "w", newline="") as fh:
            fh.write(result.to_csv())
    if cfg.trial_dump:
        with open(cfg.trial_dump, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["detector", "snr_db", "trial", "errors", "rmax", "early"])
            for snr_db, rows in dump:
                writer.writerows((det, f"{snr_db:.10g}", trial, errors, rmax, early)
                                 for det, trial, errors, rmax, early, _ in rows)
    return result
