"""Workloads of the ttinfer benchmark.

Every workload makes its inputs from the benchmark seed with the public
ttinfer API, drives the public inference functions from one process in a
closed loop (the next trial starts when the previous one ends), times every
TT call and checks every decision.  Pipeline settings come from
``SimConfig``'s defaults, the same ones the command-line tool uses, and BLAS
threading is left at the library default.

* ``mimo16_15db``: 4x4 MIMO, 16-QAM, 15 dB.  Per trial: LMMSE, the exact
  oracle and ``ttdet`` with each cross variant, all on one realization.
* ``bch31_4db``: ``bch_31_16`` at Eb/N0 = 4 dB.  Per trial: the exact
  bit-wise MAP oracle and ``ttdec`` with each cross variant.
* ``short_codes_sweep``: ``run_sweep`` over ``hamming_7_4`` and ``bch_15_7``
  at workers=1 in this process, where each TT call is timed and checked;
  after the window, the first unit runs again at workers=2 and must give the
  same CSV.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from ttinfer import (
    ChannelRealization,
    QamConstellation,
    SimConfig,
    builtin_code_path,
    code_exact_bitwise_map,
    harness,
    lmmse_detect,
    load_code,
    map_decision,
    mimo_exact_marginals,
    n0_from_ebn0,
    noise_variance_for_snr,
    realify_channel,
    run_sweep,
    sample_channel,
    ttdec,
    ttdet,
)

from tracing import Tracer, swapped

VARIANTS = ("sample", "sweep")
BITS = np.array([0, 1])

# The set-up warm-up trial uses this fixed input whatever --seed is, so that
# set-up time does not depend on the seed.
WARMUP_SEED = 0x5E7


def no_span(name):
    return nullcontext()


def trial_streams(seed: int, index: int):
    """The data generator of one trial and a cross seed per variant."""
    data, *cross = np.random.SeedSequence([seed, index]).spawn(1 + len(VARIANTS))
    seeds = {v: int(s.generate_state(1)[0]) for v, s in zip(VARIANTS, cross)}
    return np.random.default_rng(data), seeds


def check_decisions(decisions, length: int, alphabet) -> str | None:
    """Why ``decisions`` is not a hard-decision vector of ``length`` symbols
    from ``alphabet``, or None when it is one."""
    d = np.asarray(decisions)
    if d.shape != (length,):
        return f"decision shape {d.shape}, expected ({length},)"
    if not np.all(np.isin(d, alphabet)):
        return f"decision {d.tolist()} leaves the alphabet {np.asarray(alphabet).tolist()}"
    return None


@dataclass
class Tally:
    """Detector-call outcomes of one pass.

    ``calls`` and ``failures`` count calls per detector ("lmmse", "oracle" or
    a cross variant).  A failed call is one that raised or returned a
    decision that fails the check; it adds to no latency or quality figure.
    """

    seconds: dict = field(default_factory=lambda: {v: [] for v in VARIANTS})
    errors: dict = field(default_factory=lambda: dict.fromkeys(VARIANTS, 0))
    symbols: dict = field(default_factory=lambda: dict.fromkeys(VARIANTS, 0))
    disagree: dict = field(default_factory=lambda: dict.fromkeys(VARIANTS, 0))
    compared: dict = field(default_factory=lambda: dict.fromkeys(VARIANTS, 0))
    early_stops: list = field(default_factory=list)
    steps_run: list = field(default_factory=list)
    calls: Counter = field(default_factory=Counter)
    failures: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(self.calls.values())

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @contextmanager
    def counted(self, detector: str):
        """Count one call of ``detector``, and count it failed if it raises."""
        self.calls[detector] += 1
        try:
            yield
        except Exception:
            self.failures[detector] += 1
            raise

    def attempt(self, detector: str, within, call):
        """Run ``call()`` inside the context ``within`` as one counted call of
        ``detector``.  Returns its output and seconds, or (None, None) when it
        raised: the call counts as failed and the run goes on."""
        start = time.perf_counter()
        try:
            with self.counted(detector), within:
                out = call()
        except Exception as err:
            print(f"perfbench: {detector} raised {type(err).__name__}: {err}", file=sys.stderr)
            return None, None
        return out, time.perf_counter() - start

    def check(self, detector: str, decisions, length: int, alphabet) -> bool:
        """Check one decision vector; a bad one fails the call and the run."""
        problem = check_decisions(decisions, length, alphabet)
        if problem is not None:
            self.failures[detector] += 1
            self.problems.append(f"{detector}: {problem}")
        return problem is None

    def record(self, variant, seconds, decisions, length, alphabet, truth=None, oracle=None,
               decode=None) -> None:
        if not self.check(variant, decisions, length, alphabet):
            return
        self.seconds[variant].append(seconds)
        if truth is not None:
            self.errors[variant] += int(np.count_nonzero(decisions != truth))
            self.symbols[variant] += length
        if oracle is not None:
            self.compared[variant] += 1
            self.disagree[variant] += bool(np.any(decisions != oracle))
        if decode is not None:
            self.early_stops.append(bool(decode.early_stop))
            self.steps_run.append(int(decode.steps_run))

    def fail_rate(self, detectors) -> float:
        calls = sum(self.calls[d] for d in detectors)
        return sum(self.failures[d] for d in detectors) / calls if calls else 0.0


@dataclass
class Pass:
    """One untraced measured pass."""

    tally: Tally
    trials: int
    trials_per_s: float
    # what the traced replay repeats
    replay: object
    # trials/s of the workers=2 sweeps
    pool_trials_per_s: float = 0.0


class TrialWorkload:
    """A workload whose trials the benchmark runs one by one itself."""

    def inputs(self, seed: int, index: int):
        raise NotImplementedError

    def run_trial(self, trial, tally: Tally, span=no_span) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        self.run_trial(self.inputs(WARMUP_SEED, 0), Tally())

    def measure(self, seed: int, seconds: float) -> Pass:
        tally = Tally()
        n = 0
        start = time.perf_counter()
        while n == 0 or time.perf_counter() - start < seconds:
            self.run_trial(self.inputs(seed, n), tally)
            n += 1
        elapsed = time.perf_counter() - start
        return Pass(tally, n, n / elapsed, replay=seed)

    def traced_replay(self, done: Pass, tracer: Tracer, tally: Tally) -> float:
        start = time.perf_counter()
        with tracer.instrument():
            for i in range(done.trials):
                tracer.trial = i
                self.run_trial(self.inputs(done.replay, i), tally, tracer.span)
        return time.perf_counter() - start


@dataclass
class MimoTrial:
    x: np.ndarray
    y: np.ndarray
    ch: ChannelRealization
    cross_seeds: dict


class Mimo16(TrialWorkload):
    name = "mimo16_15db"
    snr_db = 15.0

    def __init__(self):
        self.sim = SimConfig(scenario="mimo", snr_grid=(self.snr_db,),
                             detectors=("oracle", *VARIANTS, "lmmse"), nt_complex=4, qam=16)
        self.const = QamConstellation.from_order(self.sim.qam)
        self.alphabet = self.const.alphabet

    def inputs(self, seed: int, index: int) -> MimoTrial:
        rng, seeds = trial_streams(seed, index)
        nt = self.sim.nt_complex
        h_c = sample_channel(nt, nt, rng)
        sigma2 = noise_variance_for_snr(h_c, self.const.energy_complex, self.snr_db)
        x = self.alphabet[rng.integers(0, self.const.size_real, size=2 * nt)]
        h = realify_channel(h_c)
        y = h @ x + np.sqrt(sigma2) * rng.standard_normal(2 * nt)
        ch = ChannelRealization(h=h, sigma2=sigma2, nt_complex=nt, nr_complex=nt)
        return MimoTrial(x, y, ch, seeds)

    def run_trial(self, t: MimoTrial, tally: Tally, span=no_span) -> None:
        length = t.x.size
        x_lmmse, _ = tally.attempt("lmmse", span("harness.lmmse"),
                                   lambda: lmmse_detect(t.y, t.ch, self.alphabet))
        if x_lmmse is not None:
            tally.check("lmmse", x_lmmse, length, self.alphabet)
        x_oracle, _ = tally.attempt("oracle", span("harness.oracle"), lambda: map_decision(
            mimo_exact_marginals(t.y, t.ch.h, t.ch.sigma2, self.alphabet), self.alphabet))
        if x_oracle is not None and not tally.check("oracle", x_oracle, length, self.alphabet):
            x_oracle = None
        for variant in VARIANTS:
            res, seconds = tally.attempt(variant, span("mimo.ttdet"), lambda: ttdet(
                t.y, t.ch, self.alphabet, self.sim.cross_config(t.cross_seeds[variant]),
                taylor_p=self.sim.taylor_p, taylor_max_rank=self.sim.taylor_max_rank,
                variant=variant, trunc_tol=self.sim.trunc_tol))
            if res is not None:
                tally.record(variant, seconds, res.x_hat, length, self.alphabet, truth=t.x,
                             oracle=x_oracle)


@dataclass
class DecodeTrial:
    u: np.ndarray
    y: np.ndarray
    cross_seeds: dict


class Bch31(TrialWorkload):
    name = "bch31_4db"
    ebn0_db = 4.0

    def __init__(self):
        path = builtin_code_path("bch_31_16")
        self.sim = SimConfig(scenario="decode", snr_grid=(self.ebn0_db,),
                             detectors=("oracle", *VARIANTS), code_path=str(path))
        self.code = load_code(path)
        self.n0 = n0_from_ebn0(self.ebn0_db, self.code.rate)

    def inputs(self, seed: int, index: int) -> DecodeTrial:
        rng, seeds = trial_streams(seed, index)
        u = rng.integers(0, 2, size=self.code.k)
        x = 1.0 - 2.0 * self.code.encode(u)
        y = x + np.sqrt(self.n0 / 2.0) * rng.standard_normal(self.code.n)
        return DecodeTrial(u, y, seeds)

    def run_trial(self, t: DecodeTrial, tally: Tally, span=no_span) -> None:
        k = self.code.k
        oracle, _ = tally.attempt("oracle", span("harness.oracle"),
                                  lambda: code_exact_bitwise_map(t.y, self.code, self.n0))
        u_oracle = oracle[0] if oracle is not None else None
        if u_oracle is not None and not tally.check("oracle", u_oracle, k, BITS):
            u_oracle = None
        for variant in VARIANTS:
            res, seconds = tally.attempt(variant, span("chancode.ttdec"), lambda: ttdec(
                t.y, self.code, self.n0, self.sim.schedule,
                self.sim.cross_config(t.cross_seeds[variant]),
                taylor_p=self.sim.taylor_p, variant=variant, trunc_tol=self.sim.trunc_tol))
            if res is not None:
                tally.record(variant, seconds, res.u_hat, k, BITS, truth=t.u, oracle=u_oracle,
                             decode=res)


class ShortCodesSweep:
    """Repeated ``run_sweep`` units; one unit sweeps every code once.

    Every sweep runs at workers=1 in this process, where each TT call is
    timed and checked.  After the timed window, the first unit runs again at
    workers=2, and its CSV must match the workers=1 CSV byte for byte.  The
    workers=2 rate varies too much from run to run to carry a bound (thread
    oversubscription), so it is a per-layer figure, and the bounded figures
    come from the in-process sweeps.
    """

    name = "short_codes_sweep"
    grid = (3.0, 4.0)
    # Trials per grid point of each code.  A hamming_7_4 call takes about
    # 25 ms and a bch_15_7 call about 45 ms; with equal shares the median call
    # would fall in the gap between the two and jump from run to run, so
    # three quarters of the calls are hamming_7_4's.
    trials_per_point = {"hamming_7_4": 12, "bch_15_7": 4}
    codes = tuple(trials_per_point)

    def __init__(self):
        self.paths = {c: str(builtin_code_path(c)) for c in self.codes}
        self.k = {c: load_code(p).k for c, p in self.paths.items()}

    def config(self, code: str, master_seed: int) -> SimConfig:
        return SimConfig(
            scenario="decode",
            snr_grid=self.grid,
            detectors=("oracle", *VARIANTS),
            code_path=self.paths[code],
            # unreachable, so every point runs exactly max_trials trials
            min_block_errors=self.trials_per_point[code] + 1,
            max_trials=self.trials_per_point[code],
            master_seed=master_seed,
            workers=1,
        )

    def warm_up(self) -> None:
        for code in self.codes:
            run_sweep(replace(self.config(code, WARMUP_SEED), snr_grid=self.grid[:1], max_trials=1))

    def measure(self, seed: int, seconds: float) -> Pass:
        tally = Tally()
        sweeps = []  # (config, workers=1 CSV) of every sweep
        trials = unit = 0
        single = 0.0
        start = time.perf_counter()
        while unit == 0 or time.perf_counter() - start < seconds:
            unit_seed = int(np.random.SeedSequence([seed, unit]).generate_state(1)[0])
            for code in self.codes:
                cfg = self.config(code, unit_seed)
                began = time.perf_counter()
                try:
                    res = self.run_single(cfg, tally)
                except Exception as err:  # the failed call is counted; the run goes on
                    print(f"perfbench: {code} sweep raised {type(err).__name__}: {err}",
                          file=sys.stderr)
                    continue
                finally:
                    single += time.perf_counter() - began
                trials += sum(r.trials for r in res.rows if r.detector == "oracle")
                for r in res.rows:
                    if r.detector in VARIANTS:
                        tally.errors[r.detector] += r.sym_errors
                        tally.symbols[r.detector] += r.trials * self.k[code]
                sweeps.append((cfg, res.to_csv()))
            unit += 1
        # The first unit runs again at workers=2 after the timed window:
        # forking the pool makes this process's next threaded BLAS call
        # restart its threads, which costs over 100 ms and would otherwise
        # land on a timed call.
        pooled_trials, pooled = 0, 0.0
        for cfg, csv in sweeps[:len(self.codes)]:
            began = time.perf_counter()
            try:
                pool_csv = run_sweep(replace(cfg, workers=2)).to_csv()
            except Exception as err:
                pool_csv = f"{type(err).__name__}: {err}"
            pooled += time.perf_counter() - began
            pooled_trials += len(self.grid) * cfg.max_trials
            if pool_csv != csv:
                tally.problems.append(
                    f"{cfg.code_path} seed {cfg.master_seed}: workers=2 CSV differs from workers=1"
                )
        return Pass(tally, trials, trials / single, replay=sweeps,
                    pool_trials_per_s=pooled_trials / pooled if pooled else 0.0)

    def run_single(self, cfg: SimConfig, tally: Tally, timed: bool = True):
        """Run one sweep at workers=1 in this process.  With ``timed``, each
        detector call is counted, each TT call is timed, and each decision is
        checked and paired with the oracle's decision on the same observation.
        A call that raises counts as failed; the harness then handles the
        exception as it would without the benchmark."""
        oracle_by_y = {}

        def timed_oracle(original):
            def call(y, code, n0):
                with tally.counted("oracle"):
                    u_hat, marginals = original(y, code, n0)
                tally.check("oracle", u_hat, code.k, BITS)
                oracle_by_y[np.asarray(y).tobytes()] = u_hat
                return u_hat, marginals
            return call

        def timed_ttdec(original):
            def call(y, code, *args, **kwargs):
                variant = kwargs["variant"]
                start = time.perf_counter()
                with tally.counted(variant):
                    res = original(y, code, *args, **kwargs)
                tally.record(variant, time.perf_counter() - start, res.u_hat, code.k, BITS,
                             oracle=oracle_by_y.get(np.asarray(y).tobytes()), decode=res)
                return res
            return call

        with ExitStack() as hooks:
            if timed:
                hooks.enter_context(swapped(harness, "code_exact_bitwise_map", timed_oracle))
                hooks.enter_context(swapped(harness, "ttdec", timed_ttdec))
            return run_sweep(replace(cfg, workers=1))

    def traced_replay(self, done: Pass, tracer: Tracer, tally: Tally) -> float:
        start = time.perf_counter()
        with tracer.instrument():
            for cfg, csv in done.replay:
                if self.run_single(cfg, tally, timed=False).to_csv() != csv:
                    tally.problems.append(f"{cfg.code_path}: traced CSV differs from untraced")
        return time.perf_counter() - start


WORKLOADS = {w.name: w for w in (Mimo16, Bch31, ShortCodesSweep)}
