"""Benchmark of ttinfer, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a ttinfer source checkout; the package is imported
from the checkout's ``src``.  Each run sets up (imports, code loading and one
warm-up trial) three times, twice in fresh interpreters and then here, then
measures the workload for ``--seconds`` with tracing off.  With ``--trace 1``
it then replays the same trials with every layer wrapped in spans, writes
the spans to ``perfbench/out/``, and reports per-layer figures instead of the
end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment.  A failed correctness check makes the run exit 1.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# The keys of workloads.WORKLOADS, listed here because importing that module
# imports ttinfer, which set-up must time.
WORKLOAD_NAMES = ("mimo16_15db", "bch31_4db", "short_codes_sweep")
VARIANTS = ("sample", "sweep")
SETUP_REPEATS = 3
# A tail percentile needs this many calls beyond it.
TAIL_BEYOND = 10
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "sample_ms_p50": "ms",
    "sample_ms_tail": "ms",
    "sweep_ms_p50": "ms",
    "sweep_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "tt.truncate_s": "s/trial",
    "tt.truncate_calls": "1/trial",
    "cross.taylor_s": "s/trial",
    "cross.cross_s": "s/trial",
    "cross.us_per_eval": "us",
    "cross.evals": "1/call",
    "cross.half_sweeps": "1/call",
    "cross.max_rank": "count",
    "cross.unconverged_rate": "ratio",
    "posterior.self_s": "s/trial",
    "posterior.marginalize_s": "s/trial",
    "posterior.seed_hit_rate": "ratio",
    "mimo.metric_build_s": "s/trial",
    "chancode.metric_build_s": "s/trial",
    "chancode.stopping_rule_s": "s/trial",
    "chancode.early_stop_rate": "ratio",
    "chancode.steps_run": "1/call",
    "harness.oracle_s": "s/trial",
    "harness.lmmse_s": "s/trial",
    "harness.pool_trials_per_s": "1/s",
    "harness.parallel_speedup": "ratio",
    "trace.overhead_s": "s/trial",
    "trace.tt_call_coverage": "ratio",
    "sample_err_rate": "ratio",
    "sweep_err_rate": "ratio",
    "sample_disagree": "ratio",
    "sweep_disagree": "ratio",
    "fail_rate": "ratio",
    "harness.oracle_fail_rate": "ratio",
    "sample_calls": "count",
    "sweep_calls": "count",
    "sample_tail_pct": "%",
    "sweep_tail_pct": "%",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(name: str):
    """Import ttinfer, load the workload's codes and run one warm-up trial."""
    start = time.perf_counter()
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS[name]()
    workload.warm_up()
    return time.perf_counter() - start, workload


def probe_set_up(name: str) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-probe"],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def latency(seconds: list[float]) -> dict:
    """Median and tail of per-call latencies in ms.  The tail is the highest
    percentile with at least TAIL_BEYOND calls above it (the lowest call when
    there are too few calls for one)."""
    ms = sorted(1e3 * s for s in seconds)
    n = len(ms)
    index = max(0, n - TAIL_BEYOND - 1)
    return {"p50": statistics.median(ms), "tail": ms[index], "tail_pct": 100.0 * (index + 1) / n,
            "calls": n}


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def blas_record() -> dict:
    """BLAS build and the thread count each bundled OpenBLAS chose."""
    import numpy
    import scipy

    record = {"numpy_build": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            info = {"library": lib.name}
            for field, stem, restype in (("threads", "get_num_threads", ctypes.c_int),
                                         ("config", "get_config", ctypes.c_char_p)):
                for prefix in ("scipy_openblas_", "openblas_"):
                    for suffix in ("64_", ""):
                        fn = getattr(handle, prefix + stem + suffix, None)
                        if fn is not None and field not in info:
                            fn.argtypes = []
                            fn.restype = restype
                            value = fn()
                            info[field] = value.decode() if isinstance(value, bytes) else value
            record[pkg.__name__] = info
    return record


def git_commit() -> str | None:
    """HEAD of the checkout's own repository, when it is one."""
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return None
    try:
        proc = subprocess.run(["git", "--git-dir", str(git_dir), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def untraced_layers(tally, done) -> dict:
    """Per-layer figures that the untraced pass already observed."""
    out = {}
    for v in VARIANTS:
        out[f"{v}_err_rate"] = tally.errors[v] / tally.symbols[v] if tally.symbols[v] else 0.0
        out[f"{v}_disagree"] = tally.disagree[v] / tally.compared[v] if tally.compared[v] else 0.0
    out["fail_rate"] = tally.fail_rate(VARIANTS)
    out["harness.oracle_fail_rate"] = tally.fail_rate(("oracle",))
    out["chancode.early_stop_rate"] = (
        statistics.fmean(tally.early_stops) if tally.early_stops else 0.0
    )
    out["chancode.steps_run"] = statistics.fmean(tally.steps_run) if tally.steps_run else 0.0
    out["harness.pool_trials_per_s"] = done.pool_trials_per_s
    out["harness.parallel_speedup"] = (
        done.pool_trials_per_s / done.trials_per_s if done.trials_per_s else 0.0
    )
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ttinfer" / "__init__.py").is_file():
        print(f"perfbench: no ttinfer sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(json.dumps({"setup_s": set_up(args.workload)[0]}))
        return 0
    # The fresh-interpreter set-ups come first: after any fork (a subprocess
    # too), this process's next threaded BLAS call restarts the OpenBLAS
    # threads, which the warm-up trial should absorb, not a timed call.
    setup_samples = [probe_set_up(args.workload) for _ in range(SETUP_REPEATS - 1)]
    setup_s, workload = set_up(args.workload)
    setup_samples.append(setup_s)

    done = workload.measure(args.seed, args.seconds)
    tally = done.tally
    problems = list(tally.problems)
    calls = {}
    for v in VARIANTS:
        if tally.seconds[v]:
            calls[v] = latency(tally.seconds[v])
        else:
            problems.append(f"no {v} call completed")
    rss = peak_rss_mb()

    if args.trace:
        from tracing import Tracer
        from workloads import Tally

        tracer = Tracer()
        replay_tally = Tally()
        traced_elapsed = workload.traced_replay(done, tracer, replay_tally)
        problems += replay_tally.problems
        per_trial = max(done.trials, 1)
        values = tracer.layer_metrics(per_trial)
        untraced_elapsed = done.trials / done.trials_per_s if done.trials else 0.0
        values["trace.overhead_s"] = (traced_elapsed - untraced_elapsed) / per_trial
        values.update(untraced_layers(tally, done))
        for v, c in calls.items():
            values[f"{v}_calls"] = c["calls"]
            values[f"{v}_tail_pct"] = c["tail_pct"]
        units = PER_LAYER_UNITS
    else:
        values = {"trials_per_s": done.trials_per_s, "peak_rss_mb": rss,
                  "setup_s": statistics.median(setup_samples)}
        for v, c in calls.items():
            values[f"{v}_ms_p50"] = c["p50"]
            values[f"{v}_ms_tail"] = c["tail"]
        units = END_TO_END_UNITS

    env = environment(args)  # runs git, a fork, so only after all timing
    if args.trace:
        tracer.write(OUT_DIR / f"{args.workload}-seed{args.seed}-trace.jsonl",
                     {"env": env, "metrics": values, "problems": problems})
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"env": env, "calls": calls, "setup_samples_s": setup_samples,
                      "trials": done.trials, "problems": problems}))
    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
