"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py

Runs one trial (one sweep unit for the sweep workload) of every workload in
both modes and checks the printed metrics against BENCHMARK.json, then checks
that corrupted decisions fail the run.  Takes about a minute on two cores.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import SEED_CHECK_LIMIT, Tracer  # noqa: E402
from ttinfer import CrossConfig, LogPosterior, build_prior_tt, infer_marginals  # noqa: E402


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, kind):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def corrupt_mimo(monkeypatch):
    real = workloads.ttdet

    def short_decision(*args, **kwargs):
        res = real(*args, **kwargs)
        res.x_hat = res.x_hat[:-1]
        return res

    monkeypatch.setattr(workloads, "ttdet", short_decision)
    return "mimo16_15db"


def corrupt_bch(monkeypatch):
    real = workloads.ttdec

    def non_bit_decision(*args, **kwargs):
        res = real(*args, **kwargs)
        res.u_hat = res.u_hat.copy()
        res.u_hat[0] = 2
        return res

    monkeypatch.setattr(workloads, "ttdec", non_bit_decision)
    return "bch31_4db"


@pytest.mark.parametrize("corrupt", [corrupt_mimo, corrupt_bch])
def test_corrupted_decision_fails_the_run(monkeypatch, capsys, corrupt):
    workload = corrupt(monkeypatch)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    # both TT calls fail; the LMMSE and oracle calls do not
    assert result["failed"] == 2
    assert result["attempted"] == {"mimo16_15db": 4, "bch31_4db": 3}[workload]


def test_raising_call_is_counted_and_the_run_goes_on(monkeypatch, capsys):
    def fails(*args, **kwargs):
        raise ValueError("marginal probabilities must be nonnegative")

    monkeypatch.setattr(workloads, "code_exact_bitwise_map", fails)
    code = run.main(["--workload", "bch31_4db", "--seed", "3", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (3, 1)


def test_sweep_checks_every_decision(monkeypatch):
    sweep = workloads.ShortCodesSweep()

    def non_bit_decision(original):
        def call(*args, **kwargs):
            res = original(*args, **kwargs)
            res.u_hat = res.u_hat.copy()
            res.u_hat[0] = 2
            return res
        return call

    code = sweep.codes[0]
    tally = workloads.Tally()
    with workloads.swapped(workloads.harness, "ttdec", non_bit_decision):
        sweep.run_single(sweep.config(code, 3), tally)
    assert tally.problems
    assert tally.failed == len(sweep.grid) * sweep.trials_per_point[code] * 2


@pytest.mark.parametrize("modes, reported", [(20, True), (21, False)])
def test_seed_hit_rate_is_absent_above_the_enumeration_limit(modes, reported):
    assert SEED_CHECK_LIMIT == 2**20
    lp = LogPosterior(build_prior_tt(np.array([0.0, 1.0]), modes), np.array([0.0, 1.0]))
    tracer = Tracer()
    with tracer.instrument():
        infer_marginals(lp, CrossConfig(max_rank=4, n_sweeps=1), taylor_p=1, taylor_max_rank=2)
    metrics = tracer.layer_metrics(trials=1)
    assert ("posterior.seed_hit_rate" in metrics) is reported
    if reported:
        assert metrics["posterior.seed_hit_rate"] == 1.0
