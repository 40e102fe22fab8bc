"""In-memory span tracer for the traced benchmark pass.

The tracer swaps the functions each ttinfer module imports (for example
``posterior.tt_cross``) for wrappers that record a span: name, start, end,
parent span and trial id.  Spans nest strictly, so a span's self time is its
duration minus the durations of its direct children.  Nothing is written
while the pass runs; ``write`` dumps the spans at the end.

Wrapped names that a module no longer has are skipped and listed in
``missing``, so a later refactor that removes a layer reports zero time for it
instead of breaking the benchmark.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass

import numpy as np

# (module, attribute, span name).  Each entry is a function that the module
# imported and calls through its own globals, so replacing the module
# attribute intercepts every call the pipeline makes.
WRAPPED = (
    ("ttinfer.harness", "_run_trial", "harness.trial"),
    ("ttinfer.harness", "ttdet", "mimo.ttdet"),
    ("ttinfer.harness", "ttdec", "chancode.ttdec"),
    ("ttinfer.harness", "mimo_exact_marginals", "harness.oracle"),
    ("ttinfer.harness", "code_exact_bitwise_map", "harness.oracle"),
    ("ttinfer.harness", "lmmse_detect", "harness.lmmse"),
    ("ttinfer.mimo", "build_loglik_term", "mimo.metric_build"),
    ("ttinfer.mimo", "sum_loglikelihood_tts", "mimo.metric_build"),
    ("ttinfer.mimo", "infer_marginals", "posterior.infer_marginals"),
    ("ttinfer.mimo", "tt_truncate", "tt.truncate"),
    ("ttinfer.chancode", "normal_approx_pe", "chancode.stopping_rule"),
    ("ttinfer.chancode", "stopping_threshold", "chancode.stopping_rule"),
    ("ttinfer.chancode", "build_code_logapp_tt", "chancode.metric_build"),
    ("ttinfer.chancode", "infer_marginals", "posterior.infer_marginals"),
    ("ttinfer.chancode", "tt_truncate", "tt.truncate"),
    ("ttinfer.posterior", "tt_exp_taylor", "cross.taylor"),
    ("ttinfer.posterior", "tt_cross", "cross.cross"),
    ("ttinfer.posterior", "tt_marginalize_except", "posterior.marginalize"),
    ("ttinfer.posterior", "tt_truncate", "tt.truncate"),
    ("ttinfer.cross", "tt_truncate", "tt.truncate"),
)

# Spans of whole TT calls; the coverage metric is the share of their time
# that the wrapped child spans account for.
TT_CALL_SPANS = ("mimo.ttdet", "chancode.ttdec")

# Seed quality is judged against the dense argmax only on models this small.
SEED_CHECK_LIMIT = 1 << 20


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    trial: int | None
    start: float
    end: float = float("nan")


@contextmanager
def swapped(module, attr: str, make_wrapper):
    """Replace ``module.attr`` by ``make_wrapper(original)`` for the block."""
    original = getattr(module, attr)
    setattr(module, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


class Tracer:
    """Spans of one traced pass, plus the cross results they observed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.trial: int | None = None
        self.missing: list[str] = []
        self.cross_calls: list[dict] = []
        self._stack: list[int] = []
        self._seed_cases: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, parent, self.trial, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, name: str, original):
        def traced(*args, **kwargs):
            if name == "harness.trial":
                self.trial = 0 if self.trial is None else self.trial + 1
            with self.span(name):
                out = original(*args, **kwargs)
            if name == "cross.cross":
                self._observe_cross(out, args, kwargs)
            return out

        return traced

    def _observe_cross(self, result, args, kwargs) -> None:
        self.cross_calls.append(
            {
                "evals": int(result.n_evals),
                "half_sweeps": int(result.n_half_sweeps),
                "converged": bool(result.converged),
                "max_rank": int(max(result.tt.ranks)),
            }
        )
        seeds = kwargs.get("seed_indices")
        if seeds is not None and len(args) > 1:
            self._seed_cases.append((args[1], np.asarray(seeds)))

    @contextmanager
    def instrument(self):
        """Wrap every name in ``WRAPPED`` for the duration of the block."""
        with ExitStack() as stack:
            for module_name, attr, name in WRAPPED:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                stack.enter_context(
                    swapped(module, attr, lambda original, name=name: self._wrapper(name, original))
                )
            yield self

    def seed_hit_rate(self) -> float | None:
        """Share of cross calls whose seed index attains the dense maximum of
        the cross argument; None when no call had a model small enough to
        enumerate."""
        from ttinfer import tt_to_dense

        hits = checked = 0
        for arg, seeds in self._seed_cases:
            if arg.n_elements() > SEED_CHECK_LIMIT:
                continue
            dense = tt_to_dense(arg).data
            best = float(dense.max())
            values = dense[tuple(seeds.T)]
            checked += 1
            hits += bool(np.any(values >= best - 1e-9 * max(1.0, abs(best))))
        return hits / checked if checked else None

    def totals(self) -> tuple[dict, dict, dict]:
        """Inclusive seconds, self seconds and call counts per span name."""
        child_time = defaultdict(float)
        for sp in self.spans:
            if sp.parent is not None:
                child_time[sp.parent] += sp.end - sp.start
        total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for sp in self.spans:
            duration = sp.end - sp.start
            total[sp.name] += duration
            own[sp.name] += duration - child_time[sp.id]
            calls[sp.name] += 1
        return total, own, calls

    def layer_metrics(self, trials: int) -> dict:
        """Per-layer figures of the traced pass; times and counts per trial."""
        total, own, calls = self.totals()
        cross = self.cross_calls
        evals = sum(c["evals"] for c in cross)
        tt_total = sum(total[n] for n in TT_CALL_SPANS)
        tt_self = sum(own[n] for n in TT_CALL_SPANS)
        out = {
            "tt.truncate_s": total["tt.truncate"] / trials,
            "tt.truncate_calls": calls["tt.truncate"] / trials,
            "cross.taylor_s": total["cross.taylor"] / trials,
            "cross.cross_s": total["cross.cross"] / trials,
            "cross.us_per_eval": 1e6 * total["cross.cross"] / evals if evals else 0.0,
            "cross.evals": evals / len(cross) if cross else 0.0,
            "cross.half_sweeps": (
                sum(c["half_sweeps"] for c in cross) / len(cross) if cross else 0.0
            ),
            "cross.max_rank": max((c["max_rank"] for c in cross), default=0),
            "cross.unconverged_rate": (
                sum(not c["converged"] for c in cross) / len(cross) if cross else 0.0
            ),
            "posterior.self_s": own["posterior.infer_marginals"] / trials,
            "posterior.marginalize_s": total["posterior.marginalize"] / trials,
            "mimo.metric_build_s": total["mimo.metric_build"] / trials,
            "chancode.metric_build_s": total["chancode.metric_build"] / trials,
            "chancode.stopping_rule_s": total["chancode.stopping_rule"] / trials,
            "harness.oracle_s": total["harness.oracle"] / trials,
            "harness.lmmse_s": total["harness.lmmse"] / trials,
            "trace.tt_call_coverage": 1.0 - tt_self / tt_total if tt_total else 0.0,
        }
        hit_rate = self.seed_hit_rate()
        if hit_rate is not None:
            out["posterior.seed_hit_rate"] = hit_rate
        return out

    def write(self, path, header: dict) -> None:
        """One JSON line of ``header``, then one line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "missing_wraps": self.missing}) + "\n")
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp)) + "\n")
