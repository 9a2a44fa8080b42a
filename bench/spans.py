"""In-memory spans around calls into misobeam's public functions.

The tracer swaps module attributes for wrappers only while one op runs.
misobeam looks these names up as module globals at call time, so the
wrappers see every call the op makes and nothing made outside it (input
generation and output checks call the originals).

A span is (name, start, end, parent, op).  A span's self time is its
duration minus the durations of its children; calls are single-threaded and
properly nested, so the children cover disjoint parts of the parent.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

# module attribute -> span name; the span name's prefix is the layer
TRACED = (
    ("cli", "main"),
    ("montecarlo", "sinr_cdf_experiment"),
    ("montecarlo", "power_vs_delta_sweep"),
    ("design", "design_nominal"),
    ("design", "design_robust"),
    ("design", "build_nominal"),
    ("design", "build_robust"),
    ("design", "extract_precoder"),
    ("conic", "solve"),
    ("model", "generate_channels"),
    ("model", "sample_error"),
)
# calls whose arguments and results the output checks and counters need
DESIGNS = ("design.design_nominal", "design.design_robust")
KEPT = DESIGNS + ("design.build_nominal", "design.build_robust", "conic.solve")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into the op's span list, -1 for a root
    op: int
    call: Any = None     # (args, kwargs, result) for names in KEPT

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Per-span duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


class Tracer:
    """Records the spans of one op at a time.

    ``traced=False`` wraps only the design functions, to hand their inputs
    and results to the output checks; ``traced=True`` wraps every name in
    TRACED and times each call.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    def run(self, op: int, traced: bool, fn):
        """Run ``fn()`` as op number ``op``; return (seconds, result, spans)."""
        self.spans, self._stack, self._op = [], [], op
        names = TRACED if traced else [n.split(".") for n in DESIGNS]
        saved = []
        for mod, attr in names:
            module = self.modules[mod]
            original = getattr(module, attr)
            saved.append((module, attr, original))
            wrap = self._timed if traced else self._captured
            setattr(module, attr, wrap(f"{mod}.{attr}", original))
        try:
            t0 = time.perf_counter()
            result = fn()
            seconds = time.perf_counter() - t0
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)
        return seconds, result, self.spans

    def _captured(self, name, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.spans.append(Span(name, 0.0, 0.0, -1, self._op, (args, kwargs, result)))
            return result
        return wrapper

    def _timed(self, name, fn):
        spans, stack, keep = self.spans, self._stack, name in KEPT

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self._op)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if keep:
                span.call = (args, kwargs, result)
            return result
        return wrapper


@dataclass(frozen=True)
class DesignCall:
    """The inputs and result of one design_* call, by parameter name."""

    method: str
    inputs: dict
    result: Any

    def key(self) -> tuple:
        """What two calls must share to be duplicates: the method, and the
        inputs that method reads."""
        a = self.inputs
        key = (self.method, a["channels"].rows.tobytes(),
               a["qos"].gamma.tobytes(), a["qos"].sigma.tobytes())
        if self.method == "robust":
            key += (a["unc"].delta.tobytes(), a["unc"].kappa, a["perturbation_sigma"])
        return key


def design_calls(spans: list[Span], design_module) -> list[DesignCall]:
    """The design calls of one op, in call order."""
    out = []
    for span in spans:
        if span.name in DESIGNS:
            args, kwargs, result = span.call
            attr = span.name.split(".")[1]
            bound = inspect.signature(getattr(design_module, attr)).bind(*args, **kwargs)
            bound.apply_defaults()
            out.append(DesignCall(attr.removeprefix("design_"), dict(bound.arguments), result))
    return out


STATUSES = ("Optimal", "PrimalInfeasible", "DualInfeasible", "MaxIterations",
            "NumericalFailure")
INFEASIBLE = ("PrimalInfeasible", "DualInfeasible")


def op_counts(spans: list[Span], seconds: float, design_module) -> tuple[dict, list[float]]:
    """Additive per-op layer counters of one traced op, and its solve times.

    Reads the program, solution and design results the spans keep, then
    drops them so that memory holds only the timings.
    """
    own = self_times(spans)
    c = dict.fromkeys(COUNTERS, 0.0)
    solve_times = []
    seen = set()
    for span, own_s in zip(spans, own):
        layer = span.name.split(".")[0]
        c[f"{layer}.self_s"] += own_s
        c[f"{span.name}.calls"] += 1
        c[f"{span.name}_s"] += span.duration
        if span.name == "conic.solve":
            status = span.call[2].status.value
            solve_times.append(span.duration)
            c["conic.iterations"] += span.call[2].iterations
            c[f"conic.status.{status}"] += 1
            if status in INFEASIBLE:
                c["conic.infeasible_solve_s"] += span.duration
        elif span.name.startswith("design.build_"):
            program = span.call[2][0]
            c["design.program.rows"] += program.num_rows
            c["design.program.vars"] += program.num_vars
            c["design.program.nnz"] += int(np.count_nonzero(program.constraint_matrix))
        elif span.name == "model.generate_channels" and span.parent >= 0 \
                and spans[span.parent].name.startswith("montecarlo."):
            c["montecarlo.trials"] += 1
    for call in design_calls(spans, design_module):
        c[f"design.optimal.{call.method}"] += call.result.status.value == "Optimal"
        key = call.key()
        c["design.duplicates"] += key in seen
        seen.add(key)
    c["trace.unattributed_s"] = seconds - sum(own)
    for span in spans:
        span.call = None
    return c, solve_times


# additive per-op counters; <name>.calls and <name>_s exist for every name
# in TRACED, <layer>.self_s for every layer
COUNTERS = (
    [f"{m}.{a}.calls" for m, a in TRACED] + [f"{m}.{a}_s" for m, a in TRACED]
    + [f"{m}.self_s" for m in dict.fromkeys(m for m, _ in TRACED)]
    + ["montecarlo.trials", "conic.iterations", "conic.infeasible_solve_s",
       "design.program.rows", "design.program.vars", "design.program.nnz",
       "design.optimal.nominal", "design.optimal.robust", "design.duplicates",
       "trace.unattributed_s"]
    + [f"conic.status.{s}" for s in STATUSES]
)
