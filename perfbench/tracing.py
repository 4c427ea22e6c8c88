"""Spans around the public functions of nmrlogic's modules.

The benchmark wraps each function at its module attribute, so callers that
look the name up through the module (``synthesis.synthesize``,
``_kernels.find_gate_quadruples``) or through the module's globals
(``capability_checks`` calling ``count_assignments``) run the wrapper.
Nothing in the program changes.  Spans stay in memory and are written
when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Callable, Dict, List, Optional

import numpy as np

# Float64 values one propagated point touches: four angles in, three
# components out.  Bytes are computed from this, not measured.
PROPAGATE_BYTES_PER_POINT = 7 * 8


def _kernel_counts(args, result):
    values = args[0]
    na, nb = np.shape(values)
    covered = na * na * nb * nb
    return {"covered": covered, "hits": len(result)}


def _propagate_counts(args, result):
    return {"points": int(np.broadcast(*args[:4]).size)}


def _observable_counts(args, result):
    return {"points": int(np.broadcast(args[4], args[5]).size)}


def _synthesize_counts(args, result):
    return {"built": len(result)}


# (module attribute path, counter) for every wrapped function.
TRACED = (
    ("cli.main", None),
    ("cli.scenario_components", _observable_counts),
    ("synthesis.synthesize", _synthesize_counts),
    ("synthesis.scenario_table", None),
    ("synthesis.verify_reference_tables", None),
    ("synthesis.capability_checks", None),
    ("synthesis.count_assignments", None),
    ("synthesis.achievable_classes", None),
    ("synthesis.scenario_components", _observable_counts),
    ("_kernels.find_gate_quadruples", _kernel_counts),
    ("_kernels.two_pulse_components", _propagate_counts),
)


class Tracer:
    """Records one span per call of a wrapped function while installed."""

    def __init__(self, modules: Dict[str, object]):
        self.modules = modules
        self.spans: List[dict] = []
        self.command: Optional[str] = None
        self._stack: List[int] = []
        self._originals: list = []

    def install(self) -> None:
        for path, counter in TRACED:
            module_name, attr = path.split(".")
            module = self.modules[module_name]
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(path, original, counter))
            self._originals.append((module, attr, original))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, func: Callable, counter) -> Callable:
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            span = {"id": len(spans), "name": name,
                    "parent": stack[-1] if stack else None,
                    "command": self.command}
            spans.append(span)
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.update(counter(args, result))
            return result

        traced.__wrapped__ = func
        return traced

    def take(self) -> List[dict]:
        spans = list(self.spans)
        self.spans.clear()
        return spans


def write_spans(path: str, passes: List[List[dict]]) -> None:
    """One JSON object per span; `pass` numbers the traced pass."""
    with open(path, "w", encoding="utf-8") as handle:
        for k, spans in enumerate(passes):
            for span in spans:
                handle.write(json.dumps(dict(span, **{"pass": k})) + "\n")


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span duration minus the time its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: List[dict]) -> Dict[str, float]:
    """Per-module totals over the spans of one pass."""
    own = self_times(spans)

    def total(name, key=None, self_time=False):
        picked = [s for s in spans if s["name"] in name]
        if key is not None:
            return sum(s[key] for s in picked)
        if self_time:
            return sum(own[s["id"]] for s in picked)
        return sum(s["end"] - s["start"] for s in picked)

    search = ("_kernels.find_gate_quadruples",)
    propagate = ("_kernels.two_pulse_components",)
    observables = ("cli.scenario_components", "synthesis.scenario_components")
    covered = total(search, "covered")
    hits = total(search, "hits")
    points = total(propagate, "points")
    return {
        "cli.self_s": total(("cli.main",), self_time=True),
        "synthesis.build_s": total(("synthesis.synthesize",), self_time=True),
        "synthesis.assignments_built": total(("synthesis.synthesize",), "built"),
        "synthesis.table_s": total(("synthesis.scenario_table",)),
        "synthesis.verify_reference_tables_s": total(("synthesis.verify_reference_tables",)),
        "synthesis.capability_checks_s": total(("synthesis.capability_checks",)),
        "synthesis.search_calls": sum(1 for s in spans if s["name"] in search),
        "kernels.search_s": total(search),
        "kernels.quadruples_covered": covered,
        "kernels.hits": hits,
        "kernels.hit_ratio": hits / covered if covered else 0.0,
        "kernels.propagate_s": total(propagate),
        "kernels.points_propagated": points,
        "kernels.propagate_bytes_computed": points * PROPAGATE_BYTES_PER_POINT,
        "observables.self_s": total(observables, self_time=True),
        "observables.points": total(observables, "points"),
    }


COUNT_METRICS = (
    "synthesis.assignments_built",
    "synthesis.search_calls",
    "kernels.quadruples_covered",
    "kernels.hits",
    "kernels.hit_ratio",
    "kernels.points_propagated",
    "kernels.propagate_bytes_computed",
    "observables.points",
    "cli.rows_out",
    "cli.bytes_out",
)


def summarize(per_pass: List[Dict[str, float]]) -> Dict[str, float]:
    """Median of each timing over passes; counts must repeat exactly."""
    out = {}
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        if name in COUNT_METRICS:
            if len(set(values)) != 1:
                raise ValueError(f"count {name} differs between passes: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out
