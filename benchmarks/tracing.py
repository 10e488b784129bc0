"""Spans around the package's module boundaries, recorded from outside.

While a `Tracer` is installed it replaces each name in `BOUNDARIES` -- the
name a caller looks up, such as `cavityqsl.sweep.evolve_master` -- with a
wrapper that records one span per call: name, start, end, parent span and
grid index. Nothing in the package changes; `restore()` puts every
original object back. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from typing import Any

import numpy as np

# (module, attribute the caller looks up, span name as <layer>.<function>)
BOUNDARIES = (
    ("cavityqsl.cli", "cli_main", "cli.cli_main"),
    ("cavityqsl.cli", "parse_config", "cli.parse_config"),
    ("cavityqsl.cli", "build_sweep_spec", "cli.build_sweep_spec"),
    ("cavityqsl.cli", "run_sweep", "sweep.run_sweep"),
    ("cavityqsl.cli", "write_sweep_csv", "sweep.write_sweep_csv"),
    ("cavityqsl.sweep", "evaluate_point", "sweep.evaluate_point"),
    ("cavityqsl.sweep", "point_params", "sweep.point_params"),
    ("cavityqsl.sweep", "engine_row", "sweep.engine_row"),
    ("cavityqsl.sweep", "derive", "model.derive"),
    ("cavityqsl.sweep", "default_cutoff", "model.default_cutoff"),
    ("cavityqsl.sweep", "evolve_master", "dynamics.evolve_master"),
    ("cavityqsl.sweep", "analytic_trajectory", "dynamics.analytic_trajectory"),
    ("cavityqsl.sweep", "qsl_time", "qsl.qsl_time"),
    ("cavityqsl.dynamics", "derive", "model.derive"),
    ("cavityqsl.dynamics", "default_cutoff", "model.default_cutoff"),
    ("cavityqsl.dynamics", "build_operators", "model.build_operators"),
    ("cavityqsl.dynamics", "liouvillian_superoperator",
     "dynamics.liouvillian_superoperator"),
    ("cavityqsl.dynamics", "partial_trace_cavity_stack",
     "linalg.partial_trace_cavity_stack"),
    ("cavityqsl.model", "kron", "linalg.kron"),
    ("cavityqsl.model", "dagger", "linalg.dagger"),
    ("cavityqsl.qsl", "norms_of_hermitian_stack", "linalg.norms_of_hermitian_stack"),
    ("numpy.linalg", "eigvalsh", "numpy.eigvalsh"),
)

# Span fields, kept as plain lists for a low per-call cost.
NAME, START, END, PARENT, INDEX = range(5)


class Tracer:
    """Installs the boundary wrappers and collects spans."""

    def __init__(self, modules: dict[str, Any]):
        self.modules = modules
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, original: Any, name: str) -> Any:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        takes_index = name == "sweep.evaluate_point"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if takes_index:
                index = args[1]
            else:
                index = spans[parent][INDEX] if parent >= 0 else -1
            span = [name, 0.0, 0.0, parent, index]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return original(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for module_name, attr, span_name in BOUNDARIES:
            owner = self.modules[module_name]
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    def take(self) -> list[list]:
        """Spans recorded so far; the tracer starts a fresh list."""
        out = self.spans[:]
        self.spans.clear()
        return out


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time covered by its child spans.

    Spans of one thread nest, so children never overlap each other.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def sweep_layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals for one traced sweep (one `cli_main` call)."""
    own = self_times(spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    eig_under: dict[str, float] = {}
    for s, own_s in zip(spans, own):
        name, dur = s[NAME], s[END] - s[START]
        total[name] = total.get(name, 0.0) + dur
        self_total[name] = self_total.get(name, 0.0) + own_s
        calls[name] = calls.get(name, 0) + 1
        if name == "numpy.eigvalsh" and s[PARENT] >= 0:
            parent = spans[s[PARENT]][NAME]
            eig_under[parent] = eig_under.get(parent, 0.0) + dur

    master_calls = calls.get("dynamics.evolve_master", 0)
    return {
        "cli.self_s": sum(v for k, v in self_total.items() if k.startswith("cli.")),
        "sweep.self_s": sum(self_total.get(f"sweep.{f}", 0.0) for f in
                            ("run_sweep", "evaluate_point", "engine_row", "point_params")),
        "sweep.write_csv_s": total.get("sweep.write_sweep_csv", 0.0),
        "model.build_operators_s": total.get("model.build_operators", 0.0),
        "dynamics.evolve_master_self_s": self_total.get("dynamics.evolve_master", 0.0),
        "dynamics.superop_s": total.get("dynamics.liouvillian_superoperator", 0.0),
        "dynamics.superop_calls_per_point": (
            calls.get("dynamics.liouvillian_superoperator", 0) / master_calls
            if master_calls else 0.0),
        "dynamics.positivity_eig_s": eig_under.get("dynamics.evolve_master", 0.0),
        "dynamics.analytic_s": total.get("dynamics.analytic_trajectory", 0.0),
        "linalg.partial_trace_s": total.get("linalg.partial_trace_cavity_stack", 0.0),
        "linalg.norms_s": self_total.get("linalg.norms_of_hermitian_stack", 0.0),
        "qsl.norms_eig_s": eig_under.get("linalg.norms_of_hermitian_stack", 0.0),
        "qsl.qsl_time_s": total.get("qsl.qsl_time", 0.0),
        "qsl.self_s": self_total.get("qsl.qsl_time", 0.0),
    }


def durations_ms(spans: list[list], name: str) -> list[float]:
    return [1e3 * (s[END] - s[START]) for s in spans if s[NAME] == name]


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def median_of(dicts: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def write_spans(path, sweeps: list[list[list]]) -> None:
    """One JSON line per span: sweep number, name, start, end, parent, index."""
    with open(path, "w", encoding="utf-8") as handle:
        for number, spans in enumerate(sweeps):
            for s in spans:
                handle.write(json.dumps([number, *s]) + "\n")
