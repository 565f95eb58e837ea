"""In-memory span recorder for the traced benchmark run.

The recorder wraps package functions at the module attributes through which
their callers reach them (``cli.solve_ggl``, ``selection.ebic``,
``experiments._solve``, ...), so nothing under ``src/`` changes.  Each span
records a name, start, end, parent span and run id (the index of the timed
operation it belongs to).  Spans stay in memory and are written out with the
run record when the benchmark ends.

Self time is a span's duration minus the time covered by its children.  The
package runs single-threaded here (``threads=1``), so children never overlap
and their durations simply add.  Every span's self time goes to exactly one
per-layer metric, and the root span of an operation (``op``) keeps the time
no wrapped function covers, so the layer self times plus
``trace.unaccounted_s`` add up to the operation's wall time.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

SOLVER = "solver.solve_ggl"

# Per-layer time metric -> the span names whose self time it sums.
TIME_METRICS = {
    "core.draw_s": ("core.draw_mvn",),
    "core.cov_s": ("core.sample_covariance",),
    "solver.solve_s": (SOLVER,),
    "selection.ebic_s": ("selection.ebic",),
    "selection.self_s": ("selection.tune_penalties",),
    "inference.debias_s": ("inference.debias",),
    "inference.test_s": ("inference.test_linear_combo", "inference.confidence_interval"),
    "experiments.self_s": ("experiments.run_normality",),
    "io.read_s": ("io.ingest_csv",),
    "io.write_s": ("io.write_matrix_csv", "io.write_csv_atomic", "io.write_json_atomic"),
    "cli.self_s": ("cli.main",),
    "trace.unaccounted_s": ("op",),
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "run", "child_s", "attrs")

    def __init__(self, id, name, start, parent, run):
        self.id, self.name, self.start, self.parent, self.run = id, name, start, parent, run
        self.end = start
        self.child_s = 0.0
        self.attrs = {}

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    def to_jsonable(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "run": self.run, "attrs": self.attrs,
        }


def _solve_attrs(args, kwargs, report) -> dict:
    return {
        "iters": report.iterations,
        "converged": report.converged,
        "kkt": report.kkt_violation,
    }


def _read_attrs(args, kwargs, dataset) -> dict:
    paths = args[0] if args else kwargs["paths"]
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


def _write_attrs(args, kwargs, result) -> dict:
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _tune_attrs(args, kwargs, result) -> dict:
    return {"cells": len(result.table)}


def package_targets() -> list:
    """(module, attribute, span name, attrs hook) for every wrapped call site."""
    from multiggm import cli, experiments, selection

    return [
        (cli, "main", "cli.main", None),
        (cli, "ingest_csv", "io.ingest_csv", _read_attrs),
        (cli, "sample_covariance", "core.sample_covariance", None),
        (cli, "solve_ggl", SOLVER, _solve_attrs),
        (cli, "debias", "inference.debias", None),
        (cli, "test_linear_combo", "inference.test_linear_combo", None),
        (cli, "confidence_interval", "inference.confidence_interval", None),
        (cli, "write_matrix_csv", "io.write_matrix_csv", _write_attrs),
        (cli, "write_csv_atomic", "io.write_csv_atomic", _write_attrs),
        (cli, "write_json_atomic", "io.write_json_atomic", _write_attrs),
        (selection, "tune_penalties", "selection.tune_penalties", _tune_attrs),
        (selection, "solve_ggl", SOLVER, _solve_attrs),
        (selection, "ebic", "selection.ebic", None),
        (experiments, "run_normality", "experiments.run_normality", None),
        (experiments, "draw_mvn", "core.draw_mvn", None),
        (experiments, "sample_covariance", "core.sample_covariance", None),
        (experiments, "_solve", SOLVER, _solve_attrs),
        (experiments, "debias", "inference.debias", None),
    ]


class Recorder:
    """Collects spans of traced operations and solver counts of every operation.

    Outside traced operations only the solver call sites are wrapped, and
    only to count solves and ADMM iterations for the run record; they read
    no clock.
    """

    def __init__(self, targets):
        self.targets = targets
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.solves = 0
        self.iters = 0

    @contextmanager
    def operation(self, run: int, traced: bool):
        """Install the wrappers for one timed operation; traced ones get a root span."""
        saved = []
        try:
            for module, attr, name, hook in self.targets:
                if traced or name == SOLVER:
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(original, name, hook, traced, run))
            if traced:
                with self._span("op", run):
                    yield
            else:
                yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextmanager
    def _span(self, name: str, run: int):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent and parent.id, run)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += span.end - span.start

    def _wrap(self, fn, name, hook, traced, run):
        inner = fn
        if name == SOLVER:
            def inner(*args, **kwargs):
                report = fn(*args, **kwargs)
                self.solves += 1
                self.iters += report.iterations
                return report

        if not traced:
            return inner

        def spanned(*args, **kwargs):
            with self._span(name, run) as span:
                result = inner(*args, **kwargs)
            if hook is not None:
                span.attrs = hook(args, kwargs, result)
            return result

        return spanned

    def layer_metrics(self, paired_walls: list[float]) -> dict:
        """Per-layer metrics, each a mean per traced operation.

        ``paired_walls`` holds, for each traced operation, the wall time of
        the untraced operation on the same draw just before it.
        """
        ops = [s for s in self.spans if s.name == "op"]
        n = max(len(ops), 1)
        self_by_name: dict[str, float] = {}
        for s in self.spans:
            self_by_name[s.name] = self_by_name.get(s.name, 0.0) + s.self_s
        unmapped = set(self_by_name) - {x for names in TIME_METRICS.values() for x in names}
        if unmapped:
            raise RuntimeError(f"spans without a layer metric: {sorted(unmapped)}")
        metrics = {
            metric: (sum(self_by_name.get(x, 0.0) for x in names) / n, "s")
            for metric, names in TIME_METRICS.items()
        }

        def attr_sum(span_name, key):
            return sum(s.attrs.get(key, 0) for s in self.spans if s.name == span_name)

        solves = [s for s in self.spans if s.name == SOLVER]
        iters = attr_sum(SOLVER, "iters")
        solve_s = metrics["solver.solve_s"][0] * n
        op_s = sum(s.end - s.start for s in ops) / n
        metrics.update(
            {
                "solver.solves": (len(solves) / n, "count"),
                "solver.iters": (iters / n, "count"),
                "solver.iters_per_solve": (iters / len(solves) if solves else 0.0, "count"),
                "solver.ms_per_iter": (1e3 * solve_s / iters if iters else 0.0, "ms"),
                "solver.nonconverged": (
                    sum(not s.attrs.get("converged") for s in solves) / n, "count"),
                "solver.kkt_max": (max((s.attrs.get("kkt", 0.0) for s in solves), default=0.0), "1"),
                "selection.cells": (attr_sum("selection.tune_penalties", "cells") / n, "count"),
                "io.bytes_read": (attr_sum("io.ingest_csv", "bytes") / n, "B"),
                "io.bytes_written": (
                    sum(attr_sum(x, "bytes") for x in TIME_METRICS["io.write_s"]) / n, "B"),
                "trace.spans": ((len(self.spans) - len(ops)) / n, "count"),
                "trace.op_s": (op_s, "s"),
                "trace.overhead_s": (
                    op_s - sum(paired_walls) / max(len(paired_walls), 1), "s"),
            }
        )
        return metrics
