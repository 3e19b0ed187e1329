"""Span recording around the package's public functions, from outside it.

``Tracer`` replaces every binding of a public kinglattice function, in every
loaded kinglattice module, by a wrapper that records a span (name, start,
end, parent) per call.  Spans stay in memory until ``write`` dumps them.
Self time is a span's duration minus the durations of its direct children;
calls in one thread nest, so children never overlap.

A generator function gets one span per resumption, so time spent by the
consumer between items is not charged to it.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# Helpers called once per point (or per point and direction).  A span per
# call would cost more than the work it measures, so their time stays in
# the caller's self time.
PER_POINT = frozenset(
    {"line_base", "neighbors", "chebyshev_distance", "insert_coordinate", "delete_coordinate"}
)

BOUNDARY_ROUTES = frozenset({"edge_boundary_direct", "edge_boundary_formula"})
WITNESS_DIAGNOSTICS = frozenset({"exterior_vertex_boundary", "fully_gap_free"})


PACKAGE = "kinglattice"


def _package_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Context manager that traces the package's public functions."""

    def __init__(self) -> None:
        # Each span is (name, start, end, parent index or -1).
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter[str] = Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- installing -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = _package_modules()
        wrappers = {
            val: self._wrap(val)
            for mod in modules
            for attr, val in vars(mod).items()
            if inspect.isfunction(val)
            and val.__module__ == mod.__name__
            and not attr.startswith("_")
            and attr not in PER_POINT
        }
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, val in self._patched:
            setattr(mod, attr, val)
        self._patched.clear()

    def _wrap(self, fn):
        name = fn.__name__
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                first = True
                while True:
                    i = len(spans)
                    spans.append(None)
                    parent = stack[-1]
                    stack.append(i)
                    start = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        end = clock()
                        stack.pop()
                        spans[i] = (name, start, end, parent)
                    if first:
                        counts[name + ".first_s"] += end - start
                        first = False
                    counts[name + ".yields"] += 1
                    yield item
            return traced_gen

        hook = _RESULT_HOOKS.get(name)

        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(i)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[i] = (name, start, end, parent)
            if hook is not None:
                hook(counts, result)
            return result
        return traced

    # -- reading --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Raw figures keyed by function name.

        ``<fn>.calls``, ``<fn>.s`` (inclusive) and ``<fn>.self_s`` for every
        traced function; ``<parent>><child>.calls`` for the direct route
        under compression; ``min_edge_boundary>routes.s`` and
        ``min_edge_boundary>diagnostics.s`` for inclusive time of the
        boundary routes and witness diagnostics under a search; plus the
        counts the wrappers keep.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            out[name + ".calls"] += 1
            out[name + ".s"] += dur
            out[name + ".self_s"] += dur - child_time[i]
            if parent >= 0 and spans[parent][0] == "compress_to_fixed_point":
                out["compress_to_fixed_point>" + name + ".calls"] += 1
            if name in BOUNDARY_ROUTES or name in WITNESS_DIAGNOSTICS:
                if self._has_ancestor(i, "min_edge_boundary"):
                    part = "routes" if name in BOUNDARY_ROUTES else "diagnostics"
                    out[f"min_edge_boundary>{part}.s"] += dur
        out.update(self.counts)
        return dict(out)

    def _has_ancestor(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path, trace_id: str) -> None:
        """Dump every span as JSON lines, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([trace_id, i, name, start, end, parent]) + "\n")


def _count_steps(counts: Counter, trace) -> None:
    counts["compress_to_fixed_point.steps"] += len(trace.steps)


def _count_scanned(counts: Counter, report) -> None:
    counts["min_edge_boundary.sets_scanned"] += report.sets_scanned


_RESULT_HOOKS = {
    "compress_to_fixed_point": _count_steps,
    "min_edge_boundary": _count_scanned,
}
