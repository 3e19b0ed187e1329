"""Library I/O: set files, the JSON report schema, and planar rendering.

Every document carries the ``kinglattice.report/1`` schema tag.  Boundary
breakdowns, search reports and surveys round-trip through serialize_report
and parse_report; compression traces are written only.
"""

from __future__ import annotations

import json
from typing import Any

from .core import PointSet, directions
from .boundary import BoundaryBreakdown, exterior_vertices
from .compression import CompressionTrace
from .search import SearchReport, WitnessStats

SCHEMA = "kinglattice.report/1"


class ParseError(ValueError):
    """Malformed set file or report document."""


def parse_point_set(text: str | bytes) -> PointSet:
    """Read a set file: one point per line, integers separated by commas or
    whitespace.

    ``#`` starts a comment, blank lines are skipped, and an optional first
    content line ``dim N`` declares the dimension (required when the set is
    empty, inferred from the first point otherwise).
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    dim: int | None = None
    points: set[tuple[int, ...]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.replace(",", " ").split()
        if tokens[0] == "dim":
            if dim is not None:
                raise ParseError(f"line {lineno}: dim header must come first")
            if len(tokens) != 2:
                raise ParseError(f"line {lineno}: expected 'dim N'")
            try:
                dim = int(tokens[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad dimension {tokens[1]!r}") from None
            if dim < 1:
                raise ParseError(f"line {lineno}: dimension must be >= 1")
            continue
        try:
            p = tuple(int(t) for t in tokens)
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer coordinate in {line!r}") from None
        if dim is None:
            dim = len(p)
        elif len(p) != dim:
            raise ParseError(
                f"line {lineno}: point has {len(p)} coordinates, expected {dim}"
            )
        if p in points:
            raise ParseError(f"line {lineno}: duplicate point {p}")
        points.add(p)
    if dim is None:
        raise ParseError("empty input: need at least one point or a dim header")
    return PointSet(dim, frozenset(points))


def serialize_point_set(ps: PointSet) -> str:
    """Set-file text for ps; parse_point_set inverts this exactly."""
    lines = [f"dim {ps.dim}"]
    lines.extend(" ".join(str(c) for c in p) for p in ps)
    return "\n".join(lines) + "\n"


def _points_json(ps: PointSet) -> list[list[int]]:
    return [list(p) for p in ps]


def _breakdown_dict(b: BoundaryBreakdown, direct_total: int | None) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "schema": SCHEMA,
        "kind": "boundary_breakdown",
        "dim": b.dim,
        "per_direction": [
            {"direction": list(d), "lines": lines, "gaps": gaps}
            for d, (lines, gaps) in sorted(b.per_direction.items())
        ],
        "total": b.total,
    }
    if direct_total is not None:
        doc["direct_total"] = direct_total
        doc["agree"] = direct_total == b.total
    return doc


def _search_dict(r: SearchReport) -> dict[str, Any]:
    return {
        "schema": SCHEMA,
        "kind": "search_report",
        "dimension": r.dimension,
        "size": r.size,
        "min_edge_boundary": r.min_edge_boundary,
        "method": r.method,
        "optimal": r.optimal,
        "sets_scanned": r.sets_scanned,
        "any_witness_gap_free": r.any_witness_gap_free,
        "all_witnesses_gap_free": r.all_witnesses_gap_free,
        "witnesses": [
            {
                "points": _points_json(w),
                "exterior_vertex_boundary": s.exterior_vertex_boundary,
                "fully_gap_free": s.fully_gap_free,
            }
            for w, s in zip(r.witnesses, r.witness_stats)
        ],
    }


def _trace_dict(trace: CompressionTrace) -> dict[str, Any]:
    return {
        "schema": SCHEMA,
        "kind": "compression_trace",
        "dim": trace.initial.dim,
        "initial_points": _points_json(trace.initial),
        "steps": [
            {
                "axis": s.axis,
                "boundary_before": s.boundary_before,
                "boundary_after": s.boundary_after,
                "potential_before": list(s.potential_before),
                "potential_after": list(s.potential_after),
            }
            for s in trace.steps
        ],
        "final_points": _points_json(trace.final),
    }


def serialize_report(
    r: SearchReport | BoundaryBreakdown | CompressionTrace | list[SearchReport],
    *,
    direct_total: int | None = None,
) -> str:
    """JSON text for a report, with a fixed key order and a schema tag.

    A boundary breakdown may carry the directly enumerated total alongside
    the formula total so any disagreement is visible in the output itself.
    A list of search reports becomes a survey document.  A compression trace
    is written but never parsed back.
    """
    if isinstance(r, BoundaryBreakdown):
        doc = _breakdown_dict(r, direct_total)
    elif isinstance(r, SearchReport):
        doc = _search_dict(r)
    elif isinstance(r, CompressionTrace):
        doc = _trace_dict(r)
    elif isinstance(r, list):
        doc = {
            "schema": SCHEMA,
            "kind": "survey",
            "rows": [_search_dict(x) for x in r],
        }
    else:
        raise TypeError(f"cannot serialize {type(r).__name__}")
    return json.dumps(doc, indent=2) + "\n"


def _typed(v: Any, kind: type) -> Any:
    if type(v) is not kind or (kind is int and v < 0):  # a JSON true is no count
        raise ValueError(f"bad {kind.__name__} value {v!r}")
    return v


def _ints(v: Any) -> tuple[int, ...]:
    if any(type(c) is not int for c in v):
        raise ValueError(f"non-integer entry in {v!r}")
    return tuple(v)


def _parse_search_dict(doc: dict[str, Any]) -> SearchReport:
    dim, size = _typed(doc["dimension"], int), _typed(doc["size"], int)
    ws = doc["witnesses"]
    r = SearchReport(
        dimension=dim,
        size=size,
        min_edge_boundary=_typed(doc["min_edge_boundary"], int),
        witnesses=tuple(PointSet(dim, frozenset(map(_ints, w["points"]))) for w in ws),
        witness_stats=tuple(
            WitnessStats(
                _typed(w["exterior_vertex_boundary"], int),
                _typed(w["fully_gap_free"], bool),
            )
            for w in ws
        ),
        method=_typed(doc["method"], str),
        optimal=_typed(doc["optimal"], bool),
        sets_scanned=_typed(doc["sets_scanned"], int),
    )
    sizes = {len(w) for w in r.witnesses} | {len(w["points"]) for w in ws}
    if sizes != {size}:  # also catches no witnesses and a repeated point
        raise ValueError(f"witnesses must be {size} distinct points each")
    for key in ("any_witness_gap_free", "all_witnesses_gap_free"):
        if _typed(doc[key], bool) != getattr(r, key):
            raise ValueError(f"{key} contradicts the witnesses")
    return r


def parse_report(text: str) -> SearchReport | BoundaryBreakdown | list[SearchReport]:
    """Inverse of serialize_report; any malformed document raises ParseError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad report JSON: {e}") from None
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise ParseError(f"missing or unknown schema tag, expected {SCHEMA!r}")
    kind = doc.get("kind")
    try:
        if kind == "boundary_breakdown":
            entries = doc["per_direction"]
            per = {
                _ints(e["direction"]): (_typed(e["lines"], int), _typed(e["gaps"], int))
                for e in entries
            }
            dim = _typed(doc["dim"], int)
            if len(per) != len(entries) or sorted(per) != directions(dim):
                raise ValueError(f"directions do not match dim {dim}")
            total = _typed(doc["total"], int)
            if total != sum(map(sum, per.values())):
                raise ValueError(f"total {total} is not the sum of the entries")
            return BoundaryBreakdown(per, total)
        if kind == "search_report":
            return _parse_search_dict(doc)
        if kind == "survey":
            return [_parse_search_dict(row) for row in doc["rows"]]
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"malformed {kind} document: {e!r}") from None
    raise ParseError(f"unknown report kind {kind!r}")


def render_grid(ps: PointSet, mode: str = "ascii", max_extent: int = 100) -> str:
    """Draw a planar set with its exterior vertex neighbors.

    ASCII mode marks set points with a filled dot, exterior neighbors with a
    ring, and everything else with a middle dot, rows printed with y
    increasing upward.  SVG mode gives the same picture as a standalone
    document, set points blue and neighbors red.
    """
    if ps.dim != 2:
        raise ValueError(f"can only render dimension 2, got {ps.dim}")
    if not ps.points:
        raise ValueError("cannot render an empty set")
    outside = exterior_vertices(ps)
    everything = ps.points | outside
    xs = [p[0] for p in everything]
    ys = [p[1] for p in everything]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    if x1 - x0 + 1 > max_extent or y1 - y0 + 1 > max_extent:
        raise ValueError(
            f"bounding box {x1 - x0 + 1}x{y1 - y0 + 1} exceeds limit {max_extent}"
        )
    if mode == "ascii":
        rows = []
        for y in range(y1, y0 - 1, -1):
            row = []
            for x in range(x0, x1 + 1):
                if (x, y) in ps.points:
                    row.append("●")
                elif (x, y) in outside:
                    row.append("○")
                else:
                    row.append("·")
            rows.append("".join(row))
        return "\n".join(rows) + "\n"
    if mode == "svg":
        cell, radius, margin = 24, 9, 24
        width = (x1 - x0) * cell + 2 * margin
        height = (y1 - y0) * cell + 2 * margin
        parts = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
        ]
        for q in sorted(everything):
            cx = margin + (q[0] - x0) * cell
            cy = margin + (y1 - q[1]) * cell  # svg y grows downward
            color = "#1f77b4" if q in ps.points else "#d62728"
            parts.append(f'  <circle cx="{cx}" cy="{cy}" r="{radius}" fill="{color}"/>')
        parts.append("</svg>")
        return "\n".join(parts) + "\n"
    raise ValueError(f"unknown render mode {mode!r}")
