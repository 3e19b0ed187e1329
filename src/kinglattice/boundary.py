"""Boundary quantities for finite sets in the king-move lattice graph.

Two routes to the edge boundary are provided on purpose.
``edge_boundary_count`` walks every point's neighbors and counts the steps
that leave the set.  ``edge_boundary_formula`` counts, for every step
direction, the occupied lines plus the gap starts along those lines.  A
direction d and its reverse -d cut a set into the same lines with mirrored
positions, so the formula groups each +-d pair once and stores the counts
under both.  It groups points by line and counts gaps from sorted
positions, never through ``neighbors``; the two totals agree on every
finite set, and keeping both exposes that identity as a runtime check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Direction,
    Point,
    PointSet,
    _direction_pairs,
    _line_classes,
    _steps,
    line_sections,
    neighbors,
)


def edge_boundary_count(ps: PointSet) -> int:
    """Number of edges with exactly one endpoint in ps.

    Walks every point's neighbors, so each edge is counted once, from its
    in-set endpoint.
    """
    pts = ps.points
    return sum(q not in pts for p in pts for q in neighbors(p))


def exterior_vertices(ps: PointSet) -> frozenset[Point]:
    """The points outside ps adjacent to at least one point of ps."""
    pts = ps.points
    return frozenset(q for p in pts for q in neighbors(p) if q not in pts)


def exterior_vertex_boundary(ps: PointSet) -> int:
    """Number of points outside ps adjacent to at least one point of ps."""
    return len(exterior_vertices(ps))


def closed_vertex_boundary(ps: PointSet) -> int:
    """Points at distance <= 1 from ps: the set itself plus its neighbors."""
    return exterior_vertex_boundary(ps) + len(ps)


def projection_count(ps: PointSet, d: Direction) -> int:
    """Number of distinct lines in direction d that meet ps."""
    return len(line_sections(ps, d))


def gap_set(ps: PointSet, d: Direction) -> frozenset[Point]:
    """Points x with x-d in ps, x not in ps, and x+b*d in ps for some b >= 1.

    Such an x marks, per line, the first missing point after a run that is
    followed by more of the set further along d.  All candidates lie strictly
    between a section's extremes, so only consecutive position pairs with a
    jump of at least 2 contribute.
    """
    out: set[Point] = set()
    for sec in line_sections(ps, d):
        for a, b in zip(sec.positions, sec.positions[1:]):
            if b - a >= 2:
                out.add(tuple(c + (a + 1) * s for c, s in zip(sec.base, d)))
    return frozenset(out)


@dataclass(frozen=True)
class BoundaryBreakdown:
    """Edge boundary split by step direction.

    ``per_direction`` maps every nonzero direction in {-1,0,1}^n to a pair
    (occupied-line count, gap count); ``total`` is the sum of all entries and
    equals ``edge_boundary_count``.
    """

    per_direction: dict[Direction, tuple[int, int]]
    total: int

    @property
    def dim(self) -> int:
        return len(next(iter(self.per_direction)))


def edge_boundary_formula(ps: PointSet) -> BoundaryBreakdown:
    """Edge boundary as the directionwise sum of line counts and gap counts."""
    per = dict.fromkeys(_steps(ps.dim))  # lexicographic keys; each pair fills two
    total = 0
    for d, reverse, j in _direction_pairs(ps.dim):
        classes = _line_classes(ps.points, d, j)
        gaps = 0
        for ts in classes.values():
            if len(ts) > 1:
                ts.sort()
                gaps += sum(b - a >= 2 for a, b in zip(ts, ts[1:]))
        per[d] = per[reverse] = (len(classes), gaps)
        total += 2 * (len(classes) + gaps)
    return BoundaryBreakdown(per, total)


def partial_edge_boundary(
    ps: PointSet,
    axis: int,
    rest: tuple[int, ...],
    offset: tuple[int, ...],
) -> int:
    """Boundary edges from one lattice line to one neighboring line.

    The in-set endpoint must lie on the line where only the 1-based
    coordinate ``axis`` varies and the remaining coordinates equal ``rest``;
    the outside endpoint lies on the parallel line at ``rest + offset``.
    Offsets range over all of {-1,0,1}^(n-1) including zero, and summing
    this count over all offsets and all lines meeting the set recovers the
    full edge boundary.
    """
    n = ps.dim
    if not 1 <= axis <= n:
        raise IndexError(f"axis {axis} out of range 1..{n}")
    if len(rest) != n - 1 or len(offset) != n - 1:
        raise ValueError(f"rest and offset must have length {n - 1}")
    if any(s not in (-1, 0, 1) for s in offset):
        raise ValueError(f"offset entries must be in -1..1, got {offset}")

    inside = {p[axis - 1] for p in ps.points if p[: axis - 1] + p[axis:] == rest}
    if not inside:
        return 0
    shifted = tuple(r + s for r, s in zip(rest, offset))
    other = {p[axis - 1] for p in ps.points if p[: axis - 1] + p[axis:] == shifted}

    if not any(offset):
        # Same line: the only unit steps are +-1 along the axis.
        return sum(
            (x + 1 not in inside) + (x - 1 not in inside) for x in inside
        )
    # Parallel line one step away: any of the three aligned targets works.
    return sum(
        (x - 1 not in other) + (x not in other) + (x + 1 not in other)
        for x in inside
    )


def line_indices(ps: PointSet, axis: int) -> list[tuple[int, ...]]:
    """The (n-1)-tuples indexing lines along ``axis`` that meet ps."""
    if not 1 <= axis <= ps.dim:
        raise IndexError(f"axis {axis} out of range 1..{ps.dim}")
    return sorted({p[: axis - 1] + p[axis:] for p in ps.points})


__all__ = [
    "BoundaryBreakdown",
    "edge_boundary_count",
    "exterior_vertices",
    "exterior_vertex_boundary",
    "closed_vertex_boundary",
    "projection_count",
    "gap_set",
    "edge_boundary_formula",
    "partial_edge_boundary",
    "line_indices",
]
