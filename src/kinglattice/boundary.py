"""Boundary quantities for finite sets in the king-move lattice graph.

Two routes to the edge boundary are provided on purpose.
``edge_boundary_count`` counts the 3^n - 1 steps from each point that leave
the set.  Points and steps are the integer codes of ``core._offset_codes``,
built from the coordinate columns, so a step is an addition and a
membership test; the steps that stay inside are counted over the upper
half of the offsets, in one C-level stream of (code, offset) pairs, and
doubled, since each inside edge is a step both ways.  ``edge_boundary_formula``
counts, for every step direction, the occupied lines plus the gap starts
along those lines.  A direction d and its reverse -d cut a set into the
same lines with mirrored positions, so the formula groups each +-d pair
once and stores the counts under both.  It reads the points' coordinates
as columns, one per axis: for each first nonzero axis j of d it builds
``core._line_table`` once, whose columns p[i], p[i] - p[j] and
p[i] + p[j] give every line base along the pairs with that axis, and it
counts gaps from sorted positions.  It never goes through the step codes
or ``neighbors``; the two totals agree on every finite set, and keeping
both exposes that identity as a runtime check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, product, starmap
from operator import add, methodcaller, sub

from .core import (
    Direction,
    Point,
    PointSet,
    _columns,
    _line_classes,
    _line_positions,
    _line_table,
    _offset_codes,
    _steps,
    neighbors,
)


def edge_boundary_count(ps: PointSet) -> int:
    """Number of edges with exactly one endpoint in ps.

    Counts every point's steps that leave ps, so each edge is counted once,
    from its in-set endpoint: k(3^n - 1) less the steps that land in ps.
    Points and steps are the codes of ``_offset_codes``, so a step is an
    addition and a membership test.  An inside step c -> c + o is the same
    edge as the inside step c + o -> c along -o, so the inside steps along
    the upper half of the offsets, those of the d whose first nonzero entry
    is +1, are half of all of them: that half is counted over the product
    of codes and offsets in one C-level stream, and doubled.
    """
    codes, offsets = _offset_codes(ps)
    half = offsets[len(offsets) // 2 :]  # each -o sits at the mirror place
    inside = sum(map(codes.__contains__, starmap(add, product(codes, half))))
    return len(codes) * len(offsets) - 2 * inside


def exterior_vertices(ps: PointSet) -> frozenset[Point]:
    """The points outside ps adjacent to at least one point of ps."""
    pts = ps.points
    return frozenset(q for p in pts for q in neighbors(p) if q not in pts)


def exterior_vertex_boundary(ps: PointSet) -> int:
    """Number of points outside ps adjacent to at least one point of ps.

    Counts the codes that ps's steps reach and ps does not hold, as
    ``edge_boundary_count`` steps, over all of the offsets;
    ``exterior_vertices`` lists the points.
    """
    codes, offsets = _offset_codes(ps)
    return len(set(starmap(add, product(codes, offsets))) - codes)


def closed_vertex_boundary(ps: PointSet) -> int:
    """Points at distance <= 1 from ps: the set itself plus its neighbors."""
    return exterior_vertex_boundary(ps) + len(ps)


def projection_count(ps: PointSet, d: Direction) -> int:
    """Number of distinct lines in direction d that meet ps."""
    return len(_line_positions(ps, d))


def gap_set(ps: PointSet, d: Direction) -> frozenset[Point]:
    """Points x with x-d in ps, x not in ps, and x+b*d in ps for some b >= 1.

    Such an x marks, per line, the first missing point after a run that is
    followed by more of the set further along d.  All candidates lie strictly
    between a section's extremes, so only consecutive position pairs with a
    jump of at least 2 contribute.
    """
    out: set[Point] = set()
    for base, ts in _line_positions(ps, d).items():
        ts.sort()
        for a, b in zip(ts, ts[1:]):
            if b - a >= 2:
                out.add(tuple(c + (a + 1) * s for c, s in zip(base, d)))
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
    steps = _steps(ps.dim)  # checks the dimension before any column is built
    half = len(steps) // 2
    columns = _columns(ps)
    counts: list[tuple[int, int]] = []
    # the upper half of steps holds the d whose first nonzero entry is +1,
    # grouped by that axis j from n - 1 down to 0; -d cuts the same lines
    for j, ds in groupby(steps[half:], methodcaller("index", 1)):
        table = _line_table(columns, j)
        for d in ds:
            classes = _line_classes(table, d, j)
            gaps = 0
            for ts in classes.values():
                if len(ts) > 1:
                    ts.sort()
                    gaps += sum(map((2).__le__, map(sub, ts[1:], ts)))
            counts.append((len(classes), gaps))
    # each -d sits at the mirror place of d in the first half of steps: one
    # dict insert per direction
    per = dict(zip(steps, counts[::-1] + counts))
    return BoundaryBreakdown(per, 2 * sum(map(sum, counts)))


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
    The count takes the ``neighbors`` of the line's points that lie outside
    ps and on the parallel line.  Offsets range over all of {-1,0,1}^(n-1)
    including zero, and summing this count over all offsets and all lines
    meeting the set recovers the full edge boundary.
    """
    n = ps.dim
    if not 1 <= axis <= n:
        raise IndexError(f"axis {axis} out of range 1..{n}")
    if len(rest) != n - 1 or len(offset) != n - 1:
        raise ValueError(f"rest and offset must have length {n - 1}")
    if any(s not in (-1, 0, 1) for s in offset):
        raise ValueError(f"offset entries must be in -1..1, got {offset}")

    pts = ps.points
    shifted = tuple(r + s for r, s in zip(rest, offset))
    return sum(
        q not in pts and q[: axis - 1] + q[axis:] == shifted
        for p in pts
        if p[: axis - 1] + p[axis:] == rest
        for q in neighbors(p)
    )


def line_indices(ps: PointSet, axis: int) -> list[tuple[int, ...]]:
    """The (n-1)-tuples indexing lines along ``axis`` that meet ps."""
    if not 1 <= axis <= ps.dim:
        raise IndexError(f"axis {axis} out of range 1..{ps.dim}")
    return sorted({p[: axis - 1] + p[axis:] for p in ps.points})

