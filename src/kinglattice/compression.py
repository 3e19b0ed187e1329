"""Central compression: recentering every axis section of a set around 0.

Compressing along one axis keeps the set's size, never increases its edge
boundary, and leaves no gaps along that axis.  Iterating over all axes
drives any finite set to a fixed point whose every axis section is a
centered run; a lexicographic potential certifies that the iteration halts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import PointSet, insert_coordinate
from .boundary import edge_boundary_count


def canonical_segment(m: int) -> range:
    """The centered run of m integers: {-a..a} for m=2a+1, {-a..a+1} for m=2a+2.

    Even sizes take the right-biased form, so canonical_segment(2) is {0, 1}.
    m = 0 gives the empty range.
    """
    if m < 0:
        raise ValueError(f"segment size must be >= 0, got {m}")
    return range(-((m - 1) // 2), m // 2 + 1)


def central_compress(ps: PointSet, axis: int) -> PointSet:
    """Replace every section along the 1-based ``axis`` by its centered run.

    Section sizes are preserved line by line, so the result has the same
    cardinality and the same occupied lines along that axis.
    """
    if not 1 <= axis <= ps.dim:
        raise IndexError(f"axis {axis} out of range 1..{ps.dim}")
    sections = Counter(p[: axis - 1] + p[axis:] for p in ps.points)
    out = frozenset(
        insert_coordinate(rest, x, axis)
        for rest, size in sections.items()
        for x in canonical_segment(size)
    )
    return PointSet(ps.dim, out)


def potential(ps: PointSet) -> tuple[int, int]:
    """(sum of squared coordinates, minus the sum of coordinates), compared
    lexicographically.

    A compression step that changes the set strictly lowers this pair: the
    centered run minimizes the squared-coordinate sum along its line, and the
    only way to change a section without lowering that sum is to flip the
    left-biased even run to the right-biased one, which raises the plain
    coordinate sum.
    """
    sum_sq = sum(c * c for p in ps.points for c in p)
    coord_sum = sum(c for p in ps.points for c in p)
    return (sum_sq, -coord_sum)


@dataclass(frozen=True)
class CompressionStep:
    axis: int
    boundary_before: int
    boundary_after: int
    potential_before: tuple[int, int]
    potential_after: tuple[int, int]


@dataclass(frozen=True)
class CompressionTrace:
    """The changing steps of an iterated compression, plus the fixed point."""

    steps: tuple[CompressionStep, ...]
    final: PointSet


def compress_to_fixed_point(ps: PointSet) -> CompressionTrace:
    """Compress round-robin over axes 1..n until a full pass changes nothing.

    Every recorded step changed the set; each strictly lowers the potential
    (checked) and never raises the edge boundary, so the final set has the
    original size, an edge boundary no larger than the original, and no gaps
    along any coordinate axis.
    """
    steps: list[CompressionStep] = []
    current = ps
    changed = True
    while changed:
        changed = False
        for axis in range(1, ps.dim + 1):
            nxt = central_compress(current, axis)
            if nxt.points == current.points:
                continue
            if steps:
                last = steps[-1]
                before, pot_before = last.boundary_after, last.potential_after
            else:
                before, pot_before = edge_boundary_count(current), potential(current)
            pot_after = potential(nxt)
            if pot_after >= pot_before:
                raise RuntimeError(
                    f"potential did not decrease on axis {axis}: "
                    f"{pot_before} -> {pot_after}"
                )
            after = edge_boundary_count(nxt)
            steps.append(CompressionStep(axis, before, after, pot_before, pot_after))
            current = nxt
            changed = True
    return CompressionTrace(tuple(steps), current)
