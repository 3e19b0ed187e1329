"""Central compression: recentering every axis section of a set around 0.

Compressing along one axis keeps the set's size, never increases its edge
boundary, leaves no gaps along that axis and keeps every other axis's
sections centered, so one sweep over the axes reaches a fixed point.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import PointSet, _check_dimension, insert_coordinate
from .boundary import edge_boundary_count


def canonical_segment(m: int) -> range:
    """The centered run of m integers: the first m of 0, 1, -1, 2, -2, ...

    So {-a..a} for m=2a+1 and the right-biased {-a..a+1} for m=2a+2.
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
    return PointSet._unchecked(ps.dim, out)


def potential(ps: PointSet) -> tuple[int, int]:
    """(sum of squared coordinates, minus the sum of coordinates), compared
    lexicographically.

    A changing compression step strictly lowers this pair, as
    ``compress_to_fixed_point`` checks per step: the centered run minimizes
    the squared sum along its line, and the only change keeping that sum flips
    a left-biased even run to the right-biased one, raising the plain sum.
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
    """The changing steps of a compression sweep from ``initial`` to the
    fixed point ``final``; ``serialize_report`` writes it, ``parse_report``
    rejects it."""

    steps: tuple[CompressionStep, ...]
    final: PointSet
    initial: PointSet


def compress_to_fixed_point(ps: PointSet) -> CompressionTrace:
    """Compress along axes 1..n once each, recording the changing steps.

    Each step strictly lowers the potential (checked) and never raises the
    edge boundary.  Dimensions outside 1..12 raise ValueError before any work.

    One sweep is enough.  Take a set whose every axis-i section is centered,
    compress it along axis j != i, and work in each plane of axes i and j.
    A centered run is a prefix of the order 0, 1, -1, 2, -2, ..., so the
    length c(x) of the column at x (a line along j), which counts the rows
    whose run contains x, never increases along that order.  Afterwards row
    y holds exactly the x with c(x) greater than y's rank in that order:
    again a prefix, so a centered run.  So the sweep leaves every axis
    centered, and the result is the fixed point.
    """
    _check_dimension(ps.dim)
    steps: list[CompressionStep] = []
    current = ps
    before = pot_before = None  # measured at the first changing step only
    for axis in range(1, ps.dim + 1):
        nxt = central_compress(current, axis)
        if nxt.points == current.points:
            continue
        if before is None:
            before, pot_before = edge_boundary_count(current), potential(current)
        pot_after = potential(nxt)
        if pot_after >= pot_before:
            raise RuntimeError(
                f"potential did not decrease on axis {axis}: "
                f"{pot_before} -> {pot_after}"
            )
        after = edge_boundary_count(nxt)
        steps.append(CompressionStep(axis, before, after, pot_before, pot_after))
        current, before, pot_before = nxt, after, pot_after
    return CompressionTrace(tuple(steps), current, ps)
