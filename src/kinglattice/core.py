"""Integer-lattice primitives for the king-move graph on Z^n.

Vertices are integer points; two points are adjacent when their Chebyshev
(l-infinity) distance is 1.  Every edge is a step by some nonzero vector in
{-1,0,1}^n, so those vectors double as the directions along which sets are
sliced into lines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from operator import add, mul
from typing import Iterable, Iterator

Point = tuple[int, ...]
Direction = tuple[int, ...]

MAX_DIMENSION = 12


def _check_dimension(n: int) -> None:
    if not 1 <= n <= MAX_DIMENSION:
        raise ValueError(f"dimension must be in 1..{MAX_DIMENSION}, got {n}")


@lru_cache(maxsize=None)
def _steps(n: int) -> tuple[Direction, ...]:
    _check_dimension(n)
    return tuple(d for d in itertools.product((-1, 0, 1), repeat=n) if any(d))


def directions(n: int) -> list[Direction]:
    """All 3^n - 1 nonzero step vectors in {-1,0,1}^n, in lexicographic order.

    Dimensions above MAX_DIMENSION = 12 (531 440 steps) raise ValueError."""
    return list(_steps(n))


@lru_cache(maxsize=None)
def _direction_pairs(n: int) -> tuple[tuple[Direction, Direction, int], ...]:
    """Each direction d whose first nonzero entry is +1, with -d and that axis.

    d and -d slice a set into the same lines, so callers that only count
    lines and gaps visit each of these (3^n - 1) / 2 pairs once.
    """
    pairs = []
    for d in directions(n):
        j = _first_axis(d)
        if d[j] == 1:
            pairs.append((d, tuple(-s for s in d), j))
    return tuple(pairs)


def chebyshev_distance(u: Point, v: Point) -> int:
    """max_i |u_i - v_i|; adjacency in the king graph means this equals 1."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return max(abs(a - b) for a, b in zip(u, v))


def neighbors(p: Point) -> list[Point]:
    """The 3^n - 1 points at Chebyshev distance exactly 1 from p."""
    return [tuple(map(add, p, d)) for d in _steps(len(p))]


def _offset_codes(ps: PointSet) -> tuple[set[int], tuple[int, ...]]:
    """ps's points as ints, and the 3^n - 1 steps as int offsets.

    A point's code is its mixed-radix index in ps's bounding box padded by
    1 on every side, plus a constant fixed by the box: the sum of its
    coordinates times the strides, the last axis's stride being 1.  The
    code is one-to-one on the padded box, which holds every neighbour of a
    point of ps, so for p in ps, p + d is in ps exactly when code(p) +
    offset(d) is a code of ps.  Offsets come in ``_steps(n)`` order.  The
    dimension is checked before any offset is built.
    """
    _check_dimension(ps.dim)
    if not ps.points:
        return set(), ()
    strides = [1]
    for j in range(ps.dim - 1, 0, -1):
        axis = [p[j] for p in ps.points]
        strides.append(strides[-1] * (max(axis) - min(axis) + 3))
    strides.reverse()
    offsets = [0]
    for s in strides:  # the first axis varies slowest, as in _steps
        offsets = [o + t for o in offsets for t in (-s, 0, s)]
    del offsets[len(offsets) // 2]  # the zero step
    return {sum(map(mul, p, strides)) for p in ps.points}, tuple(offsets)


def insert_coordinate(rest: tuple[int, ...], value: int, axis: int) -> Point:
    """Place value at 1-based position axis, shifting the tail of rest right.

    insert_coordinate((7, 9), 4, 1) == (4, 7, 9) and axis may run up to
    len(rest) + 1, giving (7, 9, 4).
    """
    if not 1 <= axis <= len(rest) + 1:
        raise IndexError(f"axis {axis} out of range 1..{len(rest) + 1}")
    return rest[: axis - 1] + (value,) + rest[axis - 1 :]


def delete_coordinate(p: Point, axis: int) -> tuple[int, ...]:
    """Remove the 1-based coordinate axis; inverse of insert_coordinate."""
    if not 1 <= axis <= len(p):
        raise IndexError(f"axis {axis} out of range 1..{len(p)}")
    return p[: axis - 1] + p[axis:]


@dataclass(frozen=True)
class PointSet:
    """A finite set of lattice points with an explicit ambient dimension.

    The dimension is carried separately so that the empty set in Z^2 is
    distinct from the empty set in Z^3.  Iteration is always in sorted
    order, so anything derived from a PointSet is reproducible.
    """

    dim: int
    points: frozenset[Point] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        for p in self.points:
            if len(p) != self.dim:
                raise ValueError(f"point {p} does not have dimension {self.dim}")

    @classmethod
    def of(cls, points: Iterable[Iterable[int]], dim: int | None = None) -> "PointSet":
        """Build from any iterable of coordinate sequences, inferring dim.

        An empty iterable needs an explicit dim.
        """
        pts = frozenset(tuple(int(c) for c in p) for p in points)
        if dim is None:
            if not pts:
                raise ValueError("cannot infer dimension of an empty set")
            dim = len(next(iter(pts)))
        return cls(dim, pts)

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, p: Point) -> bool:
        return p in self.points

    def __iter__(self) -> Iterator[Point]:
        return iter(sorted(self.points))

    def translate(self, offset: Iterable[int]) -> "PointSet":
        off = tuple(offset)
        if len(off) != self.dim:
            raise ValueError(f"offset {off} does not have dimension {self.dim}")
        return PointSet(
            self.dim,
            frozenset(tuple(a + b for a, b in zip(p, off)) for p in self.points),
        )

    def normalized(self) -> "PointSet":
        """Translate so the minimum along every axis is 0 (identity if empty)."""
        if not self.points:
            return self
        lows = [min(p[j] for p in self.points) for j in range(self.dim)]
        return self.translate([-v for v in lows])


@dataclass(frozen=True)
class LineSection:
    """The trace of a set along one lattice line in a given direction.

    ``base`` is the canonical representative of the line: the unique point of
    the line whose coordinate at the direction's first nonzero axis is 0.
    ``positions`` are the strictly increasing integers t with
    base + t*direction in the set.
    """

    base: Point
    direction: Direction
    positions: tuple[int, ...]

    def points(self) -> list[Point]:
        d = self.direction
        return [tuple(b + t * s for b, s in zip(self.base, d)) for t in self.positions]

    def runs(self) -> int:
        """Number of maximal blocks of consecutive positions."""
        if not self.positions:
            return 0
        return 1 + sum(
            1
            for a, b in zip(self.positions, self.positions[1:])
            if b - a >= 2
        )


def _first_axis(d: Direction) -> int:
    return next(i for i, s in enumerate(d) if s)


def line_base(p: Point, d: Direction) -> tuple[Point, int]:
    """Canonical representative of p's line in direction d, and p's position on it."""
    j = _first_axis(d)
    t = p[j] * d[j]  # d[j] is +-1, so this zeroes coordinate j of the base
    base = tuple(a - t * s for a, s in zip(p, d))
    return base, t


def _line_classes(
    points: Iterable[Point], d: Direction, j: int
) -> dict[Point, list[int]]:
    """Map each line base along d to the unsorted positions of points on it.

    j is d's first nonzero axis; bases and positions are those of line_base.
    """
    s = d[j]
    classes: dict[Point, list[int]] = {}
    for p in points:
        t = p[j] * s
        classes.setdefault(tuple([a - t * c for a, c in zip(p, d)]), []).append(t)
    return classes


def line_sections(ps: PointSet, d: Direction) -> list[LineSection]:
    """Partition ps into its line classes along d.

    Two points share a class iff they differ by an integer multiple of d.
    Sections come back sorted by base, positions sorted within each.
    """
    if len(d) != ps.dim:
        raise ValueError(f"direction {d} does not have dimension {ps.dim}")
    if not any(d):
        raise ValueError("direction must be nonzero")
    classes = _line_classes(ps.points, d, _first_axis(d))
    return [
        LineSection(base, d, tuple(sorted(ts)))
        for base, ts in sorted(classes.items())
    ]
