"""Integer-lattice primitives for the king-move graph on Z^n.

Vertices are integer points; two points are adjacent when their Chebyshev
(l-infinity) distance is 1.  Every edge is a step by some nonzero vector in
{-1,0,1}^n, so those vectors double as the directions along which sets are
sliced into lines.
"""

from __future__ import annotations

import gc
import itertools
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from operator import add, countOf, getitem, index, neg, sub
from typing import Any, Callable, Iterable, Iterator, TypeVar

Point = tuple[int, ...]
Direction = tuple[int, ...]
Column = tuple[int, ...]  # one coordinate of every point of a set
LineTable = list[tuple[Column, ...]]
_T = TypeVar("_T")

MAX_DIMENSION = 12
_STEP_ENTRIES = frozenset((-1, 0, 1))


def _check_dimension(n: int) -> None:
    if not 1 <= n <= MAX_DIMENSION:
        raise ValueError(f"dimension must be in 1..{MAX_DIMENSION}, got {n}")


def _collector_paused(build: Callable[[int], _T]) -> Callable[[int], _T]:
    """``build`` run with the cyclic collector paused, and resumed only if it was on.

    Step tables hold only tuples of ints, which make no cycles; at n = 12 the
    collector's passes over their new tuples took most of the build time.
    """

    @wraps(build)
    def paused(n: int) -> _T:
        was_on = gc.isenabled()
        gc.disable()
        try:
            return build(n)
        finally:
            if was_on:
                gc.enable()

    return paused


@lru_cache(maxsize=None)
@_collector_paused
def _closed_steps(m: int) -> tuple[Direction, ...]:
    """All of {-1,0,1}^m, zero step included, in lexicographic order; m >= 0.

    The one table of king steps: p plus each entry is p's closed king
    neighbourhood N[p], and ``_steps`` is this table without the zero step.
    """
    return tuple(itertools.product((-1, 0, 1), repeat=m))


@lru_cache(maxsize=None)
@_collector_paused
def _steps(n: int) -> tuple[Direction, ...]:
    _check_dimension(n)
    return tuple(d for d in _closed_steps(n) if any(d))


def directions(n: int) -> list[Direction]:
    """All 3^n - 1 nonzero step vectors in {-1,0,1}^n, in lexicographic order.

    Dimensions above MAX_DIMENSION = 12 (531 440 steps) raise ValueError."""
    return list(_steps(n))


@lru_cache(maxsize=None)
@_collector_paused
def _direction_pairs(n: int) -> tuple[tuple[Direction, Direction, int], ...]:
    """Each direction d whose first nonzero entry is +1, with -d and that axis.

    d and -d slice a set into the same lines, so callers that only count
    lines and gaps visit each of these (3^n - 1) / 2 pairs once.  Negation
    reverses the lexicographic order of ``_steps(n)``, so its second half
    holds these d in order and each -d sits at the mirror place.
    """
    steps = _steps(n)
    half = len(steps) // 2
    mirrored = zip(steps[half:], reversed(steps[:half]))
    return tuple((d, r, d.index(1)) for d, r in mirrored)


def _integer(v: Any) -> int:
    """v as an int if it is an integer (bools and __index__ types included),
    never truncated; anything else, such as a float or a str, raises
    ValueError."""
    try:
        return index(v)
    except TypeError:
        raise ValueError(f"non-integer coordinate {v!r}") from None


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
    offset(d) is a code of ps.  Offsets come in ``_steps(n)`` order, so
    offset(-d) = -offset(d) sits at the mirror place.  The box and the
    codes are read from ps's coordinate columns, the codes as a running
    sum of stride times column over the axes, at C level with no Python
    loop per point.  The dimension is checked before any column or offset
    is built.
    """
    _check_dimension(ps.dim)
    if not ps.points:
        return set(), ()
    columns = _columns(ps)
    strides = [1]
    for column in columns[:0:-1]:  # the last axis varies fastest
        strides.append(strides[-1] * (max(column) - min(column) + 3))
    strides.reverse()
    codes: Iterable[int] = columns[-1]  # stride 1
    for s, column in zip(strides, columns[:-1]):
        codes = map(add, codes, map(s.__mul__, column))
    offsets = [0]
    for s in strides:  # the first axis varies slowest, as in _steps
        offsets = [o + t for o in offsets for t in (-s, 0, s)]
    del offsets[len(offsets) // 2]  # the zero step
    return set(codes), tuple(offsets)


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
        if countOf(map(len, self.points), self.dim) != len(self.points):
            bad = next(p for p in self.points if len(p) != self.dim)
            raise ValueError(f"point {bad} does not have dimension {self.dim}")

    @classmethod
    def _unchecked(cls, dim: int, points: frozenset[Point]) -> "PointSet":
        """A PointSet built without the dimension check, for points that are
        already known to have dimension ``dim``."""
        ps = object.__new__(cls)
        object.__setattr__(ps, "dim", dim)
        object.__setattr__(ps, "points", points)
        return ps

    @classmethod
    def of(cls, points: Iterable[Iterable[int]], dim: int | None = None) -> "PointSet":
        """Build from any iterable of coordinate sequences, inferring dim.

        An empty iterable needs an explicit dim.  Coordinates must be
        integers; a float or a str raises ValueError.
        """
        pts = frozenset(tuple(map(_integer, p)) for p in points)
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
        off = tuple(map(_integer, offset))
        if len(off) != self.dim:
            raise ValueError(f"offset {off} does not have dimension {self.dim}")
        return PointSet._unchecked(
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


def _line_axis(d: Direction, dim: int) -> int:
    """The first nonzero axis of d, once d is checked to be a step in Z^dim.

    Raises ValueError if d does not have dim entries, is zero, or has an
    entry outside {-1, 0, 1}.
    """
    if len(d) != dim:
        raise ValueError(f"direction {d} does not have dimension {dim}")
    if not _STEP_ENTRIES.issuperset(d):
        raise ValueError(f"direction entries must be in -1..1, got {d}")
    for j, s in enumerate(d):
        if s:
            return j
    raise ValueError("direction must be nonzero")


def line_base(p: Point, d: Direction) -> tuple[Point, int]:
    """Canonical representative of p's line in direction d, and p's position on it.

    d must be a nonzero step in {-1,0,1}^len(p); anything else raises ValueError.
    """
    j = _line_axis(d, len(p))
    t = p[j] * d[j]  # d[j] is +-1, so this zeroes coordinate j of the base
    base = tuple(a - t * s for a, s in zip(p, d))
    return base, t


def _columns(ps: PointSet) -> list[Column]:
    """ps's coordinates axis by axis, every column listing the points in one order.

    An empty set has ps.dim empty columns.
    """
    return list(zip(*ps.points)) or [()] * ps.dim


# Built per first nonzero axis, not per direction: per-direction bases need a
# Python loop over the axes, which dominates small sets in high dimension.
def _line_table(columns: list[Column], j: int) -> LineTable:
    """The base columns of the lines along every step whose first nonzero axis is j.

    For a step d with d[j] = 1, a point's line base is p - p[j] * d, so its
    coordinate i is column i, column i minus column j, or column i plus
    column j as d[i] is 0, 1 or -1: entry i holds those three at indices
    0, 1 and -1.  Axes before j are 0 in every such d and keep column i
    only.  Entry j holds column j, the positions, and zeros at index 1,
    the bases' coordinate j.
    """
    cj = columns[j]
    table = [(c,) for c in columns[:j]]
    table.append((cj, (0,) * len(cj)))
    table.extend(
        (c, tuple(map(sub, c, cj)), tuple(map(add, c, cj))) for c in columns[j + 1 :]
    )
    return table


def _line_classes(table: LineTable, d: Direction, j: int) -> dict[Point, list[int]]:
    """Map each line base along d to the unsorted positions of points on it.

    table is ``_line_table``'s for d's first nonzero axis j; bases and
    positions are those of line_base.  The bases are the table's columns at
    d's entries, zipped at C level, and the positions are column j, so the
    loop only files points.  A d with d[j] = -1 cuts the lines of -d, with
    positions negated.
    """
    positions = table[j][0]
    if d[j] < 0:
        d = tuple(map(neg, d))
        positions = tuple(map(neg, positions))
    classes: dict[Point, list[int]] = {}
    setdefault = classes.setdefault
    for base, t in zip(zip(*map(getitem, table, d)), positions):
        setdefault(base, []).append(t)
    return classes


def _line_positions(ps: PointSet, d: Direction) -> dict[Point, list[int]]:
    """``_line_classes`` of ps along d, bases to unsorted positions.

    d must be a nonzero step in {-1,0,1}^n; anything else raises ValueError.
    """
    j = _line_axis(d, ps.dim)
    return _line_classes(_line_table(_columns(ps), j), d, j)


def line_sections(ps: PointSet, d: Direction) -> list[LineSection]:
    """Partition ps into its line classes along d.

    Two points share a class iff they differ by an integer multiple of d.
    Sections come back sorted by base, positions sorted within each.  d must
    be a nonzero step in {-1,0,1}^n; anything else raises ValueError.
    """
    return [
        LineSection(base, d, tuple(sorted(ts)))
        for base, ts in sorted(_line_positions(ps, d).items())
    ]
