"""Search for minimal-edge-boundary sets of a given size and dimension.

The search does not scan arbitrary sets.  Axis compression maps any
size-k set, without raising its edge boundary, to a set whose every axis
section is a centered run, so the minimum over all size-k sets equals the
minimum over those fixed points.  Fixed points of a given size form a small
finite family near the origin, enumerated here layer by layer: a fixed point
in Z^n is exactly a nested chain of fixed points in Z^(n-1) stacked along the
last axis in center-out order.  Permuting coordinates maps the family onto
itself and keeps the boundary, so the scan scores one member per orbit.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, NamedTuple

from .core import Point, PointSet, _check_dimension
from .boundary import (
    BoundaryBreakdown,
    edge_boundary_count,
    edge_boundary_formula,
    exterior_vertex_boundary,
)
from .compression import canonical_segment

DEFAULT_MAX_SETS = 1_000_000
# Padding a planar fixed point with zero coordinates gives one in Z^n, so for
# n >= 2 the size-k family has at least p(k) members, and p(406) > 2^63 - 1.
# Refusing larger sizes also bounds the enumeration's recursion depth.
MAX_SIZE = 405
_Layers = dict[tuple[int, int], tuple[frozenset[Point], ...]]


class EnumerationOverflowError(ValueError):
    """Raised when an enumeration would exceed the cap its caller set: bad input."""


def _gap_free(b: BoundaryBreakdown) -> bool:
    return not any(gaps for _, gaps in b.per_direction.values())


def fully_gap_free(ps: PointSet) -> bool:
    """True iff ps has no gaps along any of the 3^n - 1 step directions."""
    return _gap_free(edge_boundary_formula(ps))


def _check_family(n: int, k: int) -> None:
    _check_dimension(n)
    if n >= 2 and k > MAX_SIZE:
        raise EnumerationOverflowError(
            f"more than 2^63 - 1 compressed sets for n={n}, k={k}"
        )


def _fixed_point_sets(
    n: int, k: int, layers: _Layers, cap: int, chain: tuple[frozenset[Point], ...] = ()
) -> Iterator[frozenset[Point]]:
    """Yield each set in Z^n with centered axis sections: ``chain`` plus k points.

    ``chain`` holds the layers stacked so far along the last axis.  Layer depth
    m = 1, 2, 3, ... sits at coordinate 0, 1, -1, 2, -2, ...; a section through
    the stack picks up exactly the layers containing its column, so sections
    along the last axis are centered runs iff consecutive layers are nested.
    ``layers`` memoizes the lower-dimensional families by (dimension, size),
    each built under ``cap``: stacking {0} layers on each size-s layer, s <= k,
    embeds that family in the size-k one, so it passes the cap no sooner.
    Layer sizes go smallest first, so the first set waits on no large family.
    """
    if n == 1:
        yield frozenset((x,) for x in canonical_segment(k))
        return
    if k == 0:
        pts: set[Point] = set()
        for depth, layer in enumerate(chain, start=1):
            y = depth // 2 if depth % 2 == 0 else -(depth // 2)
            pts.update(q + (y,) for q in layer)
        yield frozenset(pts)
        return
    largest = min(k, len(chain[-1])) if chain else k
    for size in range(1, largest + 1):
        if (n - 1, size) not in layers:
            family = tuple(islice(_fixed_point_sets(n - 1, size, layers, cap), cap + 1))
            if len(family) > cap:
                raise EnumerationOverflowError
            layers[n - 1, size] = family
        for layer in layers[n - 1, size]:
            if not chain or layer <= chain[-1]:
                yield from _fixed_point_sets(n, k - size, layers, cap, chain + (layer,))


def enumerate_compressed_sets(
    n: int, k: int, max_sets: int = DEFAULT_MAX_SETS
) -> Iterator[PointSet]:
    """Lazily yield every size-k set fixed by central compression on every axis.

    Sets are built one at a time, so ``max_sets`` bounds the work, layer
    families included; exceeding it raises EnumerationOverflowError rather
    than truncating, as does any k above MAX_SIZE for n >= 2, at any cap.
    No two sets are translates of each other, and all coordinates stay
    within ceil(k/2) + 1 of the origin.
    """
    _check_family(n, k)
    if k < 1:
        raise ValueError(f"size must be >= 1, got {k}")
    if max_sets < 1:
        raise ValueError(f"max_sets must be >= 1, got {max_sets}")
    sets = _fixed_point_sets(n, k, {}, max_sets)
    try:
        for pts in islice(sets, max_sets):
            yield PointSet(n, pts)
        if next(sets, None) is not None:
            raise EnumerationOverflowError
    except EnumerationOverflowError:
        raise EnumerationOverflowError(
            f"more than {max_sets} compressed sets for n={n}, k={k}; raise the cap"
        ) from None


def random_point_set(
    n: int, k: int, window: int | tuple[int, ...], seed: int
) -> PointSet:
    """Uniform k-subset of the box [0, w_1) x ... x [0, w_n), seeded."""
    extents = (window,) * n if isinstance(window, int) else tuple(window)
    if len(extents) != n:
        raise ValueError(f"window {extents} does not match dimension {n}")
    total = math.prod(max(w, 0) for w in extents)
    if total > sys.maxsize:
        raise ValueError(f"window of {total} cells is too large to sample")
    if total < k:
        raise ValueError(f"window of {total} cells cannot hold {k} points")
    strides = [math.prod(extents[j + 1 :]) for j in range(n)]
    cells = random.Random(seed).sample(range(total), k)
    pts = (tuple(i // s % w for s, w in zip(strides, extents)) for i in cells)
    return PointSet(n, frozenset(pts))


class WitnessStats(NamedTuple):
    exterior_vertex_boundary: int
    fully_gap_free: bool


@dataclass(frozen=True)
class SearchReport:
    """Outcome of a minimal-edge-boundary search for one (dimension, size).

    Witnesses are translated so their minimum corner is the origin and come
    with per-witness diagnostics.  Every search is an exhaustive scan that
    proves the minimum, so ``method`` is "exhaustive" and ``optimal`` is
    True.  Both fields stay in the report schema so that reports written by
    earlier versions, which could hold an unproved upper bound with
    ``optimal`` False, still parse.
    """

    dimension: int
    size: int
    min_edge_boundary: int
    witnesses: tuple[PointSet, ...]
    witness_stats: tuple[WitnessStats, ...]
    method: str
    optimal: bool
    sets_scanned: int

    @property
    def any_witness_gap_free(self) -> bool:
        return any(s.fully_gap_free for s in self.witness_stats)

    @property
    def all_witnesses_gap_free(self) -> bool:
        return all(s.fully_gap_free for s in self.witness_stats)


def _verify_candidate(ps: PointSet) -> BoundaryBreakdown:
    """A candidate's formula breakdown, checked against the direct count."""
    direct = edge_boundary_count(ps)
    breakdown = edge_boundary_formula(ps)
    if direct != breakdown.total:
        raise RuntimeError(
            f"boundary computations disagree on {sorted(ps.points)}: "
            f"direct={direct} formula={breakdown.total}"
        )
    return breakdown


def _orbit_if_first(ps: PointSet) -> list[PointSet] | None:
    """ps's distinct images under coordinate permutations, if ps sorts first.

    "Sorts first" compares sorted points lexicographically, and ps comes
    first in the returned list.  The orbit is walked breadth-first through
    the n - 1 adjacent coordinate swaps, which generate every permutation,
    so the work is at most |orbit| * (n - 1) images and never n!.  Returns
    None at the first image that sorts below ps.
    """
    key = sorted(ps.points)
    seen = {ps.points}
    orbit = [ps.points]
    for pts in orbit:  # grows while it is walked: the breadth-first queue
        for i in range(ps.dim - 1):
            image = frozenset(p[:i] + (p[i + 1], p[i]) + p[i + 2 :] for p in pts)
            if image in seen:
                continue
            if sorted(image) < key:
                return None
            seen.add(image)
            orbit.append(image)
    return [PointSet(ps.dim, pts) for pts in orbit]


def min_edge_boundary(
    n: int, k: int, *, max_sets: int = DEFAULT_MAX_SETS
) -> SearchReport:
    """Minimal edge boundary over all size-k subsets of Z^n, proved optimal.

    Scans the compressed fixed-point family and returns the true minimum
    with every minimizing witness.  The family is closed under coordinate
    permutations, which preserve the boundary, so only the member that sorts
    first in each orbit is scored, by both routes; a scored set that ties or
    beats the best brings its whole orbit into the witnesses, and each of
    those other orbit members is checked by both routes once after the scan.
    Gap diagnostics read each witness's checked breakdown.  ``sets_scanned``
    counts every enumerated set.
    """
    best: int | None = None
    orbits: list[tuple[BoundaryBreakdown, list[PointSet]]] = []
    scanned = 0
    for ps in enumerate_compressed_sets(n, k, max_sets=max_sets):
        scanned += 1
        orbit = _orbit_if_first(ps)
        if orbit is None:
            continue
        b = _verify_candidate(ps)
        if best is None or b.total < best:
            best, orbits = b.total, [(b, orbit)]
        elif b.total == best:
            orbits.append((b, orbit))
    assert best is not None
    found = [(orbit[0].normalized(), b) for b, orbit in orbits]
    for _, orbit in orbits:
        for ps in orbit[1:]:
            b = _verify_candidate(ps)
            if b.total != best:
                raise RuntimeError(
                    f"witness {sorted(ps.points)} has boundary {b.total}, "
                    f"but its orbit's first member has {best}"
                )
            found.append((ps.normalized(), b))
    found.sort(key=lambda w: sorted(w[0].points))
    return SearchReport(
        dimension=n,
        size=k,
        min_edge_boundary=best,
        witnesses=tuple(ps for ps, _ in found),
        witness_stats=tuple(
            WitnessStats(exterior_vertex_boundary(ps), _gap_free(b))
            for ps, b in found
        ),
        method="exhaustive",
        optimal=True,
        sets_scanned=scanned,
    )


def survey_gap_free_optima(
    n: int, k_max: int, *, max_sets: int = DEFAULT_MAX_SETS
) -> list[SearchReport]:
    """Exhaustive minima for every size up to k_max, with gap diagnostics.

    Each report records whether some, and whether every, minimizing witness
    is gap-free in all directions, not just along the axes.
    """
    if k_max < 1:
        raise ValueError(f"size must be >= 1, got {k_max}")
    _check_family(n, k_max)
    return [
        min_edge_boundary(n, k, max_sets=max_sets)
        for k in range(1, k_max + 1)
    ]
