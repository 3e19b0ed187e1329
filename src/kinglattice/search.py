"""Search for minimal-edge-boundary sets of a given size and dimension.

The search does not scan arbitrary sets.  Axis compression maps any
size-k set, without raising its edge boundary, to a set whose every axis
section is a centered run, so the minimum over all size-k sets equals the
minimum over those fixed points.  A fixed point in Z^n is exactly a nested
chain of fixed points in Z^(n-1) stacked along the last axis in center-out
order, and its edge boundary is k(3^n - 1) minus twice its inside edges,
which add up layer by layer.  So the search finds the most inside edges by
a longest-path DP over layer chains, counts the family with the same
recursion, and checks only the chains that reach the optimum.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from bisect import bisect_left
from itertools import chain, islice, repeat
from operator import add
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .core import Point, PointSet, _check_dimension, _closed_steps
from .boundary import (
    BoundaryBreakdown,
    edge_boundary_count,
    edge_boundary_formula,
    exterior_vertex_boundary,
)

DEFAULT_MAX_SETS = 1_000_000
# Padding a planar fixed point with zero coordinates gives one in Z^n, so for
# n >= 2 the size-k family has at least p(k) members, and p(406) > 2^63 - 1.
# No cap lets a walk or a search of that many sets finish, so larger sizes are
# refused at any cap, before any layer is built.
MAX_SIZE = 405


class EnumerationOverflowError(ValueError):
    """Raised when an enumeration would exceed the cap its caller set: bad input."""


def _gap_free(b: BoundaryBreakdown) -> bool:
    return not any(gaps for _, gaps in b.per_direction.values())


def fully_gap_free(ps: PointSet) -> bool:
    """True iff ps has no gaps along any of the 3^n - 1 step directions."""
    return _gap_free(edge_boundary_formula(ps))


def _check_request(n: int, k: int, max_sets: int) -> None:
    _check_dimension(n)
    if n >= 2 and k > MAX_SIZE:
        raise EnumerationOverflowError(
            f"more than 2^63 - 1 compressed sets for n={n}, k={k}"
        )
    if k < 1:
        raise ValueError(f"size must be >= 1, got {k}")
    if max_sets < 1:
        raise ValueError(f"max_sets must be >= 1, got {max_sets}")


def _overflow(n: int, k: int, max_sets: int) -> EnumerationOverflowError:
    return EnumerationOverflowError(
        f"more than {max_sets} compressed sets for n={n}, k={k}; raise the cap"
    )


# a layer's id and the points minimal outside it
_Fringe = tuple[int, list[Point]]


class _LayerChain:
    """Tables for walks and a DP over nested chains of (n-1)-dimensional layers.

    A fixed point S in Z^n is a chain L1 ⊇ L2 ⊇ ... of layers, fixed points
    in Z^(n-1), at heights 0, 1, -1, 2, -2, ... (see ``walk``).  A set has
    every axis section centered iff it is a down-set of the product of
    n - 1 copies of the order 0 < 1 < -1 < 2 < -2 < ..., so the size-s
    layers are the size-(s-1) layers L, each with one point p minimal
    outside it added.  ``_add_size`` grows them in one pass over the fringe,
    the size-(s-1) layers with their minimal outside points: a mask met
    again keeps its first removal, and a new one is built on the spot, its
    points L's plus p, its own minimal points found from p's neighbours.
    Ids ascend with size, in a fixed order within a size.

    The walk and the DP step from a layer B, r points left after it, to
    each layer C ⊆ B with |C| <= r, and ``steps`` finds those C in a pool:
    the steps of the state that reached B, or every layer for a first one.
    A state (B, r) reached from (A, r') has B ⊆ A and r = r' - |B| < r', so
    every layer inside B with at most r points is among A's steps.  So a
    state's steps do not depend on which parent reached it first, and the
    state table's keys hold no pool.  That one table, ``_states``, serves
    the count and the maximisation alike: ``family_size`` settles each state
    once, finding its steps and its count, and ``optimal_sets`` adds the
    gains of the states settled since its last call.

    Layer 0 is the one-point layer {0}, the only layer of size 1, and its
    only sub-layer is itself.  So a chain that reaches it with r points to
    place, its own included, repeats it r - 1 more times: its tail is the
    forced column of r points over the origin, which ``walk`` yields in one
    step.

    Layers at adjacent heights are (L1, L2), (L1, L3) and (L_m, L_(m+2)) for
    m >= 2, so S's inside edges E_int(S) are the sum of E(L_m), the edges
    inside each layer, and of cross(A, C) = sum over c in C of |N[c] ∩ A|
    over those pairs, N[c] being c's closed king neighbourhood in Z^(n-1).
    With a virtual L0 = L1 every step has the same form: after layers A and
    B, with r points left, the next layer C ⊆ B scores E(C) + cross(A, C),
    and only cross reads A.  So each state keeps its steps C with their
    gains E(C) + f(B, C, r - |C|), and f(A, B, r), the most edges r more
    points add after A and B, is the largest cross(A, C) + gain.  E and
    cross grow along the removals: E(L) = E(L - {p}) + |N(p) ∩ L| and
    cross(A, C) = cross(A, C - {p}) + |N[p] ∩ A|.  C - {p}, C's parent in
    ``removal``, is inside C ⊆ B and smaller, so for a step C of (B, r) it
    is -1, the empty layer, or an earlier step, and ``crosses`` finds every
    step's cross in one pass that keeps nothing.  ``walk`` is the one place
    that stacks a chain into its set in Z^n.

    Layers are bit masks over a table of cells.  Each point of Z^(n-1) gets
    the next cell number i, and the bit 1 << i, the first time a layer
    gains it, so a layer's mask is its parent's in ``removal`` with p's bit
    set, and C ⊆ B is ``not masks[c] & ~masks[b]``.  Each layer also keeps
    its points as a tuple, its parent's plus p, for ``walk`` to lift.
    ``closed[i]`` is the mask of N[p] among the numbered cells: numbering a
    cell ORs its bit into the closed masks of its numbered neighbours, and
    theirs into its own.  So closed[i] always holds N[p] ∩ (numbered
    cells), even for a neighbour numbered after p, and as every point of a
    built layer A is numbered, |N[p] ∩ A| is (masks[a] & closed[i]).bit_count()
    whenever E or cross asks.  Only the points that layers gain are numbered,
    and the up-steps tested for minimality are not.
    """

    def __init__(self, n: int, cap: int) -> None:
        self.n, self.cap = n, cap
        self.points: list[tuple[Point, ...]] = []
        self.masks: list[int] = []
        self.size: list[int] = []
        self.edges: list[int] = []
        self.removal: list[tuple[int, int]] = []  # (id of L - {p}, p's cell); -1 is {}
        self._starts = [0]  # ids of size s are range(_starts[s - 1], _starts[s])
        self._bits: dict[Point, int] = {}  # each numbered cell p: 1 << its number
        self.closed: list[int] = []  # by cell number: the mask of N[p]
        # each layer of the largest size built, by mask; id -1 is {}
        self._fringe: dict[int, _Fringe] = {0: (-1, [(0,) * (n - 1)])}
        self._nears: dict[Point, tuple[tuple[Point, ...], ...]] = {}
        # each settled (layer, points left) state: [count, steps, gains]
        self._states: dict[tuple[int, int], list] = {}
        self._gained = 0  # the states before this one have their gains

    def family(self, s: int) -> range:
        """Ids of the size-s layers; raises EnumerationOverflowError past the cap."""
        while len(self._starts) <= s:
            self._add_size(len(self._starts))
        return range(self._starts[s - 1], self._starts[s])

    def _add_size(self, s: int) -> None:
        """Build the size-s layers, and their fringe, in one pass over the
        fringe of size s - 1; refuse a family of more than ``cap`` layers."""
        bits, closed, zeros = self._bits, self.closed, repeat(0)
        points, edges = self.points, self.edges
        fringe: dict[int, _Fringe] = {}
        for below, (rest, corners) in self._fringe.items():
            kept, base = (points[rest], edges[rest]) if rest >= 0 else ((), 0)
            for p in corners:
                bit = bits.get(p) or self._number(p)
                mask = below | bit
                if mask in fringe:  # built already: its first removal stands
                    continue
                if len(fringe) == self.cap:
                    raise EnumerationOverflowError
                # p's up-steps are the only points that adding p can make minimal,
                # and u is minimal once the layer holds each of its down-steps
                minimal = [q for q in corners if q != p]
                for u in self._near(p)[0]:
                    if all(map(mask.__and__, map(bits.get, self._near(u)[1], zeros))):
                        minimal.append(u)
                i = bit.bit_length() - 1
                fringe[mask] = len(points), minimal
                points.append(kept + (p,))
                self.masks.append(mask)
                self.size.append(s)
                edges.append(base + (mask & closed[i]).bit_count() - 1)
                self.removal.append((rest, i))
        self._fringe = fringe
        self._starts.append(len(points))

    def _number(self, q: Point) -> int:
        """Give q the next cell number, link it into the closed masks of its
        numbered neighbours and theirs into its own, and return its bit."""
        bits, closed = self._bits, self.closed
        bit = around = 1 << len(closed)
        for d in _closed_steps(len(q)):
            other = bits.get(tuple(map(add, q, d)))
            if other:
                around |= other
                closed[other.bit_length() - 1] |= bit
        bits[q] = bit
        closed.append(around)
        return bit

    def _near(self, q: Point) -> tuple[tuple[Point, ...], ...]:
        """q one place up the order 0 < 1 < -1 < 2 < ... on each axis, and
        one place down on each axis where q is not 0."""
        near = self._nears.get(q)
        if near is None:
            cut = [(q[:i], x, q[i + 1 :]) for i, x in enumerate(q)]
            near = self._nears[q] = (
                tuple(a + (-x if x > 0 else 1 - x,) + b for a, x, b in cut),
                tuple(a + (1 - x if x > 0 else -x,) + b for a, x, b in cut if x),
            )
        return near

    def steps(self, b: int, r: int, pool: Sequence[int]) -> list[int]:
        """Each layer C ⊆ B with |C| <= r, ascending, from a sorted ``pool``
        that holds them all."""
        masks = self.masks
        outside = ~masks[b]
        cut = bisect_left(pool, self._starts[min(r, self.size[b])])
        return [c for c in pool[:cut] if not masks[c] & outside]

    def walk(
        self, k: int, firsts: Iterable[int], keep: Callable[..., list] | None = None
    ) -> Iterator[frozenset[Point]]:
        """Each set in Z^n stacked from a chain of layers with k points in
        all, first layer from ``firsts``.

        Depth m = 1, 2, 3, ... sits at height 0, 1, -1, 2, -2, ...; a section
        through the stack meets exactly the layers holding its column, so
        sections along the last axis are centered runs iff the layers nest.
        Depth first on an explicit stack; a lazy ``firsts`` builds no layer
        family before the walk reaches it.  From layers A and B with r points
        left it takes the steps ``keep(A, B, r)`` lists, if given, or else
        every step ``steps`` finds in the pool of the state before.  A
        layer on the walk's path is lifted to its height once, when the walk
        reaches it, and every set below it reuses those points.

        The one-point layer 0 has no sub-layer but itself, so a chain that
        reaches it with r points to place, its own included, is forced to
        the end: the origin at that depth and the r - 1 after it.  The walk
        yields that set at once, from the layers above and a slice of the
        origin lifted to every depth, built the first time layer 0 is
        reached.  ``keep`` could only have listed layer 0 there, so it is not
        asked.  Beyond the layer tables the walk holds O(k) points: one
        lifted layer per depth and that column.
        """
        points, size = self.points, self.size
        # rises[m] repeats the (y,) that lifts a layer at depth m + 1 to height y
        rises = [repeat(((m + 1) // 2 if m % 2 else -(m // 2),)) for m in range(k)]
        lifted: list[list[Point]] = []  # the layers on the path, lifted
        column: list[Point] = []  # layer 0, the one point, lifted at every depth
        for first in firsts:
            # (depth, layer before it, layer, points left before it, its pool)
            todo = [(0, first, first, k, range(len(points)))]
            while todo:
                depth, a, b, r, pool = todo.pop()
                del lifted[depth:]
                if b == 0:  # its only sub-layer is itself: the rest is forced
                    if not column:  # layer 0 exists once the walk reaches it
                        column = [points[0][0] + next(y) for y in rises]
                    lifted.append(column[depth : depth + r])
                    yield frozenset(chain.from_iterable(lifted))
                    continue
                r -= size[b]
                lifted.append(list(map(add, points[b], rises[depth])))
                if r == 0:
                    yield frozenset(chain.from_iterable(lifted))
                    continue
                subs = self.steps(b, r, pool) if keep is None else keep(a, b, r)
                todo.extend(
                    zip(repeat(depth + 1), repeat(b), subs, repeat(r), repeat(subs))
                )

    def _settle(self, b: int, r: int) -> int:
        """The count of chains that follow layer b with r > 0 more points,
        settling the state (b, r) and every state it needs, children first.

        A state is a layer B and its points left r.  Settling it finds its
        steps C once, drawn from the pool on its stack entry (every layer for
        the root, the parent's steps for the rest), and stores them in
        ``_states[B, r]`` with its count, which saturates at cap + 1:
        g(B, r) = sum over the steps of 1 if |C| = r, else g(C, r - |C|).
        A step that uses up r ends a chain, so no state has r = 0.  An
        explicit stack replaces recursion, so a chain of any length, such as
        the k one-point layers of a segment in Z^1, uses no Python frames.
        Children have fewer points left, so no cycles.
        """
        states, size, cap = self._states, self.size, self.cap
        todo = [((b, r), range(len(self.points)), None)]
        while todo:
            state, pool, subs = todo[-1]
            if state in states:  # pushed again before it was settled
                todo.pop()
                continue
            b, r = state
            if subs is None:
                subs = self.steps(b, r, pool)
                kids = ((c, r - size[c]) for c in subs if r > size[c])
                missing = [(kid, subs, None) for kid in kids if kid not in states]
                if missing:
                    todo[-1] = (state, pool, subs)
                    todo.extend(missing)
                    continue
            todo.pop()
            ways = sum(states[c, r - size[c]][0] if r > size[c] else 1 for c in subs)
            states[state] = [min(ways, cap + 1), subs, None]
        return states[b, r][0]

    def family_size(self, k: int) -> int:
        """Size of the size-k family in Z^n; first layers go smallest first,
        and past the cap it raises the enumeration's error."""
        total = 0
        try:
            for s in range(1, k + 1):
                for a in self.family(s):
                    total += self._settle(a, k - s) if s < k else 1
                    if total > self.cap:
                        raise EnumerationOverflowError
        except EnumerationOverflowError:
            raise _overflow(self.n, k, self.cap) from None
        return total

    def crosses(self, a: int, steps: list[int]) -> list[int]:
        """cross(A, C) for each C of a state's ``steps``, in order."""
        inside, closed, removal = self.masks[a], self.closed, self.removal
        got = {-1: 0}
        for c in steps:
            rest, i = removal[c]
            got[c] = got[rest] + (inside & closed[i]).bit_count()
        del got[-1]
        return list(got.values())

    def best(self, a: int, steps: list[int], gains: list[int]) -> int:
        """f(A, B, r) from (B, r)'s steps and gains: max of cross(A, C) + gain."""
        return max(map(add, self.crosses(a, steps), gains), default=0)

    def optimal_sets(self, k: int) -> tuple[int, int, list[frozenset[Point]]]:
        """The size-k family's size, its largest E_int, and every set reaching it.

        Each state settled since the last call gets its gains, each step's
        E(C) + f(B, C, r - |C|), in settle order, so every child has its
        gains before its parent.  The sets are the ones ``walk`` stacks from
        the tops while it takes only the steps that keep to the optimum.
        """
        total = self.family_size(k)
        states, size, edges, best = self._states, self.size, self.edges, self.best
        for (b, r), state in islice(states.items(), self._gained, None):
            state[2] = [
                edges[c] + (best(b, *states[c, r - size[c]][1:]) if r > size[c] else 0)
                for c in state[1]
            ]
        self._gained = len(states)
        firsts = []  # by id; ids ascend with size, so all layers of at most k
        for a in range(self.family(k).stop):
            r = k - size[a]
            firsts.append(edges[a] + (best(a, *states[a, r][1:]) if r else 0))
        most = max(firsts)

        def on_best(a: int, b: int, r: int) -> list[int]:
            _, steps, gains = states[b, r]
            totals = list(map(add, self.crosses(a, steps), gains))
            top = max(totals)
            return [c for c, t in zip(steps, totals) if t == top]

        tops = [a for a, e in enumerate(firsts) if e == most]
        return total, most, list(self.walk(k, tops, on_best))


def count_compressed_sets(n: int, k: int, max_sets: int = DEFAULT_MAX_SETS) -> int:
    """The number of sets ``enumerate_compressed_sets(n, k)`` yields, without them.

    Counts layer chains by the recursion g(B, r) = [r = 0] + sum of
    g(C, r - |C|) over layers C ⊆ B with |C| <= r, which saturates past
    ``max_sets``.  Raises EnumerationOverflowError exactly where the
    enumeration would: past ``max_sets`` sets, with the same message.
    First layers go smallest first, so an oversized family is refused after
    only small layer families are built.
    """
    _check_request(n, k, max_sets)
    return _LayerChain(n, max_sets).family_size(k)


def enumerate_compressed_sets(
    n: int, k: int, max_sets: int = DEFAULT_MAX_SETS
) -> Iterator[PointSet]:
    """Lazily yield every size-k set fixed by central compression on every axis.

    Sets are built one at a time by walking layer chains, first layers
    smallest first, so ``max_sets`` bounds the work, layer families
    included; exceeding it raises EnumerationOverflowError rather than
    truncating, as does any k above MAX_SIZE for n >= 2, at any cap.  Each
    set is stacked from the lifted layers on the walk's path, so beyond the
    layer tables the walk holds O(k) points however long its chains.  A
    chain that reaches the one-point layer can only repeat it, so that tail
    is yielded as one column over the origin, not walked layer by layer.  The
    order is deterministic but not promised: it may change between versions.
    No two sets are translates of each other, and all coordinates stay
    within ceil(k/2) + 1 of the origin.
    """
    _check_request(n, k, max_sets)
    chains = _LayerChain(n, max_sets)
    firsts = (a for s in range(1, k + 1) for a in chains.family(s))
    try:
        for count, pts in enumerate(chains.walk(k, firsts), start=1):
            if count > max_sets:
                raise EnumerationOverflowError
            yield PointSet(n, pts)
    except EnumerationOverflowError:
        raise _overflow(n, k, max_sets) from None


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
    with per-witness diagnostics.  Every search proves the minimum over the
    whole compressed family, so ``method`` is "exhaustive" and ``optimal``
    is True.  Both fields stay in the report schema so that reports written
    by earlier versions, which could hold an unproved upper bound with
    ``optimal`` False, still parse.  ``sets_scanned`` is the family size,
    counted rather than walked; the name stays for the schema.
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


def min_edge_boundary(
    n: int, k: int, *, max_sets: int = DEFAULT_MAX_SETS
) -> SearchReport:
    """Minimal edge boundary over all size-k subsets of Z^n, proved optimal.

    Finds the most inside edges E_int over the compressed fixed-point family
    by the longest-path DP of ``_LayerChain``; the minimum boundary is
    k(3^n - 1) - 2 E_int.  Backtracking every chain that ties the optimum
    gives every minimizing family member, and only those witnesses are
    checked: each goes once through both boundary routes, whose total must
    also match the DP's E_int.  Gap diagnostics read each witness's checked
    breakdown.  ``sets_scanned`` is the family size, counted over the DP's
    own states rather than walked; the family past ``max_sets`` raises
    EnumerationOverflowError, as enumerating it would, before the DP runs.
    The layer tables belong to this call alone and are freed as soon as the
    DP returns its optimum, before any witness is checked.
    """
    _check_request(n, k, max_sets)
    return _checked_report(n, k, *_LayerChain(n, max_sets).optimal_sets(k))


def _checked_report(
    n: int, k: int, scanned: int, inside: int, tying: list[frozenset[Point]]
) -> SearchReport:
    """The report of the DP's family size, E_int and tying sets, once every
    witness, normalized, has passed both routes at the minimum boundary."""
    best = k * (3**n - 1) - 2 * inside
    witnesses = [PointSet(n, pts).normalized() for pts in tying]
    witnesses.sort(key=lambda ps: sorted(ps.points))
    # the call's argument tuple keeps this list alive through the checks, so
    # empty it: of the tying sets only their normalized copies stay
    tying.clear()
    found = []
    for ps in witnesses:
        b = _verify_candidate(ps)
        if b.total != best:
            raise RuntimeError(
                f"witness {sorted(ps.points)} has boundary {b.total}, "
                f"but the layer-chain DP gives {best}"
            )
        found.append((ps, b))
    return SearchReport(
        dimension=n,
        size=k,
        min_edge_boundary=best,
        witnesses=tuple(witnesses),
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
    is gap-free in all directions, not just along the axes.  No table entry
    depends on k: layers are built by size, and the DP states are keyed by
    a layer and its points left.  So all sizes share one ``_LayerChain``,
    each size fills the gains of only the states no smaller size settled,
    and a size whose family passes ``max_sets`` raises as
    ``min_edge_boundary`` would for it.
    """
    _check_request(n, k_max, max_sets)
    chains = _LayerChain(n, max_sets)
    return [
        _checked_report(n, k, *chains.optimal_sets(k)) for k in range(1, k_max + 1)
    ]
