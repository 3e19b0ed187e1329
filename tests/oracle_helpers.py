"""Independent oracles used to cross-check the library.

Nothing here imports the package under test.  Boundaries are recomputed
from scratch by neighbor counting, and minima over small families are
recomputed by direct scans, so agreement between these numbers and the
library is meaningful evidence rather than a tautology.
"""

from __future__ import annotations

import itertools

# Exact minima of the edge boundary over all size-k subsets of a (2k)x(2k)
# window in Z^2 whose every row and every column is a consecutive run.
# Frozen from window_family_min runs; the function recomputes them live.
WINDOW_FAMILY_MIN = {1: 8, 2: 14, 3: 18, 4: 20, 5: 24, 6: 26, 7: 28, 8: 30}


def step_vectors(n: int) -> list[tuple[int, ...]]:
    return [d for d in itertools.product((-1, 0, 1), repeat=n) if any(d)]


def nb_edge_boundary(points) -> int:
    """Edge boundary by counting, per point, the unit steps that exit."""
    pts = set(points)
    if not pts:
        return 0
    steps = step_vectors(len(next(iter(pts))))
    return sum(
        tuple(a + s for a, s in zip(p, d)) not in pts for p in pts for d in steps
    )


def nb_vertex_boundary(points) -> int:
    """Number of outside points adjacent to the set, by direct counting."""
    pts = set(points)
    if not pts:
        return 0
    steps = step_vectors(len(next(iter(pts))))
    out = set()
    for p in pts:
        for d in steps:
            q = tuple(a + s for a, s in zip(p, d))
            if q not in pts:
                out.add(q)
    return len(out)


def _row_runs(width: int) -> list[tuple[int, int]]:
    out = []
    for a in range(width):
        for b in range(a + 1, width + 1):
            out.append((((1 << b) - 1) & ~((1 << a) - 1), b - a))
    return out


def _cross(a: int, b: int) -> int:
    # boundary edges between two vertically adjacent rows, both directions
    if not a:
        return 3 * b.bit_count()
    if not b:
        return 3 * a.bit_count()
    match = (
        (a & (b << 1)).bit_count()
        + (a & b).bit_count()
        + (a & (b >> 1)).bit_count()
    )
    return 3 * a.bit_count() + 3 * b.bit_count() - 2 * match


def _box_value(k: int, w: int) -> int:
    # stacked full rows of width w, as an initial upper bound
    rows, rem = [], k
    while rem > 0:
        rows.append((1 << min(w, rem)) - 1)
        rem -= min(w, rem)
    acc, prev = 0, 0
    for m in rows:
        acc += 2 + _cross(prev, m)
        prev = m
    return acc + 3 * prev.bit_count()


def _scan_min(k: int) -> int:
    """Min over family members whose occupied columns have no internal gap.

    Such members span at most k columns, so rows live in [0, k) after
    translation; rows are placed bottom-up with a vacated-column mask
    enforcing the column-run condition, and partial sums prune the search.
    """
    width, height = k, 2 * k
    runs = _row_runs(width)
    best = min(_box_value(k, w) for w in range(1, k + 1))

    def extend(y, rem, prev, closed, acc):
        nonlocal best
        if rem == 0:
            best = min(best, acc + 3 * prev.bit_count())
            return
        if y == height:
            return
        if acc + 5 + 3 * max(0, prev.bit_count() - rem) >= best:
            return
        first = y == 0
        choices = []
        for m, size in runs:
            if size > rem or (m & closed):
                continue
            if first and 2 * ((m & -m).bit_length() - 1) > width - size:
                continue  # mirror image scanned instead
            choices.append((_cross(prev, m), m, size))
        choices.sort()
        for c, m, size in choices:
            extend(y + 1, rem - size, m, closed | (prev & ~m), acc + 2 + c)
        if not first:
            extend(y + 1, rem, 0, closed | prev, acc + 3 * prev.bit_count())

    extend(0, k, 0, 0, 0)
    return best


def window_family_min(k: int) -> int:
    """Exact minimal edge boundary over the axis-run family of size k.

    A member with an empty column between occupied ones splits into two
    non-adjacent members whose boundaries add, so the minimum satisfies
    min(k) = min(scan(k), min over a+b=k of min(a)+min(b)) where scan
    covers the members without such gaps.  At the sizes used here the scan
    value always wins, making it exact; if the split bound ever dipped
    below the scan the two could no longer be reconciled, so that is
    checked.
    """
    scan = {j: _scan_min(j) for j in range(1, k + 1)}
    lower: dict[int, int] = {}
    for j in range(1, k + 1):
        split = min(
            (lower[a] + lower[j - a] for a in range(1, j)), default=None
        )
        lower[j] = scan[j] if split is None else min(scan[j], split)
        if lower[j] != scan[j]:
            raise AssertionError(
                f"split bound {lower[j]} below scan {scan[j]} at size {j}; "
                "scan minimum no longer certified"
            )
    return lower[k]


def partition_count(k: int) -> int:
    """p(k), the number of partitions of k, by Euler's pentagonal recurrence:
    p(m) = sum over j >= 1 of (-1)^(j+1) (p(m - j(3j-1)/2) + p(m - j(3j+1)/2))."""
    p = [1] + [0] * k
    for m in range(1, k + 1):
        j = 1
        while j * (3 * j - 1) // 2 <= m:
            sign = 1 if j % 2 else -1
            for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
                if g <= m:
                    p[m] += sign * p[m - g]
            j += 1
    return p[k]


def clique_min(n: int, k: int) -> int:
    """Least edge boundary of k <= 2^n points in Z^n: k(3^n - 1) - k(k - 1).

    The boundary is k(3^n - 1) minus twice the E edges inside the set, and
    E <= k(k - 1)/2 with equality iff the points are pairwise adjacent.
    Adjacent points differ by at most 1 in every coordinate, so such a set
    lies in a translate of {0,1}^n, which has room for it iff k <= 2^n.
    """
    if not 1 <= k <= 2**n:
        raise ValueError(f"size {k} is outside the clique regime 1..2^{n}")
    return k * (3**n - 1) - k * (k - 1)


def partitions(k: int, largest: int | None = None):
    """Yield every partition of k as a non-increasing tuple of parts."""
    if k == 0:
        yield ()
        return
    for first in range(min(k, largest or k), 0, -1):
        for rest in partitions(k - first, first):
            yield (first,) + rest


def partition_set(parts) -> frozenset:
    """The planar set of a partition: row j has parts[j] points.

    Rows sit at heights 0, 1, -1, 2, -2, ... in order, and each row is
    centred on x = 0, with the extra point of an even row on the right.
    """
    pts = set()
    for j, m in enumerate(parts):
        y = (j + 1) // 2 if j % 2 else -(j // 2)
        pts.update((x, y) for x in range(-((m - 1) // 2), m // 2 + 1))
    return frozenset(pts)


def planar_partition_min(k: int) -> tuple[int, int]:
    """(least edge boundary over the partition sets of k, partitions reaching it).

    These sets are the planar sets whose every row and column is a centred
    run, one per partition, so the pair is the planar minimum and its
    witness count, by neighbour counting alone.
    """
    values = [nb_edge_boundary(partition_set(p)) for p in partitions(k)]
    best = min(values)
    return best, values.count(best)


def brute_force_min(k: int) -> int:
    """Minimum over ALL size-k subsets of a (k+1)x(k+1) window in Z^2.

    No structural restriction at all.  Some minimizer over the whole plane
    occupies at most k rows and k columns, so the window loses nothing.
    Feasible for k <= 5.
    """
    side = k + 1
    grid = list(itertools.product(range(side), repeat=2))
    best = None
    for combo in itertools.combinations(grid, k):
        if min(p[0] for p in combo) or min(p[1] for p in combo):
            continue  # translate of a set already scanned
        b = nb_edge_boundary(combo)
        if best is None or b < best:
            best = b
    return best
