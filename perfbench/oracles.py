"""Independent oracles for the benchmark's output checks.

Nothing here imports kinglattice: every quantity is recomputed from its
definition or taken from a closed form, so a defect in the package cannot
hide by being repeated in its own check.

Run ``python3 perfbench/oracles.py --rebuild`` to regenerate
``reference_minima.json`` by a slow scan of the fixed-point family.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference_minima.json")

# Sizes whose minima the search-exhaustive workload asks for: the searches
# at (2,24), (3,12), (4,8) and the surveys up to (2,16) and (3,10).
REFERENCE_SIZES = {2: 24, 3: 12, 4: 8}

# OEIS A000293, solid partitions of k for k = 0..12 (quoted, not computed).
SOLID_PARTITIONS = (1, 1, 4, 10, 26, 59, 140, 307, 684, 1464, 3122, 6500, 13426)


def partition_numbers(k_max: int) -> list[int]:
    """p(0..k_max) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * k_max
    for m in range(1, k_max + 1):
        total, j = 0, 1
        while True:
            g1 = j * (3 * j - 1) // 2
            if g1 > m:
                break
            sign = 1 if j % 2 else -1
            total += sign * p[m - g1]
            g2 = j * (3 * j + 1) // 2
            if g2 <= m:
                total += sign * p[m - g2]
            j += 1
        p[m] = total
    return p


def plane_partition_numbers(k_max: int) -> list[int]:
    """Coefficients of MacMahon's product prod_m (1 - x^m)^(-m) up to x^k_max."""
    coeffs = [1] + [0] * k_max
    for m in range(1, k_max + 1):
        for _ in range(m):  # multiply by 1/(1 - x^m), m times
            for i in range(m, k_max + 1):
                coeffs[i] += coeffs[i - m]
    return coeffs


def family_size(n: int, k: int) -> int:
    """Number of size-k sets in Z^n fixed by centering along every axis."""
    if n == 1:
        return 1
    if n == 2:
        return partition_numbers(k)[k]
    if n == 3:
        return plane_partition_numbers(k)[k]
    if n == 4 and k < len(SOLID_PARTITIONS):
        return SOLID_PARTITIONS[k]
    raise ValueError(f"no family-size oracle for n={n}, k={k}")


def _offsets(n: int) -> list[tuple[int, ...]]:
    return [d for d in itertools.product((-1, 0, 1), repeat=n) if any(d)]


def neighbour_boundary(points) -> int:
    """Edge boundary by counting, for each point, neighbours outside the set."""
    pts = set(map(tuple, points))
    if not pts:
        return 0
    offsets = _offsets(len(next(iter(pts))))
    return sum(
        tuple(a + b for a, b in zip(p, d)) not in pts for p in pts for d in offsets
    )


def sections_centred(points) -> bool:
    """True iff every axis-parallel section is the run {-a..a} or {-a..a+1}."""
    pts = [tuple(p) for p in points]
    if not pts:
        return True
    for axis in range(len(pts[0])):
        lines: dict[tuple[int, ...], list[int]] = {}
        for p in pts:
            lines.setdefault(p[:axis] + p[axis + 1 :], []).append(p[axis])
        for xs in lines.values():
            xs.sort()
            low = -((len(xs) - 1) // 2)
            if xs != list(range(low, low + len(xs))):
                return False
    return True


def potential(points) -> tuple[int, int]:
    """(sum of squared coordinates, minus the coordinate sum)."""
    pts = [tuple(p) for p in points]
    return (sum(c * c for p in pts for c in p), -sum(c for p in pts for c in p))


def _monotone_arrays(d: int, k: int, cap: dict | None):
    """d-dimensional arrays of positive integers summing to k.

    Arrays are dicts from index tuples to values, non-increasing along every
    axis and bounded pointwise by ``cap`` (a missing key counts as 0).
    For d = 1, 2, 3 these are partitions, plane and solid partitions.
    """
    if k == 0:
        yield {}
        return
    if d == 0:
        if cap is None or cap.get((), 0) >= k:
            yield {(): k}
        return

    def slices(i: int, remaining: int, prev: dict | None):
        if remaining == 0:
            yield {}
            return
        bound = prev
        if cap is not None:
            here = {idx[1:]: v for idx, v in cap.items() if idx[0] == i}
            bound = here if bound is None else {
                idx: min(v, here.get(idx, 0)) for idx, v in bound.items()
            }
        top = remaining if bound is None else min(remaining, sum(bound.values()))
        for size in range(top, 0, -1):
            for sl in _monotone_arrays(d - 1, size, bound):
                for tail in slices(i + 1, remaining - size, sl):
                    out = {(i,) + idx: v for idx, v in sl.items()}
                    out.update(tail)
                    yield out

    yield from slices(0, k, None)


def _centre_out(i: int) -> int:
    """Index 0, 1, 2, 3, 4, ... placed at coordinate 0, 1, -1, 2, -2, ..."""
    return (i + 1) // 2 if i % 2 else -(i // 2)


def fixed_point_family(n: int, k: int):
    """Every size-k centred fixed point in Z^n, one per (n-1)-dim partition.

    Array index i along an axis goes to coordinate _centre_out(i); a value h
    becomes the centred run of h points along the last axis.
    """
    for arr in _monotone_arrays(n - 1, k, None):
        yield frozenset(
            tuple(_centre_out(i) for i in idx) + (z,)
            for idx, h in arr.items()
            for z in range(-((h - 1) // 2), h // 2 + 1)
        )


def scan_minimum(n: int, k: int) -> tuple[int, int]:
    """(minimum edge boundary, number of minimizing fixed points) by full scan."""
    best, count = None, 0
    for pts in fixed_point_family(n, k):
        b = neighbour_boundary(pts)
        if best is None or b < best:
            best, count = b, 1
        elif b == best:
            count += 1
    return best, count


def load_reference() -> dict[tuple[int, int], tuple[int, int]]:
    """{(n, k): (minimum, witness count)} from the stored table."""
    doc = json.loads(REFERENCE_FILE.read_text())
    return {
        (row["n"], row["k"]): (row["min_edge_boundary"], row["witnesses"])
        for row in doc["rows"]
    }


def rebuild_reference() -> None:
    rows = []
    for n, k_max in REFERENCE_SIZES.items():
        for k in range(1, k_max + 1):
            best, count = scan_minimum(n, k)
            rows.append({"n": n, "k": k, "min_edge_boundary": best, "witnesses": count})
            print(f"n={n} k={k} min={best} witnesses={count}", file=sys.stderr)
    doc = {
        "source": "python3 perfbench/oracles.py --rebuild",
        "rows": rows,
    }
    REFERENCE_FILE.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--rebuild"]:
        sys.exit("usage: python3 perfbench/oracles.py --rebuild")
    rebuild_reference()
