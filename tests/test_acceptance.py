"""Acceptance gate: one test per criterion, run with `pytest -v` so each
prints its own pass/fail line.  Every numeric claim is exact; runtime
budgets are asserted where stated.
"""

import itertools
import time

from kinglattice import (
    PointSet,
    central_compress,
    compress_to_fixed_point,
    directions,
    edge_boundary_count,
    edge_boundary_formula,
    exterior_vertex_boundary,
    gap_set,
    line_indices,
    min_edge_boundary,
    partial_edge_boundary,
    projection_count,
    random_point_set,
)
from conftest import box
from oracle_helpers import brute_force_min, nb_edge_boundary, window_family_min


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


def test_criterion_1_formula_equals_direct_enumeration():
    start = time.time()
    checked = 0

    cells = list(itertools.product(range(3), range(3)))
    for bits in range(2**9):
        pts = frozenset(c for i, c in enumerate(cells) if bits >> i & 1)
        ps = PointSet(2, pts)
        assert edge_boundary_formula(ps).total == edge_boundary_count(ps)
        checked += 1

    batches = [
        (1000, 2, 20, 10),
        (300, 3, 12, 6),
        (100, 4, 10, 4),
    ]
    for count, dim, k_max, side in batches:
        for i in range(count):
            ps = random_point_set(dim, 1 + i % k_max, side, seed=dim * 10_000 + i)
            assert edge_boundary_formula(ps).total == edge_boundary_count(ps)
            checked += 1

    elapsed = time.time() - start
    assert elapsed < 60.0
    report(
        f"criterion 1 PASS: formula == direct on {checked} sets "
        f"(512 exhaustive + 1400 random, dims 2-4) in {elapsed:.1f}s"
    )


def test_criterion_2_four_by_three_box_counts():
    b = box(4, 3)
    direct = edge_boundary_count(b)
    total = edge_boundary_formula(b).total
    evb = exterior_vertex_boundary(b)
    assert direct == 38
    assert total == 38
    assert evb == 18
    report(f"criterion 2 PASS: 4x3 box edge boundary {direct}, vertex boundary {evb}")


def test_criterion_3_exhaustive_planar_minimum_at_twelve():
    start = time.time()
    r = min_edge_boundary(2, 12)
    assert r.min_edge_boundary <= 36
    assert r.min_edge_boundary == 36
    assert r.optimal
    assert any(s.exterior_vertex_boundary == 20 for s in r.witness_stats)

    for k in range(1, 9):
        lib = min_edge_boundary(2, k).min_edge_boundary
        assert lib == window_family_min(k), f"window oracle disagrees at k={k}"
    for k in range(1, 6):
        assert min_edge_boundary(2, k).min_edge_boundary == brute_force_min(k)

    elapsed = time.time() - start
    assert elapsed < 300.0
    report(
        "criterion 3 PASS: exhaustive min(2,12) = 36 with a vertex-boundary-20 "
        f"witness; window oracle k<=8 and unrestricted scan k<=5 agree "
        f"({elapsed:.1f}s)"
    )


def test_criterion_4_compression_property_suite():
    violations = 0
    checked = 0
    for i in range(500):
        dim = 1 + i % 3
        k = 1 + i % 12
        side = 14 if dim == 1 else 7
        ps = random_point_set(dim, k, side, seed=40_000 + i)
        before = nb_edge_boundary(ps.points)
        for axis in range(1, dim + 1):
            out = central_compress(ps, axis)
            checked += 1
            unit = tuple(int(j == axis - 1) for j in range(dim))
            anti = tuple(-s for s in unit)
            ok = (
                len(out) == len(ps)
                and nb_edge_boundary(out.points) <= before
                and not gap_set(out, unit)
                and not gap_set(out, anti)
                and central_compress(out, axis) == out
            )
            violations += not ok
    assert violations == 0
    report(
        f"criterion 4 PASS: size, boundary, axis gaps, idempotence on "
        f"{checked} compressions of 500 sets, 0 violations"
    )


def test_criterion_5_partial_sums_partition_the_boundary():
    for i in range(200):
        dim = 2 + i % 2
        k = 1 + i % 12
        ps = random_point_set(dim, k, 6, seed=50_000 + i)
        direct = edge_boundary_count(ps)
        oracle = nb_edge_boundary(ps.points)
        for axis in range(1, dim + 1):
            total = sum(
                partial_edge_boundary(ps, axis, rest, offset)
                for rest in line_indices(ps, axis)
                for offset in itertools.product((-1, 0, 1), repeat=dim - 1)
            )
            assert total == direct == oracle
    report(
        "criterion 5 PASS: per-line partial sums equal the direct count and "
        "the package-free neighbour count on 200 sets in dims 2 and 3, every axis"
    )


def test_criterion_6_closed_forms():
    for n in range(1, 6):
        assert edge_boundary_count(PointSet.of([(0,) * n])) == 3**n - 1
    for a in range(1, 11):
        for b in range(1, 11):
            expected = 6 * a + 6 * b - 4
            bx = box(a, b)
            assert edge_boundary_count(bx) == expected
            assert edge_boundary_formula(bx).total == expected
    for k in range(1, 51):
        assert min_edge_boundary(1, k).min_edge_boundary == 2
    report(
        "criterion 6 PASS: singletons 3^n-1 (n<=5), boxes 6a+6b-4 "
        "(a,b<=10, both computations), line minimum 2 (k<=50)"
    )


def test_criterion_7_compression_terminates_with_decreasing_potential(suite_sets):
    steps_seen = 0
    for ps in suite_sets:
        trace = compress_to_fixed_point(ps)
        for step in trace.steps:
            assert step.potential_after < step.potential_before
            steps_seen += 1
        for axis in range(1, ps.dim + 1):
            assert central_compress(trace.final, axis) == trace.final
    assert steps_seen > 0
    report(
        f"criterion 7 PASS: {len(suite_sets)} inputs reached fixed points, "
        f"all {steps_seen} changing steps strictly lowered the potential"
    )


def test_criterion_8_gap_symmetry_and_gap_free_reduction(suite_sets):
    inputs = suite_sets + [box(3, 4), box(5, 2), box(2, 2, 2)]
    gap_free_seen = 0
    for ps in inputs:
        all_empty = True
        for d in directions(ps.dim):
            rd = tuple(-s for s in d)
            forward, backward = gap_set(ps, d), gap_set(ps, rd)
            assert len(forward) == len(backward)
            all_empty = all_empty and not forward
        if all_empty:
            gap_free_seen += 1
            total = sum(projection_count(ps, d) for d in directions(ps.dim))
            assert edge_boundary_formula(ps).total == total
    assert gap_free_seen >= 3
    report(
        f"criterion 8 PASS: gap counts symmetric under reversal on "
        f"{len(inputs)} inputs; boundary equals summed line counts on "
        f"{gap_free_seen} gap-free inputs"
    )
