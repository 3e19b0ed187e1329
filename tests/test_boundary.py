import itertools
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

import kinglattice.boundary
from kinglattice.core import _offset_codes, _steps
from kinglattice import (
    PointSet,
    closed_vertex_boundary,
    directions,
    edge_boundary_count,
    edge_boundary_formula,
    exterior_vertex_boundary,
    exterior_vertices,
    gap_set,
    line_indices,
    line_sections,
    neighbors,
    partial_edge_boundary,
    projection_count,
    random_point_set,
)
from conftest import box, small_lattice_sets
from oracle_helpers import nb_edge_boundary, nb_vertex_boundary

small_planar_sets = st.sets(
    st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=10
).map(PointSet.of)


def with_edge_cases(test):
    """Run ``test`` on the empty set and a singleton in every Z^1..Z^4 too."""
    for n in range(1, 5):
        test = example(PointSet(n))(test)
        test = example(PointSet.of([(0,) * n]))(test)
    return test


def test_pair_in_line_anchor():
    ps = PointSet.of([(0,), (2,)])
    assert edge_boundary_count(ps) == 4
    assert gap_set(ps, (1,)) == frozenset({(1,)})
    assert gap_set(ps, (-1,)) == frozenset({(1,)})


def test_singleton_boundary_all_dimensions():
    for n in range(1, 6):
        ps = PointSet.of([(0,) * n])
        assert edge_boundary_count(ps) == 3**n - 1
        assert edge_boundary_formula(ps).total == 3**n - 1
        assert exterior_vertex_boundary(ps) == 3**n - 1


def test_empty_set_has_no_boundary():
    ps = PointSet.of([], dim=2)
    assert edge_boundary_count(ps) == 0
    assert edge_boundary_formula(ps).total == 0
    assert exterior_vertex_boundary(ps) == 0
    assert closed_vertex_boundary(ps) == 0


def test_two_by_two_box():
    assert edge_boundary_count(box(2, 2)) == 20


def test_four_by_three_box_counts():
    b = box(4, 3)
    assert edge_boundary_count(b) == 38
    assert edge_boundary_formula(b).total == 38
    assert exterior_vertex_boundary(b) == 18
    assert closed_vertex_boundary(b) == 30


def test_box_closed_form_small():
    for a in range(1, 6):
        for b in range(1, 6):
            assert edge_boundary_count(box(a, b)) == 6 * a + 6 * b - 4


def test_direct_matches_neighbor_count_oracle_on_random_sets():
    for i in range(120):
        dim = 1 + i % 3
        side = 12 if dim == 1 else 7
        ps = random_point_set(dim, 1 + i % 10, side, seed=i)
        assert edge_boundary_count(ps) == nb_edge_boundary(ps.points)
        assert exterior_vertex_boundary(ps) == nb_vertex_boundary(ps.points)


def assert_steps_match_oracles(ps):
    assert edge_boundary_count(ps) == nb_edge_boundary(ps.points)
    assert exterior_vertex_boundary(ps) == nb_vertex_boundary(ps.points)


def test_step_codes_on_empty_sets_and_a_twelve_dimensional_point():
    for n in range(1, 5):
        assert_steps_match_oracles(PointSet(n))
    ps = PointSet.of([(0,) * 12])
    assert edge_boundary_count(ps) == exterior_vertex_boundary(ps) == 3**12 - 1
    assert_steps_match_oracles(ps)


def test_step_codes_on_points_far_apart_with_negative_coordinates():
    far = 10**18
    assert_steps_match_oracles(PointSet.of(
        [(-far, 0), (1 - far, 1), (0, -far), (-far, -far), (0, 0), (far, far - 1)]
    ))
    assert_steps_match_oracles(PointSet.of(
        [(-far, 5, -far), (1 - far, 4, -far), (0, 0, 0), (-1, 1, -1),
         (far, -1, 2), (-3, -far, far)]
    ))


def test_step_codes_on_a_thin_box_with_holes():
    # the 1 x 10^6 box, both ways round, keeping runs of 0 to 4 cells
    length = 10**6
    kept = {0, length - 1} | {y + i for y in range(0, length, 997) for i in range(y % 5)}
    assert_steps_match_oracles(PointSet.of((0, y) for y in kept))
    assert_steps_match_oracles(PointSet.of((y, 0) for y in kept))


def test_offset_codes_are_linear_and_in_step_order():
    ps = PointSet.of([(-5, 2, 7), (3, -1, 0), (0, 0, 0), (3, 9, -4)])
    codes, offsets = _offset_codes(ps)
    steps = _steps(3)
    unit = [offsets[steps.index(e)] for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    # strides of the box padded by 1: axis 3 spans -4..7, axis 2 spans -1..9
    assert unit == [14 * 13, 14, 1]
    assert offsets == tuple(sum(map(mul, d, unit)) for d in steps)
    assert codes == {sum(map(mul, p, unit)) for p in ps.points}
    assert len(codes) == len(ps)


def test_step_codes_refuse_dimensions_above_twelve():
    for ps in (PointSet(13), PointSet.of([(0,) * 13])):
        for count in (edge_boundary_count, exterior_vertex_boundary):
            with pytest.raises(ValueError, match=r"dimension must be in 1\.\.12, got 13"):
                count(ps)


@settings(max_examples=60)
@given(small_planar_sets)
def test_formula_agrees_with_direct(ps):
    assert edge_boundary_formula(ps).total == edge_boundary_count(ps)


@settings(max_examples=40)
@given(small_planar_sets, st.tuples(st.integers(-8, 8), st.integers(-8, 8)))
def test_boundary_is_translation_invariant(ps, offset):
    moved = ps.translate(offset)
    assert edge_boundary_count(moved) == nb_edge_boundary(ps.points)
    assert exterior_vertex_boundary(moved) == exterior_vertex_boundary(ps)


def test_formula_agrees_on_all_subsets_of_3x3():
    cells = list(itertools.product(range(3), range(3)))
    for bits in range(1, 2**9):
        pts = [c for i, c in enumerate(cells) if bits >> i & 1]
        ps = PointSet.of(pts)
        assert edge_boundary_formula(ps).total == edge_boundary_count(ps)


def test_breakdown_entries_sum_to_total():
    ps = random_point_set(2, 9, 6, seed=5)
    b = edge_boundary_formula(ps)
    assert b.dim == 2
    assert sum(lines + gaps for lines, gaps in b.per_direction.values()) == b.total
    assert set(b.per_direction) == set(directions(2))


def test_breakdown_is_symmetric_under_direction_reversal():
    ps = random_point_set(2, 10, 6, seed=11)
    b = edge_boundary_formula(ps)
    for d, (lines, gaps) in b.per_direction.items():
        rd = tuple(-s for s in d)
        assert b.per_direction[rd] == (lines, gaps)


def section_formula(ps):
    """Reference formula: every direction sliced on its own by line_sections."""
    per = {}
    for d in directions(ps.dim):
        sections = line_sections(ps, d)
        per[d] = (len(sections), sum(sec.runs() - 1 for sec in sections))
    return per, sum(lines + gaps for lines, gaps in per.values())


@settings(max_examples=150)
@given(small_lattice_sets)
@with_edge_cases
def test_formula_matches_per_direction_section_definition(ps):
    per, total = section_formula(ps)
    b = edge_boundary_formula(ps)
    assert b.per_direction == per
    assert b.total == total


@settings(max_examples=150)
@given(small_lattice_sets)
@with_edge_cases
def test_breakdown_has_every_direction_and_mirrors_reversal(ps):
    per = edge_boundary_formula(ps).per_direction
    assert len(per) == 3**ps.dim - 1
    for d, counts in per.items():
        assert per[tuple(-s for s in d)] == counts


@settings(max_examples=150)
@given(small_lattice_sets)
@with_edge_cases
def test_edge_boundary_count_matches_direct(ps):
    assert edge_boundary_count(ps) == nb_edge_boundary(ps.points)


def test_projection_count_singleton():
    ps = PointSet.of([(3, 4)])
    assert all(projection_count(ps, d) == 1 for d in directions(2))


def test_gap_set_definition_on_random_sets():
    for i in range(40):
        ps = random_point_set(2, 1 + i % 8, 6, seed=100 + i)
        for d in directions(2):
            for x in gap_set(ps, d):
                assert x not in ps
                assert tuple(a - s for a, s in zip(x, d)) in ps
                assert any(
                    tuple(a + b * s for a, s in zip(x, d)) in ps
                    for b in range(1, 16)
                )


def test_gap_count_is_runs_minus_one_per_line():
    ps = PointSet.of([(0,), (1,), (3,), (7,)])
    assert len(gap_set(ps, (1,))) == 2
    (sec,) = line_sections(ps, (1,))
    assert sec.runs() - 1 == 2


def test_gap_symmetry_on_random_sets():
    for i in range(60):
        dim = 1 + i % 3
        side = 12 if dim == 1 else 6
        ps = random_point_set(dim, 1 + i % 9, side, seed=200 + i)
        for d in directions(dim):
            rd = tuple(-s for s in d)
            assert len(gap_set(ps, d)) == len(gap_set(ps, rd))


def test_gap_free_formula_reduces_to_projection_counts():
    b = box(3, 4)
    assert all(not gap_set(b, d) for d in directions(2))
    total = sum(projection_count(b, d) for d in directions(2))
    assert edge_boundary_formula(b).total == total


def test_partial_edge_boundary_validates_arguments():
    ps = box(2, 2)
    with pytest.raises(IndexError):
        partial_edge_boundary(ps, 3, (0,), (0,))
    with pytest.raises(ValueError):
        partial_edge_boundary(ps, 1, (0, 0), (0,))
    with pytest.raises(ValueError):
        partial_edge_boundary(ps, 1, (0,), (2,))


def test_partial_edge_boundary_zero_offset_counts_run_ends():
    ps = PointSet.of([(0, 0), (1, 0), (3, 0)])
    # one line along axis 1 with runs {0,1} and {3}: two ends each... two runs
    assert partial_edge_boundary(ps, 1, (0,), (0,)) == 4


def test_partial_edge_boundary_empty_line():
    ps = box(2, 2)
    assert partial_edge_boundary(ps, 1, (9,), (0,)) == 0


def test_partial_edge_boundary_between_adjacent_lines():
    ps = PointSet.of([(0, 0), (0, 1)])
    # from the y=0 line upward into the occupied y=1 line: only the
    # diagonal step past the end on each side exits
    assert partial_edge_boundary(ps, 1, (0,), (1,)) == 2
    # downward from y=0 into the empty y=-1 line: all three steps exit
    assert partial_edge_boundary(ps, 1, (0,), (-1,)) == 3


def test_partial_edge_boundary_steps_through_neighbors(monkeypatch):
    calls = []

    def recording(p):
        calls.append(p)
        return neighbors(p)

    monkeypatch.setattr(kinglattice.boundary, "neighbors", recording)
    ps = PointSet.of([(0, 0), (1, 0), (3, 0)])
    assert partial_edge_boundary(ps, 1, (0,), (0,)) == 4
    assert calls
    ps = PointSet.of([(0, 0), (0, 1)])
    assert partial_edge_boundary(ps, 1, (0,), (1,)) == 2
    assert partial_edge_boundary(ps, 1, (0,), (-1,)) == 3
    assert partial_edge_boundary(ps, 1, (9,), (0,)) == 0
    assert set(calls) == {(0, 0), (1, 0), (3, 0)}


def test_partial_sums_recover_direct_count():
    for i in range(30):
        dim = 2 + i % 2
        ps = random_point_set(dim, 1 + i % 10, 5 if dim == 3 else 6, seed=300 + i)
        direct = edge_boundary_count(ps)
        oracle = nb_edge_boundary(ps.points)  # steps points without the package
        for axis in range(1, dim + 1):
            total = sum(
                partial_edge_boundary(ps, axis, rest, offset)
                for rest in line_indices(ps, axis)
                for offset in itertools.product((-1, 0, 1), repeat=dim - 1)
            )
            assert total == direct == oracle


def test_line_indices_lists_occupied_lines():
    ps = PointSet.of([(0, 5), (3, 5), (3, 7)])
    assert line_indices(ps, 1) == [(5,), (7,)]
    assert line_indices(ps, 2) == [(0,), (3,)]
    with pytest.raises(IndexError):
        line_indices(ps, 0)


def test_exterior_vertices_match_neighbor_count_oracle(suite_sets):
    for ps in suite_sets:
        outside = exterior_vertices(ps)
        assert len(outside) == exterior_vertex_boundary(ps)
        assert len(outside) == nb_vertex_boundary(ps.points)
        assert outside.isdisjoint(ps.points)
        assert all(
            any(max(abs(a - b) for a, b in zip(p, q)) == 1 for p in ps.points)
            for q in outside
        )
