import itertools

import pytest
from hypothesis import given, strategies as st

from kinglattice import (
    PointSet,
    chebyshev_distance,
    delete_coordinate,
    directions,
    insert_coordinate,
    line_base,
    line_sections,
    neighbors,
)
from kinglattice.core import MAX_DIMENSION

coords = st.integers(min_value=-50, max_value=50)
points = st.tuples(coords, coords, coords)
nonzero_dirs = st.sampled_from(directions(3))


def test_directions_count_and_order():
    for n in range(1, 5):
        ds = directions(n)
        assert len(ds) == 3**n - 1
        assert (0,) * n not in ds
        assert ds == sorted(ds)
        assert len(set(ds)) == len(ds)


def test_directions_entries_are_unit_steps():
    assert directions(1) == [(-1,), (1,)]
    assert all(set(d) <= {-1, 0, 1} for d in directions(3))


def test_directions_rejects_bad_dimension():
    with pytest.raises(ValueError):
        directions(0)


def test_chebyshev_matches_definition():
    assert chebyshev_distance((0, 0), (1, 1)) == 1
    assert chebyshev_distance((0, 0), (2, 1)) == 2
    assert chebyshev_distance((3,), (3,)) == 0


def test_chebyshev_dimension_mismatch():
    with pytest.raises(ValueError):
        chebyshev_distance((0, 0), (0, 0, 0))


@given(points, points)
def test_chebyshev_symmetry(u, v):
    assert chebyshev_distance(u, v) == chebyshev_distance(v, u)


@given(points)
def test_neighbors_are_exactly_distance_one(p):
    ns = neighbors(p)
    assert len(ns) == 3 ** len(p) - 1
    assert p not in ns
    assert all(chebyshev_distance(p, q) == 1 for q in ns)
    assert len(set(ns)) == len(ns)


def test_insert_coordinate_positions():
    assert insert_coordinate((7, 9), 4, 1) == (4, 7, 9)
    assert insert_coordinate((7, 9), 4, 2) == (7, 4, 9)
    assert insert_coordinate((7, 9), 4, 3) == (7, 9, 4)
    assert insert_coordinate((), 5, 1) == (5,)


def test_insert_coordinate_range_errors():
    with pytest.raises(IndexError):
        insert_coordinate((1, 2), 0, 0)
    with pytest.raises(IndexError):
        insert_coordinate((1, 2), 0, 4)


def test_delete_coordinate_range_errors():
    with pytest.raises(IndexError):
        delete_coordinate((1, 2), 3)
    with pytest.raises(IndexError):
        delete_coordinate((1, 2), 0)


@given(points, coords, st.integers(min_value=1, max_value=4))
def test_insert_then_delete_roundtrip(rest, value, axis):
    p = insert_coordinate(rest, value, axis)
    assert p[axis - 1] == value
    assert delete_coordinate(p, axis) == rest


def test_pointset_validates_dimension():
    with pytest.raises(ValueError):
        PointSet(0, frozenset())
    with pytest.raises(ValueError):
        PointSet(2, frozenset({(1, 2, 3)}))


def test_pointset_of_infers_dimension():
    ps = PointSet.of([(0, 1), (2, 3)])
    assert ps.dim == 2
    assert len(ps) == 2
    assert (0, 1) in ps


def test_pointset_of_empty_requires_dim():
    with pytest.raises(ValueError):
        PointSet.of([])
    assert len(PointSet.of([], dim=3)) == 0


def test_pointset_iterates_sorted():
    ps = PointSet.of([(3, 1), (0, 5), (3, 0)])
    assert list(ps) == [(0, 5), (3, 0), (3, 1)]


def test_pointset_is_hashable_value():
    a = PointSet.of([(1, 2)])
    b = PointSet.of([(1, 2)])
    assert a == b and hash(a) == hash(b)
    assert a != PointSet.of([(2, 1)])


def test_translate_and_normalize():
    ps = PointSet.of([(2, 3), (4, 7)])
    assert ps.translate((-2, -3)).points == frozenset({(0, 0), (2, 4)})
    norm = ps.normalized()
    assert min(p[0] for p in norm.points) == 0
    assert min(p[1] for p in norm.points) == 0
    assert norm.points == frozenset({(0, 0), (2, 4)})


def test_normalize_empty_set_is_identity():
    assert PointSet(2).normalized() == PointSet(2)


def test_translate_dimension_mismatch():
    with pytest.raises(ValueError):
        PointSet.of([(0, 0)]).translate((1,))


@given(points, nonzero_dirs)
def test_line_base_decomposition(p, d):
    base, t = line_base(p, d)
    assert tuple(b + t * s for b, s in zip(base, d)) == p
    j = next(i for i, s in enumerate(d) if s)
    assert base[j] == 0


@given(points, points, nonzero_dirs)
def test_line_base_constant_on_lines(p, q, d):
    # same base exactly when the two points differ by a multiple of d
    bp, tp = line_base(p, d)
    bq, tq = line_base(q, d)
    on_same_line = any(
        tuple(a + t * s for a, s in zip(p, d)) == q for t in range(-150, 151)
    )
    assert (bp == bq) == on_same_line


def test_line_sections_partition_the_set():
    ps = PointSet.of([(0, 0), (1, 1), (2, 2), (0, 2), (5, 5)])
    for d in directions(2):
        secs = line_sections(ps, d)
        recovered = [p for sec in secs for p in sec.points()]
        assert sorted(recovered) == sorted(ps.points)
        assert [s.base for s in secs] == sorted(s.base for s in secs)
        for sec in secs:
            for p, t in zip(sec.points(), sec.positions):
                assert line_base(p, d) == (sec.base, t)


def test_line_sections_diagonal_grouping():
    ps = PointSet.of([(0, 0), (1, 1), (2, 2)])
    secs = line_sections(ps, (1, 1))
    assert len(secs) == 1
    assert secs[0].positions == (0, 1, 2)
    # reversed direction sees the same line with mirrored positions
    rev = line_sections(ps, (-1, -1))
    assert len(rev) == 1
    assert rev[0].positions == (-2, -1, 0)


def test_line_sections_rejects_bad_directions():
    ps = PointSet.of([(0, 0)])
    with pytest.raises(ValueError):
        line_sections(ps, (0, 0))
    with pytest.raises(ValueError):
        line_sections(ps, (1,))


def test_runs_counts_maximal_blocks():
    ps = PointSet.of([(0,), (1,), (3,), (7,), (8,)])
    (sec,) = line_sections(ps, (1,))
    assert sec.positions == (0, 1, 3, 7, 8)
    assert sec.runs() == 3


def test_runs_of_empty_section():
    from kinglattice import LineSection

    assert LineSection((0,), (1,), ()).runs() == 0


def test_section_points_recover_lattice_points():
    ps = PointSet.of([(2, 5), (3, 6)])
    (sec,) = line_sections(ps, (1, 1))
    assert sorted(sec.points()) == [(2, 5), (3, 6)]


def test_directions_refuses_dimensions_above_the_cap():
    assert MAX_DIMENSION == 12
    with pytest.raises(ValueError):
        directions(MAX_DIMENSION + 1)
    with pytest.raises(ValueError):
        neighbors((0,) * (MAX_DIMENSION + 1))


def test_directions_returns_a_fresh_list_in_neighbor_order():
    ds = directions(2)
    ds.clear()
    assert len(directions(2)) == 8
    assert neighbors((0, 0)) == directions(2)
    assert neighbors((5, -1)) == [(5 + a, -1 + b) for a, b in directions(2)]
