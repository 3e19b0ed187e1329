import gc
import itertools

import pytest
from hypothesis import given, strategies as st

from kinglattice import (
    PointSet,
    chebyshev_distance,
    delete_coordinate,
    directions,
    gap_set,
    insert_coordinate,
    line_base,
    line_sections,
    neighbors,
    projection_count,
)
from kinglattice.core import MAX_DIMENSION, _closed_steps, _steps

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


def test_unchecked_pointset_equals_the_checked_one():
    points = frozenset({(0, 0), (1, -2), (3, 4)})
    fast, checked = PointSet._unchecked(2, points), PointSet(2, points)
    assert fast == checked and hash(fast) == hash(checked)
    assert repr(fast) == repr(checked) and list(fast) == list(checked)
    assert fast.translate((1, 1)) == checked.translate((1, 1))
    # the public constructor still checks every point
    with pytest.raises(ValueError, match=r"point \(1, 2, 3\) does not have dimension 2"):
        PointSet(2, {(1, 2, 3)})


@pytest.mark.parametrize(
    "points, bad",
    [
        ({(x, y) for x in range(40) for y in range(25)} | {(1, 2, 3)}, (1, 2, 3)),
        ({(5,)}, (5,)),
    ],
    ids=["a-3-tuple-among-1000", "a-lone-1-tuple"],
)
def test_pointset_names_a_bad_point_among_many(points, bad):
    with pytest.raises(ValueError) as info:
        PointSet(2, frozenset(points))
    assert str(info.value) == f"point {bad} does not have dimension 2"


@pytest.mark.parametrize("was_on", [True, False])
def test_step_tables_pause_the_collector_and_restore_it(was_on):
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    if not was_on:
        gc.disable()
    gc.callbacks.append(count)
    try:
        # uncached builds; 3^9 new tuples are dozens of collections unpaused,
        # and _steps keeps _closed_steps' tuples without making new ones
        for table in (_closed_steps, _steps):
            table.__wrapped__(9)
            assert gc.isenabled() is was_on
        with pytest.raises(ValueError):
            _steps.__wrapped__(MAX_DIMENSION + 1)
        assert gc.isenabled() is was_on
    finally:
        gc.callbacks.remove(count)
        gc.enable()
    # back on, the collector may run once for the allocations it skipped
    assert len(collections) <= (3 if was_on else 0)


def test_pointset_of_infers_dimension():
    ps = PointSet.of([(0, 1), (2, 3)])
    assert ps.dim == 2
    assert len(ps) == 2
    assert (0, 1) in ps


def test_pointset_of_empty_requires_dim():
    with pytest.raises(ValueError):
        PointSet.of([])
    assert len(PointSet.of([], dim=3)) == 0


class _Index:
    """An integer type that is not an int, as numpy's integers are."""

    def __init__(self, v):
        self.v = v

    def __index__(self):
        return self.v


@pytest.mark.parametrize("bad", [0.2, 0.7, 1.5, 2.0, "1", None])
def test_pointset_of_and_translate_refuse_non_integers(bad):
    # int() would truncate 0.2 and 0.7 to the same point, and a float offset
    # would leave float points that the boundary routes cannot step from
    with pytest.raises(ValueError, match=f"non-integer coordinate {bad!r}"):
        PointSet.of([(0, 0), (bad, 0)])
    with pytest.raises(ValueError, match=f"non-integer coordinate {bad!r}"):
        PointSet.of([(0, 0)]).translate((bad, 0))


@pytest.mark.parametrize("bad", [1.5, 2.0, "1", None, _Index(3)])
def test_pointset_refuses_coordinates_that_are_not_ints(bad):
    # a float point used to pass, then break the direct route with a TypeError
    # while the formula route summed it
    with pytest.raises(ValueError) as info:
        PointSet(2, frozenset({(bad, 2), (0, 0)}))
    assert str(info.value) == f"coordinate {bad!r} is not an int"
    ps = PointSet(2, frozenset({(True, 2), (0, False)}))  # bools are ints
    assert ps.translate((1, 1)).points == frozenset({(2, 3), (1, 1)})


def test_pointset_of_and_translate_take_any_integer_type():
    ps = PointSet.of([(_Index(2), True), (False, -1)])
    assert ps.points == frozenset({(2, 1), (0, -1)})
    assert all(type(c) is int for p in ps.points for c in p)
    moved = ps.translate((_Index(-2), True))
    assert moved.points == frozenset({(0, 2), (-2, 0)})
    assert all(type(c) is int for p in moved.points for c in p)


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
    # line_base shares line_sections' check, and gap_set and projection_count
    # go through line_sections.  The points differ by (2, 0), a multiple of
    # (1, 0), so a step of (2, 0) would wrongly put them on two lines.
    ps = PointSet.of([(0, 0), (2, 0)])
    for d, message in (
        ((0, 0), "direction must be nonzero"),
        ((1,), r"direction \(1,\) does not have dimension 2"),
        ((1, 0, 0), r"direction \(1, 0, 0\) does not have dimension 2"),
        ((2, 0), r"entries must be in -1..1, got \(2, 0\)"),
        ((0, -3), r"entries must be in -1..1, got \(0, -3\)"),
    ):
        for call in (line_base, line_sections, gap_set, projection_count):
            with pytest.raises(ValueError, match=message):
                call((1, 2) if call is line_base else ps, d)
    with pytest.raises(ValueError, match="does not have dimension 3"):
        line_base((1, 2, 3), (1, 0))


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
