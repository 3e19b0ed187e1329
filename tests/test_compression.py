import pytest
from hypothesis import given, settings, strategies as st

import kinglattice.compression
from kinglattice import (
    PointSet,
    canonical_segment,
    central_compress,
    compress_to_fixed_point,
    directions,
    gap_set,
    line_indices,
    potential,
    random_point_set,
)
from conftest import box
from oracle_helpers import nb_edge_boundary


def test_canonical_segment_small_cases():
    assert list(canonical_segment(0)) == []
    assert list(canonical_segment(1)) == [0]
    assert list(canonical_segment(2)) == [0, 1]
    assert list(canonical_segment(3)) == [-1, 0, 1]
    assert list(canonical_segment(4)) == [-1, 0, 1, 2]
    assert list(canonical_segment(5)) == [-2, -1, 0, 1, 2]


def test_canonical_segment_rejects_negative():
    with pytest.raises(ValueError):
        canonical_segment(-1)


@given(st.integers(min_value=1, max_value=200))
def test_canonical_segment_is_a_centered_run_of_m(m):
    seg = list(canonical_segment(m))
    assert len(seg) == m
    assert seg == list(range(seg[0], seg[0] + m))
    assert 0 in seg
    # no run of the same length has a smaller squared sum
    best = sum(x * x for x in seg)
    for start in (seg[0] - 2, seg[0] - 1, seg[0] + 1, seg[0] + 2):
        assert sum(x * x for x in range(start, start + m)) >= best


def test_central_compress_anchor():
    ps = PointSet.of([(0, 0), (0, 3), (1, 5)])
    out = central_compress(ps, 2)
    assert out.points == frozenset({(0, 0), (0, 1), (1, 0)})


def test_central_compress_validates_axis():
    with pytest.raises(IndexError):
        central_compress(box(2, 2), 3)


def test_central_compress_preserves_size_and_lines():
    for i in range(60):
        dim = 1 + i % 3
        side = 12 if dim == 1 else 6
        ps = random_point_set(dim, 1 + i % 10, side, seed=400 + i)
        for axis in range(1, dim + 1):
            out = central_compress(ps, axis)
            assert len(out) == len(ps)
            assert line_indices(out, axis) == line_indices(ps, axis)


def test_central_compress_never_raises_boundary():
    for i in range(60):
        dim = 1 + i % 3
        side = 12 if dim == 1 else 6
        ps = random_point_set(dim, 1 + i % 10, side, seed=500 + i)
        before = nb_edge_boundary(ps.points)
        for axis in range(1, dim + 1):
            assert nb_edge_boundary(central_compress(ps, axis).points) <= before


def test_central_compress_removes_axis_gaps():
    for i in range(40):
        ps = random_point_set(2, 1 + i % 10, 6, seed=600 + i)
        for axis, d in ((1, (1, 0)), (2, (0, 1))):
            out = central_compress(ps, axis)
            assert gap_set(out, d) == frozenset()
            assert gap_set(out, tuple(-s for s in d)) == frozenset()


def test_central_compress_is_idempotent():
    for i in range(40):
        dim = 1 + i % 3
        side = 12 if dim == 1 else 6
        ps = random_point_set(dim, 1 + i % 10, side, seed=700 + i)
        for axis in range(1, dim + 1):
            once = central_compress(ps, axis)
            assert central_compress(once, axis) == once


def test_potential_values():
    ps = PointSet.of([(1, 2), (0, -3)])
    assert potential(ps) == (1 + 4 + 9, -(1 + 2 - 3))
    assert potential(PointSet.of([], dim=2)) == (0, 0)


def test_changing_compression_lowers_potential():
    for i in range(60):
        dim = 1 + i % 3
        side = 12 if dim == 1 else 6
        ps = random_point_set(dim, 1 + i % 10, side, seed=800 + i)
        for axis in range(1, dim + 1):
            out = central_compress(ps, axis)
            if out != ps:
                assert potential(out) < potential(ps)


@settings(max_examples=50)
@given(
    st.sets(
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=9
    ).map(PointSet.of)
)
def test_fixed_point_properties(ps):
    trace = compress_to_fixed_point(ps)
    final = trace.final
    assert len(final) == len(ps)
    assert nb_edge_boundary(final.points) <= nb_edge_boundary(ps.points)
    # fixed under every axis, hence no axis gaps in either orientation
    for axis in range(1, ps.dim + 1):
        assert central_compress(final, axis) == final
    for d in directions(ps.dim):
        if sum(s != 0 for s in d) == 1:
            assert gap_set(final, d) == frozenset()


def test_trace_steps_strictly_decrease_potential():
    ps = PointSet.of([(0, 9), (4, 0), (4, 9), (0, 0), (2, 5)])
    trace = compress_to_fixed_point(ps)
    assert trace.steps, "a spread-out set must move"
    for step in trace.steps:
        assert step.potential_after < step.potential_before
        assert step.boundary_after <= step.boundary_before
    pots = [trace.steps[0].potential_before] + [
        s.potential_after for s in trace.steps
    ]
    assert pots == sorted(pots, reverse=True)


def test_fixed_input_records_no_steps():
    b = compress_to_fixed_point(box(2, 3).normalized())
    # a box is already all-runs but sits off-center, so it still moves;
    # its canonical translate with centered segments does not
    centered = compress_to_fixed_point(b.final)
    assert centered.steps == ()
    assert centered.final == b.final


def test_one_dimensional_fixed_point_is_canonical_segment():
    ps = PointSet.of([(-7,), (2,), (9,), (10,)])
    final = compress_to_fixed_point(ps).final
    assert final.points == frozenset({(x,) for x in canonical_segment(4)})


def test_compression_monotone_under_iteration():
    ps = PointSet.of([(0, 0), (3, 3), (6, 0), (3, -3)])
    trace = compress_to_fixed_point(ps)
    boundaries = [trace.steps[0].boundary_before] + [
        s.boundary_after for s in trace.steps
    ]
    assert all(b >= a for b, a in zip(boundaries, boundaries[1:]))


def test_trace_computes_each_boundary_once(monkeypatch, suite_sets):
    real = kinglattice.boundary.edge_boundary_count
    calls = []

    def counted(ps):
        calls.append(ps)
        return real(ps)

    monkeypatch.setattr(kinglattice.compression, "edge_boundary_count", counted)
    for ps in suite_sets:
        calls.clear()
        trace = compress_to_fixed_point(ps)
        steps = trace.steps
        assert len(calls) == (len(steps) + 1 if steps else 0)
        if steps:
            assert steps[0].boundary_before == nb_edge_boundary(ps.points)
            assert steps[-1].boundary_after == nb_edge_boundary(trace.final.points)
        for a, b in zip(steps, steps[1:]):
            assert b.boundary_before == a.boundary_after


def test_trace_computes_each_potential_once(monkeypatch, suite_sets):
    real = kinglattice.compression.potential
    calls = []

    def counted(ps):
        calls.append(ps)
        return real(ps)

    monkeypatch.setattr(kinglattice.compression, "potential", counted)
    for ps in suite_sets:
        calls.clear()
        trace = compress_to_fixed_point(ps)
        steps = trace.steps
        assert len(calls) == (len(steps) + 1 if steps else 0)
        if steps:
            assert steps[0].potential_before == real(ps)
            assert steps[-1].potential_after == real(trace.final)
        for a, b in zip(steps, steps[1:]):
            assert b.potential_before == a.potential_after
