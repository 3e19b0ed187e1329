import functools
import hashlib
import itertools
import operator
import random
import subprocess
import sys
import tracemalloc
import weakref

import pytest
from hypothesis import example, given, settings

from kinglattice import (
    BoundaryBreakdown,
    EnumerationOverflowError,
    PointSet,
    WitnessStats,
    canonical_segment,
    central_compress,
    compress_to_fixed_point,
    count_compressed_sets,
    edge_boundary_count,
    edge_boundary_formula,
    enumerate_compressed_sets,
    exterior_vertex_boundary,
    fully_gap_free,
    gap_set,
    min_edge_boundary,
    random_point_set,
    survey_gap_free_optima,
)
import kinglattice.boundary
import kinglattice.cli
import kinglattice.core
import kinglattice.search
from conftest import box, small_lattice_sets, subprocess_env
from oracle_helpers import (
    WINDOW_FAMILY_MIN,
    clique_min,
    gap_free,
    nb_edge_boundary,
    partition_count,
    partition_set,
    partitions,
    planar_min,
    planar_partition_min,
    unrestricted_census,
    window_family_min,
)

# number of compressed fixed points by (dim, size); frozen from first runs
FIXED_POINT_COUNTS_2D = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
FIXED_POINT_COUNTS_3D = [1, 3, 6, 13, 24, 48, 86, 160]
# traced-memory ceiling for an enumeration that never holds its whole family
LAZY_PEAK_BYTES = 5_000_000


def count_plane_partitions(k: int) -> int:
    ways = [1] + [0] * k
    for part in range(1, k + 1):
        for _ in range(part):  # the factor 1 / (1 - x^part), part times
            for total in range(part, k + 1):
                ways[total] += ways[total - part]
    return ways[k]


def test_enumerate_one_dimension_is_single_segment():
    for k in (1, 2, 5, 9):
        sets = list(enumerate_compressed_sets(1, k))
        assert len(sets) == 1
        assert sets[0].points == frozenset({(x,) for x in canonical_segment(k)})


def test_long_chains_stay_linear_in_memory():
    # the segment of Z^1 is a chain of 3000 one-point layers, which the walk
    # yields as one forced column with no deep stack; the chain of two-point
    # layers below keeps a deep stack under test
    tracemalloc.start()
    try:
        (segment,) = enumerate_compressed_sets(1, 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert segment.points == frozenset({(x,) for x in canonical_segment(3000)})
    assert peak < 3_000_000


def test_long_chains_of_wide_layers_stay_linear_in_memory():
    # 1500 two-point layers in Z^2, each walked, lifted and stacked: a
    # frozenset per prefix would hold about 2.25 million points
    chain = kinglattice.search._LayerChain(2, 10**6)
    (pair,) = chain.family(2)

    def keep(a, b, r):
        return [pair] if r >= 2 else [0]

    tracemalloc.start()
    try:
        (block,) = chain.walk(3000, [pair], keep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block.points == {(x, y) for x in (0, 1) for y in canonical_segment(1500)}
    assert peak < 3_000_000


def test_enumerate_single_point():
    (only,) = enumerate_compressed_sets(2, 1)
    assert only.points == frozenset({(0, 0)})


def test_enumerate_counts_match_frozen_values():
    for k, expected in enumerate(FIXED_POINT_COUNTS_2D, start=1):
        assert sum(1 for _ in enumerate_compressed_sets(2, k)) == expected
    for k, expected in enumerate(FIXED_POINT_COUNTS_3D, start=1):
        assert sum(1 for _ in enumerate_compressed_sets(3, k)) == expected


def test_planar_count_equals_partition_count():
    # planar fixed points are nested row stacks, one per partition of k
    assert partition_count(30) == 5604
    assert [partition_count(k) for k in range(1, 13)] == FIXED_POINT_COUNTS_2D
    for k in range(1, 31):
        assert sum(1 for _ in enumerate_compressed_sets(2, k)) == partition_count(k)
    assert [count_compressed_sets(2, k) for k in range(1, 61)] == [
        partition_count(k) for k in range(1, 61)
    ]


def test_sizes_past_the_ceiling_are_refused_before_any_work():
    # every family with n >= 2 holds the planar one, padded with zeros, so
    # past the ceiling it has more than 2^63 - 1 members whatever the cap
    ceiling = kinglattice.search.MAX_SIZE
    assert partition_count(ceiling) <= 2**63 - 1 < partition_count(ceiling + 1)
    for n in (2, 3, 12):
        with pytest.raises(EnumerationOverflowError, match=f"k={ceiling + 1}$"):
            next(enumerate_compressed_sets(n, ceiling + 1, max_sets=2**70))
    with pytest.raises(EnumerationOverflowError, match=f"k={ceiling + 1}$"):
        survey_gap_free_optima(2, ceiling + 1, max_sets=5)
    (line,) = enumerate_compressed_sets(1, 2 * ceiling)  # one set per size
    assert len(line) == 2 * ceiling


def test_spatial_count_equals_plane_partition_count():
    # spatial fixed points are nested stacks of planar ones, one per plane
    # partition of k; MacMahon: sum_k pp(k) x^k = prod_m 1 / (1 - x^m)^m
    assert count_plane_partitions(16) == 11297
    for k in range(1, 17):
        assert sum(1 for _ in enumerate_compressed_sets(3, k)) == count_plane_partitions(k)
    assert [count_compressed_sets(3, k) for k in range(1, 21)] == [
        count_plane_partitions(k) for k in range(1, 21)
    ]


def test_count_equals_drained_enumeration():
    # in Z^1 a size-k chain is k one-point layers, and n = 1 has no size
    # ceiling, so 2000 is past both MAX_SIZE and Python's recursion limit
    for n, sizes in ((4, range(1, 11)), (1, (1, 2, 7, 500, 2000))):
        for k in sizes:
            drained = sum(1 for _ in enumerate_compressed_sets(n, k))
            assert count_compressed_sets(n, k) == drained


def test_count_cap_is_the_enumeration_cap():
    size = count_compressed_sets(3, 12)
    assert size == 1479
    assert count_compressed_sets(3, 12, max_sets=size) == size
    message = f"more than {size - 1} compressed sets for n=3, k=12; raise the cap"
    with pytest.raises(EnumerationOverflowError, match=message):
        count_compressed_sets(3, 12, max_sets=size - 1)
    with pytest.raises(EnumerationOverflowError, match=message):
        list(enumerate_compressed_sets(3, 12, max_sets=size - 1))
    assert min_edge_boundary(3, 12, max_sets=size).sets_scanned == size
    with pytest.raises(EnumerationOverflowError, match=message):
        min_edge_boundary(3, 12, max_sets=size - 1)


def test_layer_families_past_the_cap_are_refused(capsys):
    # at (3, 2) the one 1-point layer fits a cap of 1, but the two 2-point
    # planar layers pass it while they are built, before any chain is counted
    with pytest.raises(EnumerationOverflowError):
        kinglattice.search._LayerChain(3, 1).family(2)
    message = "more than 1 compressed sets for n=3, k=2; raise the cap"
    for entry in (count_compressed_sets, min_edge_boundary, survey_gap_free_optima):
        with pytest.raises(EnumerationOverflowError, match=message):
            entry(3, 2, max_sets=1)
    yielded = []
    with pytest.raises(EnumerationOverflowError, match=message):
        for ps in enumerate_compressed_sets(3, 2, max_sets=1):
            yielded.append(ps)
    assert len(yielded) <= 1
    argv = ["search", "--dim", "3", "--size", "2", "--max-sets", "1"]
    assert kinglattice.cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_caps_past_sys_maxsize_are_accepted(capsys):
    # the cap is compared with counts, never used as an index or a length
    huge = 10**20
    assert count_compressed_sets(3, 5, max_sets=huge) == 24
    assert sum(1 for _ in enumerate_compressed_sets(3, 5, max_sets=huge)) == 24
    assert min_edge_boundary(2, 3, max_sets=huge).sets_scanned == 3
    for command, last in (
        ("search", "witness evb=12 gap_free=yes: (0,0) (0,1) (1,0)"),
        ("survey", "   3   18          1  yes            yes"),
    ):
        argv = [command, "--dim", "2", "--size", "3", "--max-sets", str(huge)]
        assert kinglattice.cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert (err, out.splitlines()[-1]) == ("", last)


def test_count_validates_like_the_enumeration():
    # the survey checks its largest size as one request, before any search
    for entry in (count_compressed_sets, survey_gap_free_optima):
        for args, error in (
            ((0, 3), "dimension must be in 1..12"),
            ((13, 1), "dimension must be in 1..12"),
            ((2, 0), "size must be >= 1"),
            ((2, 406), "more than 2\\^63 - 1 compressed sets"),
        ):
            with pytest.raises(ValueError, match=error):
                entry(*args)
        with pytest.raises(ValueError, match="max_sets must be >= 1"):
            entry(2, 3, max_sets=0)


def test_survey_refuses_a_bad_cap_before_any_search(monkeypatch):
    def searched(*args, **kwargs):
        raise AssertionError("searched with a refused cap")

    # the survey runs the DP on its one chain, not min_edge_boundary
    monkeypatch.setattr(kinglattice.search._LayerChain, "optimal_sets", searched)
    with pytest.raises(ValueError, match="max_sets must be >= 1, got 0"):
        survey_gap_free_optima(2, 3, max_sets=0)


@pytest.mark.parametrize("n,k", [(3, 12), (4, 8)])
def test_search_frees_the_dp_before_the_witness_checks(monkeypatch, n, k):
    # the layer tables, and the DP's own copies of the tying sets, are gone
    # by the time the first witness goes through both boundary routes
    chains, tying, checked = [], [], []
    optimal_sets = kinglattice.search._LayerChain.optimal_sets
    checked_report = kinglattice.search._checked_report
    verify = kinglattice.search._verify_candidate

    def recorded(self, size):
        chains.append(weakref.ref(self))
        return optimal_sets(self, size)

    def reporting(*args):
        assert len(chains) == 1 and chains[0]() is None, "tables alive at the checks"
        tying.append(args[4])
        return checked_report(*args)

    def checking(ps):
        assert tying == [[]], "the DP's sets alive at the checks"
        checked.append(ps)
        return verify(ps)

    monkeypatch.setattr(kinglattice.search._LayerChain, "optimal_sets", recorded)
    monkeypatch.setattr(kinglattice.search, "_checked_report", reporting)
    monkeypatch.setattr(kinglattice.search, "_verify_candidate", checking)
    report = min_edge_boundary(n, k)
    assert checked == list(report.witnesses) and checked


def test_neighbourhoods_are_built_only_for_layer_points():
    # E and cross read N[p]'s mask only for the cells that layers gain; the
    # up-steps tested for minimality are not numbered and have no mask
    chain = kinglattice.search._LayerChain(12, 10**6)
    chain.family(1)
    assert chain._bits == {(0,) * 11: 1} and chain.closed == [1]
    chain = kinglattice.search._LayerChain(3, 10**6)
    chain.optimal_sets(10)  # every layer of up to 10 points, the DP's cross too
    assert len(chain.closed) == len(chain._bits) > 1
    assert sorted(chain._bits.values()) == [1 << i for i in range(len(chain.closed))]
    assert set(chain._bits) == set().union(*chain.points)


@pytest.mark.parametrize("n,k", [(3, 12), (4, 8)])
def test_layer_masks_match_their_points(n, k):
    # a layer's mask is the OR of its points' bits, and each gained cell's
    # closed mask counts N[p] ∩ A for every layer A, also when a neighbour
    # of p was numbered after p; the recount steps from p by king steps
    chain = kinglattice.search._LayerChain(n, 10**6)
    chain.family_size(k)
    chain.optimal_sets(k)
    bits = chain._bits
    layers = [frozenset(pts) for pts in chain.points]
    assert len(layers) > 100 and len(bits) > 20
    for mask, pts in zip(chain.masks, chain.points):
        assert len(pts) == len(set(pts))
        assert mask == functools.reduce(operator.or_, map(bits.get, pts))
    king = list(itertools.product((-1, 0, 1), repeat=n - 1))
    for p, bit in bits.items():
        closed = chain.closed[bit.bit_length() - 1]
        around = [tuple(map(operator.add, p, d)) for d in king]
        for mask, layer in zip(chain.masks, layers):
            assert (mask & closed).bit_count() == sum(q in layer for q in around)


def test_layer_families_equal_segments_and_partitions():
    # layers grow one minimal point at a time; the oracles build the same
    # families from segments and partitions, sharing no code with the growth
    line = kinglattice.search._LayerChain(2, 10**6)
    plane = kinglattice.search._LayerChain(3, 10**6)
    for s in range(1, 15):
        assert [frozenset(line.points[c]) for c in line.family(s)] == [
            frozenset((x,) for x in canonical_segment(s))
        ]
        assert {frozenset(plane.points[c]) for c in plane.family(s)} == {
            partition_set(p) for p in partitions(s)
        }
        assert len(plane.family(s)) == partition_count(s)


def reference_layer_dp(chain):
    """count(B, r), the steps nexts(B, r), E(C), best(A, B, r) and
    cross(A, C) over ``chain``'s layers, by memoised recursion whose steps
    come from a subset test over every layer built, with E and cross
    recounted from king steps rather than read from the chain's tables or
    masks."""
    points = [frozenset(pts) for pts in chain.points]
    size = list(map(len, points))
    (origin,) = points[0]
    steps = list(itertools.product((-1, 0, 1), repeat=len(origin)))

    @functools.cache
    def inside(b):
        return [c for c in range(len(points)) if points[c] <= points[b]]

    def nexts(b, r):
        return [c for c in inside(b) if size[c] <= r]

    @functools.cache
    def cross(a, c):
        around = (tuple(map(operator.add, p, d)) for p in points[c] for d in steps)
        return sum(q in points[a] for q in around)

    def edges(c):  # cross(C, C) counts each point once, each edge twice
        return (cross(c, c) - size[c]) // 2

    @functools.cache
    def count(b, r):
        return 1 if r == 0 else sum(count(c, r - size[c]) for c in nexts(b, r))

    @functools.cache
    def best(a, b, r):
        return max(
            (
                edges(c) + cross(a, c) + (best(b, c, r - size[c]) if r > size[c] else 0)
                for c in nexts(b, r)
            ),
            default=0,
        )

    return count, nexts, edges, best, cross


def reference_walk(chain, k, firsts, keep=None):
    """The layer-chain walk with no shortcut: an explicit stack that lifts
    every layer, each one-point layer included, and pushes each layer's
    steps in ascending order, as ``walk`` does.  Without ``keep`` the steps
    are the layers inside B with at most r points, by a subset test over
    every layer built."""
    heights = [(m + 1) // 2 if m % 2 else -(m // 2) for m in range(k)]
    layers, lifted = [], []
    for first in firsts:
        todo = [(0, first, first, k)]
        while todo:
            depth, a, b, r = todo.pop()
            r -= len(chain.points[b])
            del lifted[depth:]
            lifted.append([p + (heights[depth],) for p in chain.points[b]])
            if r == 0:
                yield frozenset(itertools.chain.from_iterable(lifted))
                continue
            if keep is not None:
                subs = keep(a, b, r)
            else:
                layers[len(layers) :] = map(frozenset, chain.points[len(layers) :])
                subs = [
                    c
                    for c in range(len(layers))
                    if len(layers[c]) <= r and layers[c] <= layers[b]
                ]
            todo.extend((depth + 1, b, c, r) for c in subs)


@pytest.mark.parametrize("n,k", [(1, 9), (2, 24), (3, 12), (4, 8)])
def test_walk_equals_the_walk_without_shortcut(n, k):
    # the walk yields a chain's forced tail of one-point layers in one step;
    # the reference walks that tail a layer at a time
    chain = kinglattice.search._LayerChain(n, 10**6)
    firsts = (a for s in range(1, k + 1) for a in chain.family(s))
    expected = list(reference_walk(chain, k, firsts))
    sets = list(enumerate_compressed_sets(n, k))
    assert [ps.points for ps in sets] == expected
    assert len(sets) == count_compressed_sets(n, k)
    # the sets skip the constructor's dimension check; it would accept them
    for ps in sets:
        checked = PointSet(n, ps.points)
        assert ps == checked and hash(ps) == hash(checked)
        assert repr(ps) == repr(checked)


@pytest.mark.parametrize("n,k,tail", [(2, 24, False), (3, 12, False), (2, 11, True)])
def test_witness_walk_never_asks_keep_at_the_one_point_layer(monkeypatch, n, k, tail):
    # at layer 0 the DP's only step is layer 0 itself, so the walk need not
    # ask; at (2, 11) some witness ends in two one-point layers, and the
    # reference, which asks there, still finds the same witnesses
    asked, taken = [], {}
    real = kinglattice.search._LayerChain.walk

    def walk(self, k, firsts, keep):
        taken.update(firsts=list(firsts), keep=keep)

        def watched(a, b, r):
            asked.append(b)
            return keep(a, b, r)

        return real(self, k, taken["firsts"], watched)

    monkeypatch.setattr(kinglattice.search._LayerChain, "walk", walk)
    chain = kinglattice.search._LayerChain(n, 10**6)
    _, _, witnesses = chain.optimal_sets(k)
    assert asked and 0 not in asked
    reference_asked = []

    def keep(a, b, r):
        reference_asked.append(b)
        return taken["keep"](a, b, r)

    expected = list(reference_walk(chain, k, taken["firsts"], keep))
    assert [ps.points for ps in witnesses] == expected
    assert (0 in reference_asked) == tail


def assert_states_match_reference(chain, reference):
    """Every state of ``chain`` has the reference's count, steps and gains."""
    count, nexts, edges, best, _ = reference
    for (b, r), (ways, steps, gains) in chain._states.items():
        assert ways == count(b, r), (b, r)
        assert steps == nexts(b, r), (b, r)
        expected = [edges(c) + best(b, c, r - len(chain.points[c])) for c in steps]
        assert gains == expected, (b, r)


@pytest.mark.parametrize("n,k_max", [(3, 16), (4, 12)])
def test_pooled_dp_equals_full_range_reference(n, k_max):
    # each DP state draws its steps from the steps of the state that reached
    # it; a recursion that draws them from every layer must find the same
    # steps and settle the same values, whichever parent reached a state first
    chain = kinglattice.search._LayerChain(n, 10**6)
    for k in range(1, k_max + 1):
        chain.family_size(k)
        chain.optimal_sets(k)
    assert len(chain._states) > 1000
    assert_states_match_reference(chain, reference_layer_dp(chain))


@pytest.mark.parametrize("n,k", [(3, 16), (4, 12)])
def test_each_steps_removal_parent_is_an_earlier_step(n, k):
    # totals adds each step's cross onto its parent's in one pass over the
    # steps, so a step's parent must be {} or a step that comes before it
    chain = kinglattice.search._LayerChain(n, 10**6)
    chain.optimal_sets(k)
    assert len(chain._states) > 500
    for _, steps, _ in chain._states.values():
        seen = {-1}
        for c in steps:
            assert chain.removal[c][0] in seen, c
            seen.add(c)


@pytest.mark.parametrize("n,k", [(3, 12), (4, 8)])
def test_crosses_equal_the_recounted_cross(monkeypatch, n, k):
    # every pass the search makes, for the DP and for the witness walk, gives
    # each step the cross the reference recounts from king steps, plus the
    # step's gain
    chain = kinglattice.search._LayerChain(n, 10**6)
    calls = []
    real = chain.totals

    def recorded(a, b, r):
        got = real(a, b, r)
        calls.append((a, b, r, got))
        return got

    monkeypatch.setattr(chain, "totals", recorded)
    chain.optimal_sets(k)
    assert len(calls) > 400
    cross = reference_layer_dp(chain)[4]
    for a, b, r, got in calls:
        _, steps, gains = chain._states[b, r]
        expected = [cross(a, c) + gain for c, gain in zip(steps, gains)]
        assert got == expected, (a, b, r)


@pytest.mark.parametrize("n,k_max", [(3, 16), (4, 12)])
def test_gains_cursor_fills_every_state_children_first(n, k_max):
    # optimal_sets fills the gains of the states settled since its last call;
    # on a chain shared over k = 1..k_max, where the count for k + 1 runs
    # before the search for k, and on a fresh chain per k, every state must
    # end with the gains the reference finds
    shared = kinglattice.search._LayerChain(n, 10**6)
    for k in range(1, k_max + 1):
        shared.family_size(k + 1)  # states for k + 1 settle before k's gains
        shared.optimal_sets(k)
        assert shared._gained == len(shared._states)
        assert all(gains is not None for _, _, gains in shared._states.values())
    reference = reference_layer_dp(shared)
    assert_states_match_reference(shared, reference)
    for k in range(1, k_max + 1):
        fresh = kinglattice.search._LayerChain(n, 10**6)
        _, most, _ = fresh.optimal_sets(k)
        assert fresh.points == shared.points[: len(fresh.points)]
        assert fresh._gained == len(fresh._states)
        assert_states_match_reference(fresh, reference)
        edges, best = reference[2:4]
        firsts = range(fresh.family(k).stop)
        assert most == max(
            edges(a) + best(a, a, k - len(fresh.points[a])) for a in firsts
        )


def test_each_dp_state_finds_its_steps_once(monkeypatch):
    # the count and the search share one table keyed by (layer, points left):
    # each state costs one subset scan, when the count settles it, and the
    # search reads its steps from the table without scanning again
    chain = kinglattice.search._LayerChain(3, 10**6)
    calls = []
    real = chain.steps

    def counted(b, r, pool):
        calls.append((b, r))
        return real(b, r, pool)

    monkeypatch.setattr(chain, "steps", counted)
    chain.family_size(16)
    assert len(calls) == len(chain._states) > 500
    assert sorted(calls) == sorted(chain._states)
    calls.clear()
    chain.optimal_sets(16)
    assert calls == []
    assert all(r > 0 for _, r in chain._states)


def test_enumerate_contains_the_centered_2x2_box():
    sets = list(enumerate_compressed_sets(2, 4))
    assert any(
        ps.points == frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}) for ps in sets
    )


def test_enumerated_sets_are_compression_fixed_points():
    for n, k in ((2, 6), (2, 9), (3, 5)):
        for ps in enumerate_compressed_sets(n, k):
            assert len(ps) == k
            for axis in range(1, n + 1):
                assert central_compress(ps, axis) == ps


def test_enumerated_sets_stay_in_window():
    for n, k in ((2, 7), (2, 12), (3, 6)):
        bound = -(-k // 2) + 1
        for ps in enumerate_compressed_sets(n, k):
            assert all(-bound <= c <= bound for p in ps.points for c in p)


def test_enumerate_yields_no_duplicates_or_translates():
    for n, k in ((2, 8), (3, 5)):
        sets = list(enumerate_compressed_sets(n, k))
        assert len({ps.points for ps in sets}) == len(sets)
        normalized = {ps.normalized().points for ps in sets}
        assert len(normalized) == len(sets)


def test_enumerate_is_deterministic():
    a = [ps.points for ps in enumerate_compressed_sets(2, 7)]
    b = [ps.points for ps in enumerate_compressed_sets(2, 7)]
    assert a == b


def test_enumerate_validates_arguments():
    with pytest.raises(ValueError):
        list(enumerate_compressed_sets(0, 3))
    with pytest.raises(ValueError, match="dimension must be in 1..12"):
        next(enumerate_compressed_sets(13, 1))
    with pytest.raises(ValueError):
        list(enumerate_compressed_sets(2, 0))


def test_enumerate_overflow_is_loud():
    with pytest.raises(EnumerationOverflowError):
        list(enumerate_compressed_sets(2, 12, max_sets=10))


def test_first_set_arrives_before_the_family_is_built():
    # the whole (2, 40) family is 37 338 sets, about 190 MB when held at once;
    # it is the family itself at (2, 40) and the largest layer family at (3, 40)
    for n in (2, 3):
        tracemalloc.start()
        try:
            first = next(enumerate_compressed_sets(n, 40))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(first) == 40
        assert peak < LAZY_PEAK_BYTES


def test_cap_stops_enumeration_before_the_family_is_built():
    # (2, 40) passes the cap in the family itself, and (3, 20) and (3, 40)
    # would in their largest layer families, (2, 20) with 627 sets and (2, 40)
    # with 37 338, about 190 MB when held at once.  Layers go smallest first,
    # so ten sets built from small layers arrive before the cap stops the scan.
    for n, k, yields in ((2, 40, 10), (3, 20, 10), (3, 40, 10)):
        yielded = 0
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationOverflowError, match="more than 10"):
                for _ in enumerate_compressed_sets(n, k, max_sets=10):
                    yielded += 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert yielded == yields
        assert peak < LAZY_PEAK_BYTES


def test_oversized_search_is_refused_after_small_layers_only(monkeypatch, capsys):
    for dim, size in (("2", "200"), ("3", "30")):
        assert kinglattice.cli.main(["search", "--dim", dim, "--size", size]) == 1
        assert capsys.readouterr().err == (
            f"error: more than 1000000 compressed sets for n={dim}, k={size}; "
            "raise the cap\n"
        )
    built = 0
    real = kinglattice.search._LayerChain._add_size

    def counting(self):
        nonlocal built
        before = len(self.points)
        real(self)
        built += len(self.points) - before

    monkeypatch.setattr(kinglattice.search._LayerChain, "_add_size", counting)
    with pytest.raises(EnumerationOverflowError, match="n=3, k=30; raise the cap"):
        min_edge_boundary(3, 30)
    # (3, 30) has 5 668 963 members, and its first layers alone, the planar
    # sets of up to 30 points, number 28 628
    assert 0 < built < 10_000


def test_drained_enumeration_leaves_no_family_behind():
    # a fresh interpreter, so no earlier enumeration in this session counts
    code = (
        "import tracemalloc\n"
        "tracemalloc.start()\n"
        "from kinglattice import enumerate_compressed_sets\n"
        "before = tracemalloc.get_traced_memory()[0]\n"
        "count = sum(1 for _ in enumerate_compressed_sets(3, 14))\n"
        "print(count, tracemalloc.get_traced_memory()[0] - before)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    count, retained = map(int, done.stdout.split())
    assert count == 4167
    # the family is about 7.5 MB; what stays is mostly the interpreter's
    # free lists of recently released tuples
    assert retained < 1_000_000


def test_random_point_set_contract():
    a = random_point_set(2, 5, 4, seed=9)
    b = random_point_set(2, 5, 4, seed=9)
    assert a == b
    assert len(a) == 5
    assert all(0 <= c < 4 for p in a.points for c in p)
    assert random_point_set(2, 0, 4, seed=9).points == frozenset()
    full = random_point_set(2, 16, 4, seed=1)
    assert full == box(4, 4)
    with pytest.raises(ValueError):
        random_point_set(2, 17, 4, seed=0)
    with pytest.raises(ValueError):
        random_point_set(2, 3, (4,), seed=0)


def test_fully_gap_free_cases():
    assert fully_gap_free(box(3, 4))
    assert not fully_gap_free(PointSet.of([(0,), (2,)]))
    assert fully_gap_free(PointSet.of([(0, 0), (1, 1), (2, 2)]))


def gap_free_in_every_direction(ps):
    steps = (d for d in itertools.product((-1, 0, 1), repeat=ps.dim) if any(d))
    return all(not gap_set(ps, d) for d in steps)


@settings(max_examples=150)
@given(small_lattice_sets)
@example(PointSet(4))
@example(box(3, 4))
@example(box(2, 3, 2, 2))
@example(PointSet.of([(0, 0), (1, 1), (2, 2)]))
@example(PointSet.of([(0, 0, 0), (1, 1, 0), (2, 2, 1), (0, 2, 2)]))
def test_fully_gap_free_matches_all_direction_definition(ps):
    assert fully_gap_free(ps) == gap_free_in_every_direction(ps)


def test_min_edge_boundary_line():
    for k in (7, 2000):  # 2000 layers: past the recursion limit
        r = min_edge_boundary(1, k)
        assert r.min_edge_boundary == 2
        assert r.optimal and r.method == "exhaustive"
        assert r.witnesses == (PointSet(1, frozenset((x,) for x in range(k))),)


def test_min_edge_boundary_small_planar_cases():
    assert min_edge_boundary(2, 1).min_edge_boundary == 8
    r2 = min_edge_boundary(2, 2)
    assert r2.min_edge_boundary == 14
    assert {w.points for w in r2.witnesses} == {
        frozenset({(0, 0), (1, 0)}),
        frozenset({(0, 0), (0, 1)}),
    }


def test_min_matches_window_family_oracle():
    for k in range(1, 7):
        assert min_edge_boundary(2, k).min_edge_boundary == window_family_min(k)
    for k in (7, 8):
        assert min_edge_boundary(2, k).min_edge_boundary == WINDOW_FAMILY_MIN[k]


# King-connected sets up to translation, by size, from Redelmeier's method.
ANIMAL_COUNTS = {
    2: [1, 4, 20, 110, 638, 3832, 23592, 147941],
    3: [1, 13, 237, 4995],
}


@pytest.fixture(scope="module")
def censuses():
    """Every king-connected set up to (2, 8), (3, 4) and (4, 4): about 4 s."""
    return {n: unrestricted_census(n, k_max) for n, k_max in ((2, 8), (3, 4), (4, 4))}


def test_animal_enumerator_counts(censuses):
    for n, counts in ANIMAL_COUNTS.items():
        assert [entry[0] for entry in censuses[n].values()] == counts


def assert_census_minima(n, census):
    # the minimum over every k-set, compressed or not, and every minimizer
    # of it gap-free along all 3^n - 1 directions
    for k, (_, least, minimizers) in census.items():
        assert min_edge_boundary(n, k).min_edge_boundary == least, (n, k)
        assert all(gap_free(w) for w in minimizers), (n, k)


def test_min_matches_unrestricted_brute_force(censuses):
    for n, census in censuses.items():
        assert_census_minima(n, census)


@pytest.mark.slow
@pytest.mark.parametrize(
    "n,k_max,larger_counts",
    [(2, 9, [940982]), (3, 6, [114219, 2753781])],  # about 20 s and 30 s
    ids=["2-9", "3-6"],
)
def test_min_matches_unrestricted_census_at_larger_sizes(n, k_max, larger_counts):
    census = unrestricted_census(n, k_max)
    assert [entry[0] for entry in census.values()] == ANIMAL_COUNTS[n] + larger_counts
    assert_census_minima(n, census)


def test_search_report_witnesses_verify():
    r = min_edge_boundary(2, 6)
    assert r.sets_scanned == 11
    for w, s in zip(r.witnesses, r.witness_stats):
        assert len(w) == 6
        assert nb_edge_boundary(w.points) == r.min_edge_boundary
        assert s.exterior_vertex_boundary == exterior_vertex_boundary(w)
        assert s.fully_gap_free == fully_gap_free(w)
        assert min(p[0] for p in w.points) == 0
        assert min(p[1] for p in w.points) == 0


# ROADMAP's frozen exhaustive minima that finish quickly, with their
# witness counts: (n, k, minimum edge boundary, witnesses).
FROZEN_MINIMA = [
    (2, 8, 30, 3),
    (2, 12, 36, 1),
    (2, 16, 42, 2),
    (2, 20, 48, 7),
    (2, 24, 52, 3),
    (2, 40, 68, 19),
    (3, 4, 92, 4),
    (3, 6, 126, 3),
    (3, 8, 152, 1),
    (3, 12, 212, 6),
    (3, 16, 260, 1),
    (3, 20, 302, 1),
    (4, 4, 308, 10),
    (4, 6, 450, 18),
    (4, 8, 584, 24),
    (4, 12, 828, 10),
]


@pytest.mark.parametrize("n,k,minimum,witnesses", FROZEN_MINIMA)
def test_exhaustive_search_reproduces_frozen_minima(n, k, minimum, witnesses):
    r = min_edge_boundary(n, k)
    assert r.optimal
    assert r.min_edge_boundary == minimum
    assert len(r.witnesses) == witnesses


# ROADMAP's frozen planar minima and witness counts.
PLANAR_FROZEN = {k: (m, w) for n, k, m, w in FROZEN_MINIMA if n == 2}


@pytest.mark.parametrize("k", [*range(1, 19), 20, 22, 24])
def test_planar_search_matches_partition_oracle(k):
    oracle = planar_partition_min(k)
    r = min_edge_boundary(2, k)
    assert (r.min_edge_boundary, len(r.witnesses)) == oracle
    assert PLANAR_FROZEN.get(k, oracle) == oracle


def test_planar_minima_match_the_closed_form():
    # the oracle checks the search and never prunes it
    for k in range(1, 61):
        least = min_edge_boundary(2, k).min_edge_boundary
        assert [planar_min(k, c) for c in range(12, 19)] == [least] * 7, k


# ROADMAP's frozen frontier minima with their witness counts, all past the
# clique regime but (4, 16) and (5, 10); the families of (2, 100), (3, 28)
# and (3, 30) are past the default cap.
FRONTIER_MINIMA = [
    (2, 100, 106, 5),
    (3, 24, 346, 3),
    (3, 28, 386, 3),
    (3, 30, 406, 9),
    (4, 16, 1040, 1),
    (4, 18, 1166, 18),
    (5, 10, 2330, 310),
]


@pytest.mark.slow
@pytest.mark.parametrize("n,k,minimum,witnesses", FRONTIER_MINIMA)
def test_frontier_search_reproduces_frozen_minima(n, k, minimum, witnesses):
    r = min_edge_boundary(n, k, max_sets=10**9)
    assert r.min_edge_boundary == minimum
    assert len(r.witnesses) == witnesses


# SHA-256 of `search --dim n --size k --max-sets 100000000000 --format json`,
# which pins the witnesses and their order, not only the minimum and the
# witness count.  After a change meant to alter that output, regenerate a
# hash with that command piped to sha256sum.
FRONTIER_REPORT_SHA256 = {
    (3, 24): "2fb08a60eff3ca530c9f9557edc224793a7b5d21b76bf538a72e676b8059d0f7",
    (2, 100): "2beafee1890ebbb39b3b014b6c1a1b2af779d65e895da8f1452d5283d1767bfb",
    (4, 18): "2c82348d50bf32aa7f81b142362deedb736284c0de4d6b0ede474453b9807625",
    (3, 28): "6c211624694d0c74669d536190055b3bec37868633a2ddea0b554fd8a9308fcc",
}


@pytest.mark.parametrize(
    "n,k",
    [
        (3, 24),
        pytest.param(2, 100, marks=pytest.mark.slow),
        pytest.param(4, 18, marks=pytest.mark.slow),
        pytest.param(3, 28, marks=pytest.mark.slow),
    ],
)
def test_frontier_reports_are_byte_identical(capsys, n, k):
    argv = ["search", "--dim", str(n), "--size", str(k), "--max-sets", str(10**11)]
    assert kinglattice.cli.main([*argv, "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == FRONTIER_REPORT_SHA256[n, k]


def test_search_memory_stays_under_its_ceiling():
    # the DP's tables at (3, 20) peak near 2.5 MB traced; a memo of cross
    # terms keyed by two layers took them to 5.6 MB, and a frozenset per
    # layer, as layers were once stored, to 8.2 MB
    tracemalloc.start()
    try:
        r = min_edge_boundary(3, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.min_edge_boundary == 302
    assert peak < 4_000_000


@pytest.mark.slow
@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_frontier_search_stays_under_its_rss_ceiling():
    # the whole CLI run at (4, 18) peaks near 81 MB resident; a memo of
    # cross terms keyed by two layers took it to 133 MB, and a frozenset per
    # layer, as layers were once stored, to 196-203 MB.  The
    # child reports its own VmHWM: its ru_maxrss would keep the peak of this
    # test process, which it is forked from, across the exec
    argv = ["search", "--dim", "4", "--size", "18", "--max-sets", str(10**11)]
    code = (
        "import sys\n"
        "from kinglattice.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "with open('/proc/self/status') as status:\n"
        "    print(*[line.split()[1] for line in status if line.startswith('VmHWM:')],"
        " file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *argv, "--format", "json"],
        env=subprocess_env(),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == (
        FRONTIER_REPORT_SHA256[4, 18]
    )
    assert int(done.stderr) * 1024 < 110 * 2**20  # VmHWM is in kB


def full_scan(n, k):
    """Score every family member by both routes, one set at a time.

    Returns the minimum, the minimizers normalized and sorted as a report
    lists them, and the number of sets scored.
    """
    scores = []
    for ps in enumerate_compressed_sets(n, k):
        direct = edge_boundary_count(ps)
        assert edge_boundary_formula(ps).total == direct
        scores.append((direct, ps))
    best = min(b for b, _ in scores)
    witnesses = sorted(
        {ps.normalized() for b, ps in scores if b == best},
        key=lambda ps: sorted(ps.points),
    )
    return best, witnesses, len(scores)


# A full scan scores every member by both routes, so it stays at sizes that
# take a second at most; at (2, 40) and (3, 20) it would take over ten.
SCAN_CASES = [
    (2, 8), (2, 12), (2, 16), (2, 20), (3, 4), (3, 6), (3, 8), (4, 4), (4, 6),
    (1, 7), (5, 3), (8, 2), (12, 1),
]


@pytest.mark.parametrize("n,k", SCAN_CASES)
def test_search_equals_full_scan(n, k):
    best, witnesses, scanned = full_scan(n, k)
    r = min_edge_boundary(n, k)
    assert r.min_edge_boundary == best
    if k <= 2**n:
        assert best == clique_min(n, k)
    assert list(r.witnesses) == witnesses
    assert r.witness_stats == tuple(
        WitnessStats(exterior_vertex_boundary(w), gap_free_in_every_direction(w))
        for w in witnesses
    )
    assert r.sets_scanned == scanned


# Every size with k <= 2^n for n <= 3, and the small sizes of higher n.
CLIQUE_CASES = [
    (n, k)
    for n, k_max in ((1, 2), (2, 4), (3, 8), (4, 8), (5, 6), (6, 3))
    for k in range(1, k_max + 1)
]


def test_clique_regime_minimum_is_closed_form():
    # the minimizers are the k-subsets of unit cubes, so each is gap-free
    for n, k in CLIQUE_CASES:
        r = min_edge_boundary(n, k)
        assert r.min_edge_boundary == clique_min(n, k), (n, k)
        assert all(c in (0, 1) for w in r.witnesses for p in w.points for c in p)
        assert r.all_witnesses_gap_free


def coordinate_images(ps):
    """Every image of ps under a permutation of its coordinates."""
    return {
        frozenset(tuple(p[i] for i in perm) for p in ps.points)
        for perm in itertools.permutations(range(ps.dim))
    }


def test_family_is_closed_under_coordinate_permutations():
    # coordinate permutations keep the boundary, so witnesses come in orbits
    for n, k_max in ((3, 8), (4, 6)):
        for k in range(1, k_max + 1):
            family = {ps.points for ps in enumerate_compressed_sets(n, k)}
            for pts in family:
                assert coordinate_images(PointSet(n, pts)) <= family


def test_search_checks_each_witness_once(monkeypatch):
    checked = []
    real = kinglattice.search._verify_candidate

    def recording(ps):
        checked.append(ps.points)
        return real(ps)

    monkeypatch.setattr(kinglattice.search, "_verify_candidate", recording)
    r = min_edge_boundary(3, 12)
    assert r.sets_scanned == 1479
    assert checked == [w.points for w in r.witnesses]
    assert len(checked) == 6


def test_disagreement_on_a_witness_is_caught(monkeypatch, capsys):
    real = kinglattice.search.edge_boundary_count

    def off_by_one(ps):
        return real(ps) + 1

    monkeypatch.setattr(kinglattice.search, "edge_boundary_count", off_by_one)
    with pytest.raises(RuntimeError, match="disagree"):
        min_edge_boundary(3, 4)
    assert kinglattice.cli.main(["search", "--dim", "3", "--size", "4"]) == 2
    assert "invariant violation" in capsys.readouterr().err


def test_witness_off_the_dp_optimum_is_caught(monkeypatch, capsys):
    # the routes agree on every witness, but the last one's total is not the
    # DP's k(3^n - 1) - 2 E_int
    expected = min_edge_boundary(3, 4)
    last = expected.witnesses[-1]
    real = kinglattice.search._verify_candidate

    def shifted(ps):
        b = real(ps)
        return BoundaryBreakdown(b.per_direction, b.total + (ps == last))

    monkeypatch.setattr(kinglattice.search, "_verify_candidate", shifted)
    with pytest.raises(RuntimeError, match="layer-chain DP gives 92$"):
        min_edge_boundary(3, 4)
    assert kinglattice.cli.main(["search", "--dim", "3", "--size", "4"]) == 2
    assert "invariant violation" in capsys.readouterr().err


def test_witness_gap_census_reads_the_checked_breakdown(monkeypatch):
    # gap_set reads its lines through _line_positions; the search must need
    # neither that nor line_sections
    expected = min_edge_boundary(3, 6)

    def refuse(*args):
        raise AssertionError("a search witness got a second gap pass")

    monkeypatch.setattr(kinglattice.boundary, "_line_positions", refuse)
    monkeypatch.setattr(kinglattice.core, "line_sections", refuse)
    with pytest.raises(AssertionError):
        gap_set(box(2, 2), (1, 0))
    assert min_edge_boundary(3, 6) == expected


def test_search_min_2_12_reproduces_octagon():
    r = min_edge_boundary(2, 12)
    assert r.min_edge_boundary == 36
    assert r.optimal
    assert r.sets_scanned == 77
    assert any(s.exterior_vertex_boundary == 20 for s in r.witness_stats)


def test_compression_lands_inside_enumeration():
    for i in range(200):
        dim = 1 + i % 3
        k = 1 + i % 10
        ps = random_point_set(dim, k, 12 if dim == 1 else 6, seed=900 + i)
        final = compress_to_fixed_point(ps).final
        assert nb_edge_boundary(final.points) <= nb_edge_boundary(ps.points)
        family = {fp.points for fp in enumerate_compressed_sets(dim, k)}
        assert final.points in family


def test_search_has_no_mode_or_seed():
    for knob in ({"exhaustive": False}, {"exhaustive": True}, {"seed": 0}):
        with pytest.raises(TypeError):
            min_edge_boundary(2, 12, **knob)


def test_survey_line_optima_are_gap_free():
    for row in survey_gap_free_optima(1, 6):
        assert row.min_edge_boundary == 2
        assert row.any_witness_gap_free
        assert row.all_witnesses_gap_free


def test_survey_planar_small_sizes():
    rows = survey_gap_free_optima(2, 4)
    assert [r.size for r in rows] == [1, 2, 3, 4]
    assert [r.min_edge_boundary for r in rows] == [8, 14, 18, 20]
    assert all(r.any_witness_gap_free for r in rows)


def test_survey_overflow_propagates():
    with pytest.raises(EnumerationOverflowError):
        survey_gap_free_optima(2, 12, max_sets=5)


@pytest.mark.parametrize("n, cap", [(2, 1), (2, 10), (3, 20), (4, 40)])
def test_survey_shares_tables_and_fails_where_single_searches_do(n, cap):
    # one set of layer tables serves every size: the reports are the ones
    # separate searches give, and the first size whose family passes the cap
    # is refused with the separate search's message
    singles = []
    for k in itertools.count(1):
        try:
            singles.append(min_edge_boundary(n, k, max_sets=cap))
        except EnumerationOverflowError as e:
            refused, message = k, str(e)
            break
    assert message == f"more than {cap} compressed sets for n={n}, k={refused}; raise the cap"
    assert survey_gap_free_optima(n, refused - 1, max_sets=cap) == singles
    with pytest.raises(EnumerationOverflowError) as caught:
        survey_gap_free_optima(n, refused + 2, max_sets=cap)
    assert str(caught.value) == message


def test_random_point_set_matches_product_and_sample():
    windows = [
        (1,), (14,), (3, 5), (8, 8), (10, 10), (1, 7), (2, 1, 4), (8, 8, 8), (10, 10, 10)
    ]
    for extents in windows:
        n = len(extents)
        cells = list(itertools.product(*(range(w) for w in extents)))
        for k in range(0, min(len(cells), 12) + 1):
            for seed in range(0, 200, 7):
                expected = frozenset(random.Random(seed).sample(cells, k))
                assert random_point_set(n, k, extents, seed).points == expected
    cells = list(itertools.product(range(10), range(10)))
    assert random_point_set(2, 9, 10, 2**64 - 1).points == frozenset(
        random.Random(2**64 - 1).sample(cells, 9)
    )


def test_random_point_set_draws_from_a_huge_window():
    ps = random_point_set(4, 40, 10**4, seed=5)  # 10^16 cells, never built
    assert len(ps) == 40
    assert all(0 <= c < 10**4 for p in ps.points for c in p)
    assert ps == random_point_set(4, 40, (10**4,) * 4, seed=5)


def test_random_point_set_rejects_unsampleable_window():
    side = 2 ** (sys.maxsize.bit_length() // 2 + 1)
    with pytest.raises(ValueError):
        random_point_set(2, 1, side, seed=0)
