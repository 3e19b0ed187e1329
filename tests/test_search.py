import itertools
import random
import subprocess
import sys
import tracemalloc

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
    for args, error in (
        ((0, 3), "dimension must be in 1..12"),
        ((13, 1), "dimension must be in 1..12"),
        ((2, 0), "size must be >= 1"),
        ((2, 406), "more than 2\\^63 - 1 compressed sets"),
    ):
        with pytest.raises(ValueError, match=error):
            count_compressed_sets(*args)
    with pytest.raises(ValueError, match="max_sets must be >= 1"):
        count_compressed_sets(2, 3, max_sets=0)


def test_sub_layers_by_removal_equal_subset_tests():
    # the DP's sub-layers come from one-point removals; a subset test over
    # the whole layer family is the definition they must reproduce
    for dim, k_max in ((1, 20), (2, 14), (3, 9)):
        chain = kinglattice.search._LayerChain(dim + 1, 10**6)
        ids = [c for s in range(1, k_max + 1) for c in chain.family(s)]
        assert len({chain.points[c] for c in ids}) == len(ids)
        for layer in ids:
            inside = [c for c in ids if chain.points[c] <= chain.points[layer]]
            assert list(chain.sub_layers(layer)) == inside, (dim, layer)
    # layers grow one minimal point at a time; the oracles build the same
    # families from segments and partitions, sharing no code with the growth
    line = kinglattice.search._LayerChain(2, 10**6)
    plane = kinglattice.search._LayerChain(3, 10**6)
    for s in range(1, 15):
        assert [line.points[c] for c in line.family(s)] == [
            frozenset((x,) for x in canonical_segment(s))
        ]
        assert {plane.points[c] for c in plane.family(s)} == {
            partition_set(p) for p in partitions(s)
        }
        assert len(plane.family(s)) == partition_count(s)


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

    def counting(self, s):
        nonlocal built
        before = len(self.points)
        real(self, s)
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
    # gap_set walks line_sections; the search must need neither
    expected = min_edge_boundary(3, 6)

    def refuse(*args):
        raise AssertionError("a search witness got a second gap pass")

    monkeypatch.setattr(kinglattice.boundary, "line_sections", refuse)
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
