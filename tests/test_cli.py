import io
import json
import subprocess
import sys
from collections import Counter

import pytest

from kinglattice import (
    BoundaryBreakdown,
    ParseError,
    PointSet,
    SearchReport,
    compress_to_fixed_point,
    edge_boundary_formula,
    min_edge_boundary,
    parse_point_set,
    parse_report,
    random_point_set,
    render_grid,
    serialize_point_set,
    serialize_report,
    survey_gap_free_optima,
)
import kinglattice.boundary
import kinglattice.cli
import kinglattice.compression
import kinglattice.core
from kinglattice.cli import main
from kinglattice.search import DEFAULT_MAX_SETS, EnumerationOverflowError
from conftest import box, subprocess_env
from oracle_helpers import nb_edge_boundary


def test_parse_plain_points():
    ps = parse_point_set("0 0\n1 0\n0 1\n1 1\n")
    assert ps == box(2, 2)


def test_parse_dim_header():
    ps = parse_point_set("dim 1\n0\n2\n")
    assert ps.dim == 1
    assert ps.points == frozenset({(0,), (2,)})


def test_parse_accepts_commas_comments_and_blanks():
    text = "# corner points\ndim 2\n\n0, 0  # origin\n 2,3 \n"
    ps = parse_point_set(text)
    assert ps.points == frozenset({(0, 0), (2, 3)})


def test_parse_accepts_bytes():
    assert parse_point_set(b"1 2\n").points == frozenset({(1, 2)})


def test_parse_duplicate_reports_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_point_set("0 0\n0 0\n")


def test_parse_ragged_reports_line():
    with pytest.raises(ParseError, match="line 3"):
        parse_point_set("0 0\n1 1\n2 2 2\n")


def test_parse_non_integer_token():
    with pytest.raises(ParseError, match="non-integer"):
        parse_point_set("0 x\n")


def test_parse_header_must_come_first():
    for text in ("0 0\ndim 2\n", "dim 2\ndim 2\n"):
        with pytest.raises(ParseError, match="line 2: dim header must come first"):
            parse_point_set(text)


def test_parse_rejects_empty_input():
    with pytest.raises(ParseError):
        parse_point_set("# nothing here\n")


def test_parse_dim_header_takes_one_number():
    with pytest.raises(ParseError, match="line 1: expected 'dim N'"):
        parse_point_set("dim 2 3\n")


def test_parse_rejects_bad_dim():
    with pytest.raises(ParseError):
        parse_point_set("dim zero\n")
    with pytest.raises(ParseError):
        parse_point_set("dim 0\n")


def test_parse_empty_set_with_header():
    ps = parse_point_set("dim 3\n")
    assert ps.dim == 3 and len(ps) == 0


def test_serialize_then_parse_is_identity():
    for ps in (box(2, 2), PointSet.of([(-3, 5), (0, 0)]), PointSet.of([], dim=4)):
        assert parse_point_set(serialize_point_set(ps)) == ps


def test_breakdown_report_round_trip():
    b = edge_boundary_formula(box(4, 3))
    text = serialize_report(b)
    doc = json.loads(text)
    assert doc["schema"] == "kinglattice.report/1"
    assert doc["total"] == 38
    assert parse_report(text) == b


def test_breakdown_report_singleton_line():
    b = edge_boundary_formula(PointSet.of([(0,)]))
    doc = json.loads(serialize_report(b))
    assert doc["per_direction"] == [
        {"direction": [-1], "lines": 1, "gaps": 0},
        {"direction": [1], "lines": 1, "gaps": 0},
    ]
    assert doc["total"] == 2


def test_breakdown_report_empty_set():
    b = edge_boundary_formula(PointSet.of([], dim=2))
    doc = json.loads(serialize_report(b))
    assert doc["total"] == 0


def test_breakdown_report_carries_both_totals():
    b = edge_boundary_formula(box(2, 2))
    doc = json.loads(serialize_report(b, direct_total=20))
    assert doc["direct_total"] == 20
    assert doc["agree"] is True


def test_search_report_round_trip():
    r = min_edge_boundary(2, 4)
    text = serialize_report(r)
    assert parse_report(text) == r
    assert json.loads(text)["kind"] == "search_report"


def test_survey_report_round_trip():
    rows = survey_gap_free_optima(2, 3)
    text = serialize_report(rows)
    assert parse_report(text) == rows
    assert json.loads(text)["kind"] == "survey"


def test_serialize_report_rejects_other_types():
    with pytest.raises(TypeError):
        serialize_report({"not": "a report"})


# A search report written before the heuristic mode was removed, verbatim.
OLD_HEURISTIC_REPORT = """\
{
  "schema": "kinglattice.report/1",
  "kind": "search_report",
  "dimension": 2,
  "size": 3,
  "min_edge_boundary": 18,
  "method": "heuristic",
  "optimal": false,
  "sets_scanned": 6,
  "any_witness_gap_free": true,
  "all_witnesses_gap_free": true,
  "witnesses": [
    {
      "points": [
        [
          0,
          0
        ],
        [
          0,
          1
        ],
        [
          1,
          0
        ]
      ],
      "exterior_vertex_boundary": 12,
      "fully_gap_free": true
    }
  ]
}
"""


def test_old_heuristic_report_still_parses_and_round_trips():
    r = parse_report(OLD_HEURISTIC_REPORT)
    assert isinstance(r, SearchReport)
    assert r.method == "heuristic"
    assert r.optimal is False
    assert (r.dimension, r.size, r.min_edge_boundary, r.sets_scanned) == (2, 3, 18, 6)
    assert r.witnesses == (PointSet.of([(0, 0), (0, 1), (1, 0)]),)
    assert serialize_report(r) == OLD_HEURISTIC_REPORT


def test_parse_report_rejects_bad_documents():
    with pytest.raises(ParseError):
        parse_report("not json")
    with pytest.raises(ParseError):
        parse_report(json.dumps({"schema": "other/9"}))
    with pytest.raises(ParseError):
        parse_report(json.dumps({"schema": "kinglattice.report/1", "kind": "wat"}))


def _report_doc(kind, **fields):
    return json.dumps({"schema": "kinglattice.report/1", "kind": kind, **fields})


def _singleton_breakdown(edit, origin=(0, 0)):
    """A serialized breakdown of ``origin``, by default in Z^2, after ``edit(doc)``."""
    doc = json.loads(serialize_report(edge_boundary_formula(PointSet.of([origin]))))
    edit(doc)
    return json.dumps(doc)


def _gap_free_search(flags=True, report=None, **witness):
    """A search report for the origin in Z^1, its report and witness fields overridden."""
    w = {"points": [[0]], "exterior_vertex_boundary": 2, "fully_gap_free": True}
    fields = dict(
        dimension=1, size=1, min_edge_boundary=2,
        method="exhaustive", optimal=True, sets_scanned=1,
        any_witness_gap_free=flags, all_witnesses_gap_free=flags,
        witnesses=[{**w, **witness}],
    )
    return _report_doc("search_report", **{**fields, **(report or {})})


def test_parse_report_accepts_the_unedited_documents():
    assert parse_report(_singleton_breakdown(lambda doc: None)).total == 8
    assert parse_report(_gap_free_search()).witness_stats[0].fully_gap_free is True


def _set_first_entry(key, value):
    return lambda doc: doc["per_direction"][0].update({key: value})


@pytest.mark.parametrize(
    "text",
    [
        _report_doc("search_report"),
        _report_doc("survey", rows=5),
        _report_doc("boundary_breakdown", dim=1, per_direction=[], total=0),
        _report_doc("boundary_breakdown", per_direction=[
            {"direction": [1], "lines": 1, "gaps": 0},
            {"direction": [-1], "lines": 1, "gaps": 0},
        ], total=2),
        _report_doc("survey", rows=[{"dimension": 2}]),
        _report_doc(
            "search_report", dimension=2, size=1, min_edge_boundary=8,
            method="exhaustive", optimal=True, sets_scanned=1,
            witnesses=[{"points": [[0]], "exterior_vertex_boundary": 8,
                        "fully_gap_free": True}],
        ),
        _singleton_breakdown(lambda doc: doc.update(total=999)),
        _singleton_breakdown(_set_first_entry("lines", "x")),
        _singleton_breakdown(_set_first_entry("gaps", -5)),
        _singleton_breakdown(_set_first_entry("lines", True)),
        _singleton_breakdown(lambda doc: doc["per_direction"].append(
            dict(doc["per_direction"][0]))),
        _gap_free_search(flags=False),
        _gap_free_search(exterior_vertex_boundary="many"),
        _gap_free_search(fully_gap_free="maybe"),
        _singleton_breakdown(lambda doc: [
            e.update(direction=[False, True])
            for e in doc["per_direction"] if e["direction"] == [0, 1]
        ]),
        _gap_free_search(report={"size": 2}),
        _gap_free_search(points=[[0], [1]]),
        _gap_free_search(report={"witnesses": [], "any_witness_gap_free": False}),
        _gap_free_search(report={"size": 2}, points=[[0], [0]]),
        _gap_free_search(points=[[0.5]]),
        _gap_free_search(points=[[True]]),
        _gap_free_search(report={"method": 5}),
        _gap_free_search(report={"optimal": "yes"}),
        _gap_free_search(report={"dimension": True}),
        _singleton_breakdown(lambda doc: doc.update(dim=True), origin=(0,)),
    ],
    ids=["search-no-fields", "survey-rows-int", "breakdown-no-directions",
         "breakdown-no-dim", "survey-row-missing-fields", "witness-wrong-dim",
         "breakdown-total-not-sum", "breakdown-lines-str", "breakdown-gaps-negative",
         "breakdown-lines-bool", "breakdown-duplicate-direction",
         "search-flags-contradict-witnesses", "witness-evb-str", "witness-gap-free-str",
         "breakdown-direction-bool", "search-size-over-witness", "witness-over-size",
         "search-no-witnesses", "witness-repeated-point", "witness-coordinate-float",
         "witness-coordinate-bool", "search-method-int", "search-optimal-str",
         "search-dimension-bool", "breakdown-dim-bool"],
)
def test_parse_report_rejects_malformed_fields(text):
    with pytest.raises(ParseError, match="malformed"):
        parse_report(text)


def test_render_singleton_frame():
    art = render_grid(PointSet.of([(0, 0)]))
    assert art == "○○○\n○●○\n○○○\n"


def test_render_box_neighbor_count():
    art = render_grid(box(4, 3))
    assert art.count("○") == 18
    assert art.count("●") == 12


def test_render_marks_interior_hole():
    art = render_grid(PointSet.of([(0, 0), (2, 0)]))
    middle = art.splitlines()[1]
    assert middle == "○●○●○"


def test_render_rows_run_upward():
    art = render_grid(PointSet.of([(0, 0), (0, 1), (1, 1)]))
    rows = art.splitlines()
    # the two-point row y=1 must appear above the y=0 row
    assert rows[1].count("●") == 2
    assert rows[2].count("●") == 1


def test_render_errors():
    with pytest.raises(ValueError):
        render_grid(PointSet.of([(0, 0, 0)]))
    with pytest.raises(ValueError):
        render_grid(PointSet.of([], dim=2))
    with pytest.raises(ValueError):
        render_grid(PointSet.of([(0, 0), (50, 50)]), max_extent=10)


def test_render_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown render mode 'png'"):
        render_grid(box(2, 2), mode="png")


def test_render_svg_document():
    svg = render_grid(box(2, 2), mode="svg")
    assert svg.startswith("<?xml")
    assert svg.count("#1f77b4") == 4
    assert svg.count("#d62728") == 12
    assert svg.count("<circle") == 16


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_boundary_plain(tmp_path, capsys):
    f = tmp_path / "b.pts"
    f.write_text(serialize_point_set(box(4, 3)))
    code, out, err = run_cli(capsys, "boundary", "--input", str(f))
    assert code == 0
    assert "formula total 38" in out
    assert "direct total  38" in out
    assert "agreement     ok" in out


def test_cli_boundary_json(tmp_path, capsys):
    f = tmp_path / "b.pts"
    f.write_text("0 0\n")
    code, out, err = run_cli(capsys, "boundary", "--input", str(f), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 8 and doc["direct_total"] == 8 and doc["agree"]


def test_cli_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0 0\n1 1\n"))
    code, out, err = run_cli(capsys, "boundary")
    assert code == 0
    assert "direct total  14" in out


def test_cli_parse_error_exits_1(tmp_path, capsys):
    f = tmp_path / "bad.pts"
    f.write_text("0 0\n0 0\n")
    code, out, err = run_cli(capsys, "boundary", "--input", str(f))
    assert code == 1
    assert "line 2" in err


def test_cli_missing_file_exits_1(capsys):
    code, out, err = run_cli(capsys, "boundary", "--input", "/no/such/file")
    assert code == 1
    assert "error" in err


def test_cli_usage_error_exits_1(capsys):
    assert run_cli(capsys, "boundary", "--format", "yaml")[0] == 1
    assert run_cli(capsys, "search", "--dim", "2")[0] == 1
    assert run_cli(capsys)[0] == 1


def test_cli_help_exits_0(capsys):
    code, out, err = run_cli(capsys, "--help")
    assert code == 0
    for command in ("search", "survey"):
        code, out, err = run_cli(capsys, command, "--help")
        assert code == 0
        assert "--max-sets CAP" in out
        text = " ".join(out.split())
        assert f"(default {DEFAULT_MAX_SETS})" in text
        if command == "search":
            assert "checked in all 3^N - 1 directions" in text
            assert "grows as 3^N" in text
            assert "--dim 12 --size 1 takes about" in text


def test_cli_compress_plain(tmp_path, capsys):
    f = tmp_path / "c.pts"
    f.write_text("0 9\n0 0\n")
    code, out, err = run_cli(capsys, "compress", "--input", str(f))
    assert code == 0
    assert "axis 2" in out
    assert "dim 2" in out


def test_cli_compress_json(tmp_path, capsys):
    f = tmp_path / "c.pts"
    f.write_text("dim 1\n-7\n9\n")
    code, out, err = run_cli(capsys, "compress", "--input", str(f), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "compression_trace"
    assert sorted(map(tuple, doc["final_points"])) == [(0,), (1,)]
    for step in doc["steps"]:
        assert tuple(step["potential_after"]) < tuple(step["potential_before"])


def test_cli_compress_json_is_the_serialized_trace(tmp_path, capsys):
    ps = random_point_set(3, 60, 6, seed=9)
    f = tmp_path / "c.pts"
    f.write_text(serialize_point_set(ps))
    code, out, err = run_cli(capsys, "compress", "--input", str(f), "--format", "json")
    assert code == 0
    assert out == serialize_report(compress_to_fixed_point(ps))


def test_compression_trace_is_write_only():
    text = serialize_report(compress_to_fixed_point(PointSet.of([(0, 9), (0, 0)])))
    with pytest.raises(ParseError, match="unknown report kind 'compression_trace'"):
        parse_report(text)


def test_cli_compress_exits_2_when_potential_does_not_decrease(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(kinglattice.compression, "potential", lambda ps: (0, 0))
    f = tmp_path / "c.pts"
    f.write_text("0 9\n0 0\n")
    code, out, err = run_cli(capsys, "compress", "--input", str(f))
    assert code == 2
    assert err == (
        "invariant violation: potential did not decrease on axis 2: (0, 0) -> (0, 0)\n"
    )


@pytest.mark.parametrize(
    "dim,size,expected",
    [
        (2, 4, "dim 2  size 4  min edge boundary 20\n"
               "method exhaustive  optimal yes  sets scanned 5\n"
               "witness evb=12 gap_free=yes: (0,0) (0,1) (1,0) (1,1)\n"),
        (1, 3, "dim 1  size 3  min edge boundary 2\n"
               "method exhaustive  optimal yes  sets scanned 1\n"
               "witness evb=2 gap_free=yes: (0) (1) (2)\n"),
    ],
    ids=["2-4", "1-3"],
)
def test_cli_search_plain_golden(capsys, dim, size, expected):
    code, out, err = run_cli(capsys, "search", "--dim", str(dim), "--size", str(size))
    assert (code, out, err) == (0, expected, "")


def test_cli_search_answers_long_lines(capsys):
    # n = 1 has no size ceiling, and its layer chain is one point per layer
    code, out, err = run_cli(capsys, "search", "--dim", "1", "--size", "2000")
    assert (code, err) == (0, "")
    assert out.startswith(
        "dim 1  size 2000  min edge boundary 2\n"
        "method exhaustive  optimal yes  sets scanned 1\n"
        "witness evb=2 gap_free=yes: (0) (1) (2) "
    )


def test_cli_search_json_round_trips(capsys):
    code, out, err = run_cli(
        capsys, "search", "--dim", "2", "--size", "12", "--format", "json"
    )
    assert code == 0
    report = parse_report(out)
    assert report.min_edge_boundary == 36
    assert report == min_edge_boundary(2, 12)


@pytest.mark.parametrize(
    "flags",
    [["--heuristic"], ["--exhaustive"], ["--seed", "3"]],
    ids=["heuristic", "exhaustive", "seed"],
)
def test_cli_search_rejects_removed_flags(capsys, flags):
    code, out, err = run_cli(capsys, "search", "--dim", "2", "--size", "4", *flags)
    assert code == 1
    assert "error:" in err
    assert out == ""


def test_cli_search_overflow_exits_1(capsys):
    code, out, err = run_cli(
        capsys, "search", "--dim", "2", "--size", "12", "--max-sets", "5"
    )
    assert code == 1
    assert "cap" in err


def test_enumeration_overflow_is_bad_input(capsys):
    # an exceeded cap is the caller's, so it is a ValueError and exits 1
    assert issubclass(EnumerationOverflowError, ValueError)
    for n, k in ((3, 12), (2, 405)):  # 405 is the largest size not refused outright
        code, out, err = run_cli(
            capsys, "search", "--dim", str(n), "--size", str(k), "--max-sets", "5"
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: more than 5 compressed sets for n={n}, k={k}; raise the cap\n"
        )


@pytest.mark.parametrize(
    "argv,k",
    [
        (["search", "--dim", "2", "--size", "1200"], 1200),
        (["search", "--dim", "4", "--size", "1000", "--max-sets", "5"], 1000),
        (["survey", "--dim", "2", "--size", "406", "--max-sets", "5"], 406),
    ],
    ids=["search-2-1200", "search-4-1000-cap-5", "survey-2-406-cap-5"],
)
def test_sizes_past_the_ceiling_exit_1_at_any_cap(capsys, argv, k):
    # refused at once: past the ceiling no cap lets the family be walked
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    n = argv[2]
    assert err == f"error: more than 2^63 - 1 compressed sets for n={n}, k={k}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["survey", "--dim", "2", "--size", "0"],
        ["survey", "--dim", "2", "--size", "-4"],
        ["survey", "--dim", "0", "--size", "0"],
        ["search", "--dim", "2", "--size", "4", "--max-sets", "-5"],
        ["survey", "--dim", "2", "--size", "4", "--max-sets", "0"],
        ["selftest", "--sets", "-3"],
        ["search", "--dim", "1000", "--size", "1"],
        ["survey", "--dim", "999", "--size", "2"],
    ],
    ids=["survey-size-0", "survey-size-neg", "survey-dim-0", "search-max-sets-neg",
         "survey-max-sets-0", "selftest-sets-neg", "search-dim-1000", "survey-dim-999"],
)
def test_cli_rejects_bad_numbers(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert "error:" in err
    assert out == ""


def test_cli_rejects_out_of_range_seed(capsys):
    for seed in (2**64, -1):
        code, out, err = run_cli(capsys, "selftest", "--seed", str(seed))
        assert (code, out, err) == (1, "", "error: seed must fit in 64 bits\n")
    code, out, err = run_cli(
        capsys, "selftest", "--sets", "1", "--seed", str(2**64 - 1)
    )
    assert code == 0


def test_cli_survey_plain(capsys):
    code, out, err = run_cli(capsys, "survey", "--dim", "2", "--size", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["size", "min", "witnesses", "some_gap_free", "all_gap_free"]
    assert len(lines) == 4


def test_cli_survey_json(capsys):
    code, out, err = run_cli(
        capsys, "survey", "--dim", "1", "--size", "4", "--format", "json"
    )
    assert code == 0
    rows = parse_report(out)
    assert [r.min_edge_boundary for r in rows] == [2, 2, 2, 2]


def test_cli_render_ascii(tmp_path, capsys):
    f = tmp_path / "r.pts"
    f.write_text("0 0\n")
    code, out, err = run_cli(capsys, "render", "--input", str(f))
    assert code == 0
    assert out == "○○○\n○●○\n○○○\n"


def test_cli_render_svg(tmp_path, capsys):
    f = tmp_path / "r.pts"
    f.write_text("0 0\n1 1\n")
    code, out, err = run_cli(capsys, "render", "--input", str(f), "--render", "svg")
    assert code == 0
    assert out.startswith("<?xml") and "<svg" in out


def test_cli_render_dimension_error(tmp_path, capsys):
    f = tmp_path / "r.pts"
    f.write_text("0 0 0\n")
    code, out, err = run_cli(capsys, "render", "--input", str(f))
    assert code == 1
    assert "dimension" in err


def test_cli_selftest(capsys):
    code, out, err = run_cli(capsys, "selftest", "--sets", "30", "--seed", "5")
    assert code == 0
    assert "30 random sets checked, 0 failures" in out


def test_cli_selftest_checks_each_direction_pair_once(capsys, monkeypatch):
    calls = []
    real = kinglattice.cli.gap_set

    def counting(ps, d):
        calls.append(d)
        return real(ps, d)

    monkeypatch.setattr(kinglattice.cli, "gap_set", counting)
    code, out, err = run_cli(capsys, "selftest", "--sets", "9", "--seed", "5")
    assert code == 0
    # trial t is in dimension 1 + t % 3 and has (3^dim - 1) / 2 pairs of d, -d
    assert len(calls) == sum(3 ** (1 + t % 3) - 1 for t in range(9))
    # each direction of each dimension, d and -d alike, once per trial
    assert set(Counter(calls).values()) == {3}


def test_cli_selftest_still_catches_gap_asymmetry(capsys, monkeypatch):
    real = kinglattice.cli.gap_set

    def lopsided(ps, d):
        first = next(s for s in d if s)
        return real(ps, d) | {("extra",)} if first == -1 else real(ps, d)

    monkeypatch.setattr(kinglattice.cli, "gap_set", lopsided)
    code, out, err = run_cli(capsys, "selftest", "--sets", "3", "--seed", "5")
    assert code == 2
    assert "3 random sets checked, " in out
    assert "GAP ASYMMETRY dim=1 k=1 trial=0 d=(1,)" in err


def overcount_direct(monkeypatch):
    real = kinglattice.cli.edge_boundary_count
    monkeypatch.setattr(kinglattice.cli, "edge_boundary_count", lambda ps: real(ps) + 1)


@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_cli_boundary_reports_route_mismatch(tmp_path, capsys, monkeypatch, fmt):
    overcount_direct(monkeypatch)
    f = tmp_path / "b.pts"
    f.write_text(serialize_point_set(box(4, 3)))
    code, out, err = run_cli(capsys, "boundary", "--input", str(f), "--format", fmt)
    assert code == 2
    assert err == "invariant violation: direct 39 != formula 38\n"
    if fmt == "json":
        assert json.loads(out)["agree"] is False
    else:
        assert "agreement     MISMATCH" in out


def test_routes_stay_independent(tmp_path, capsys, monkeypatch):
    # the formula never steps through the count route's offset codes ...
    real = kinglattice.core._offset_codes

    def refuse(ps):
        raise AssertionError("the formula route used the offset codes")

    monkeypatch.setattr(kinglattice.core, "_offset_codes", refuse)
    monkeypatch.setattr(kinglattice.boundary, "_offset_codes", refuse)
    for ps in (
        box(4, 3),
        PointSet.of([(0,), (2,), (5,), (6,)]),
        PointSet.of([(-(10**18), 0, 1), (0, 0, 0), (1, 1, 1)]),
        random_point_set(3, 9, 4, seed=7),
    ):
        assert edge_boundary_formula(ps).total == nb_edge_boundary(ps.points)

    # ... so a count broken there is caught by the formula: dropping the
    # last step, (+1,+1), loses the 6 exits the 4x3 box has along it
    def drop_last_step(ps):
        codes, offsets = real(ps)
        return codes, offsets[:-1]

    monkeypatch.setattr(kinglattice.boundary, "_offset_codes", drop_last_step)
    f = tmp_path / "b.pts"
    f.write_text(serialize_point_set(box(4, 3)))
    code, out, err = run_cli(capsys, "boundary", "--input", str(f), "--format", "json")
    assert code == 2
    assert err == "invariant violation: direct 32 != formula 38\n"
    assert json.loads(out)["agree"] is False


def test_cli_selftest_reports_route_mismatch(capsys, monkeypatch):
    overcount_direct(monkeypatch)
    code, out, err = run_cli(capsys, "selftest", "--sets", "3", "--seed", "5")
    assert code == 2
    assert "3 random sets checked, 3 failures" in out
    assert err.count("MISMATCH dim=") == 3
    assert err.count("invariant violation:") == 1
    assert err.splitlines()[-1].startswith("invariant violation: ")


def test_cli_is_deterministic(capsys):
    args = ("search", "--dim", "2", "--size", "8", "--format", "json")
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second


@pytest.mark.parametrize("dim", [13, 30])
def test_cli_boundary_refuses_high_dimension(tmp_path, capsys, dim):
    empty, origin = tmp_path / "d.pts", tmp_path / "o.pts"
    empty.write_text(f"dim {dim}\n")
    origin.write_text("0 " * dim + "\n")
    for command in ("boundary", "compress"):
        for f in (empty, origin):
            code, out, err = run_cli(capsys, command, "--input", str(f))
            assert code == 1
            assert err == f"error: dimension must be in 1..12, got {dim}\n"
            assert out == ""


def test_cli_search_refuses_high_dimension(capsys):
    code, out, err = run_cli(capsys, "search", "--dim", "13", "--size", "1")
    assert code == 1
    assert err == "error: dimension must be in 1..12, got 13\n"


def test_cli_module_runs_without_runtime_warning():
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "kinglattice.cli",
         "selftest", "--sets", "1"],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
