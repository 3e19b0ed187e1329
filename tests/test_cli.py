import dataclasses
import hashlib
import io
import json
import re
import subprocess
import sys
import tracemalloc
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
import kinglattice.formats
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


def test_parse_drops_one_leading_byte_order_mark():
    text = "dim 2\n0 0\n1 2\n"
    plain = parse_point_set(text)
    assert parse_point_set("\ufeff" + text) == plain
    assert parse_point_set(("\ufeff" + text).encode("utf-8")) == plain
    for later in ("\ufeff\ufeff" + text, text + "\ufeff3 4\n"):
        with pytest.raises(ParseError, match="non-integer coordinate"):
            parse_point_set(later)


def test_parse_refuses_underscores_and_non_ascii_digits(tmp_path, capsys):
    # int() alone would read "1_0" as 10 and the Arabic-Indic "٣" as 3
    for text, where in (
        ("1_0 2\n", "line 1: non-integer coordinate"),
        ("0 0\n\u0663 2\n", "line 2: non-integer coordinate"),
        ("0 0\n1\u00a02\n", "line 2: non-integer coordinate"),
        ("dim 0_2\n0 0\n", "line 1: non-integer dimension"),
        ("# dim \u0663\ndim \u0662\n", "line 2: non-integer dimension"),
    ):
        with pytest.raises(ParseError, match=where):
            parse_point_set(text)
        f = tmp_path / "bad.pts"
        f.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "boundary", "--input", str(f))
        assert (code, out) == (1, "")
        assert where in err
    # comments may hold anything, and signs stay allowed
    text = "# \u0663_\u00e9\n-1, +2  # \u0663\n"
    assert parse_point_set(text).points == frozenset({(-1, 2)})


def test_parse_refuses_a_line_of_only_commas(tmp_path, capsys):
    # each bad line has content but no token; the last holds an em space,
    # a non-ASCII character, so it would reach the non-ASCII check first
    for text, where in (
        ("0 0\n,\n", "line 2: no coordinates in ','"),
        (", ,\n0 0\n", "line 1: no coordinates in ', ,'"),
        ("dim 2\n0 0\n,\u2003,\n", "line 3: no coordinates in ',\\u2003,'"),
    ):
        with pytest.raises(ParseError, match=re.escape(where)):
            parse_point_set(text)
        f = tmp_path / "bad.pts"
        f.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "boundary", "--input", str(f))
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: {where}"]


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit"
)
def test_parse_names_an_integer_past_the_digit_limit(tmp_path, capsys):
    # int() refuses an integer string past the limit; the token is an
    # integer, so it is reported as too long, not as non-integer
    limit = sys.get_int_max_str_digits()
    digits = "1" * (limit + 700)
    for text, where in (
        (f"0 0\n{digits} 0\n", f"line 2: coordinate longer than {limit} digits"),
        (f"0 0\n1 -{digits}\n", f"line 2: coordinate longer than {limit} digits"),
        (f"dim {digits}\n", f"line 1: dimension longer than {limit} digits"),
    ):
        with pytest.raises(ParseError) as raised:
            parse_point_set(text)
        assert str(raised.value) == where
        f = tmp_path / "long.pts"
        f.write_text(text, encoding="ascii")
        code, out, err = run_cli(capsys, "boundary", "--input", str(f))
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: {where}"]
    # at the limit the integer is read
    assert parse_point_set(f"{'1' * limit} 0\n").dim == 2


def test_parse_errors_echo_only_the_start_of_a_long_line(tmp_path, capsys):
    # each bad value is thousands of characters long; the one-line error
    # names its line and at most the first few dozen characters of it
    long = "9" * 4000
    for text, where in (
        (f"0 0\n{long} x\n", "line 2: non-integer coordinate in '9999"),
        (f"dim {long}x\n", "line 1: non-integer dimension in 'dim 9999"),
        (f"0\n{long}\u0663\n", "line 2: non-integer coordinate in '9999"),
        (f"0\n,{long}\u2003,\n", "line 2: non-integer coordinate in ',9999"),
        (f"{long} 0\n{long} 0\n", "line 2: duplicate point (9999"),
    ):
        with pytest.raises(ParseError) as raised:
            parse_point_set(text)
        message = str(raised.value)
        assert message.startswith(where) and len(message) < 100
        f = tmp_path / "long.pts"
        f.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "boundary", "--input", str(f))
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: {message}"]
    for doc in (
        {"kind": "x" * 4000},
        {"kind": "search_report", "dimension": "y" * 4000},
    ):
        text = json.dumps({"schema": "kinglattice.report/1", **doc})
        with pytest.raises(ParseError) as raised:
            parse_report(text)
        assert len(str(raised.value)) < 100


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


FAR = 10**18


def _far_witnesses(r):
    """r with its witnesses moved to negative and +-10^18 coordinates."""
    shift = ((-FAR, FAR - 7) + (-3,) * r.dimension)[: r.dimension]
    moved = tuple(w.translate(shift) for w in r.witnesses)
    return dataclasses.replace(r, witnesses=moved)


def written_in_full(value):
    """A value the report writer holds back, as the document lists it."""
    if isinstance(value, PointSet):
        return sorted(value.points)
    return [
        {"direction": list(d), "lines": lines, "gaps": gaps}
        for d, (lines, gaps) in sorted(value.per_direction.items())
    ]


@pytest.mark.parametrize(
    "make, direct_total",
    [
        (lambda: edge_boundary_formula(PointSet.of([(-3, FAR), (0, 0), (-FAR, -1)])), None),
        (lambda: edge_boundary_formula(box(4, 3)), 38),
        (lambda: edge_boundary_formula(PointSet(2)), 0),
        (lambda: edge_boundary_formula(PointSet.of([(0,)])), None),
        (lambda: min_edge_boundary(2, 5), None),
        (lambda: _far_witnesses(min_edge_boundary(3, 3)), None),
        (lambda: survey_gap_free_optima(2, 3), None),
        (lambda: [_far_witnesses(r) for r in survey_gap_free_optima(1, 2)], None),
        (lambda: [], None),
        (lambda: compress_to_fixed_point(PointSet(2)), None),
        (lambda: compress_to_fixed_point(PointSet.of([(-FAR, 5), (FAR, -3), (0, 0), (1, 1)])), None),
        (lambda: compress_to_fixed_point(PointSet.of([(5,), (-2,)])), None),
        (lambda: compress_to_fixed_point(random_point_set(3, 40, 5, seed=4)), None),
    ],
)
def test_report_writer_matches_the_indenting_encoder(make, direct_total):
    # the writer against the same document through json.dumps(indent=2) with
    # every point set and breakdown written in full: a breakdown with and
    # without direct_total, searches, surveys, and traces of an empty set,
    # far-apart points and a line
    r = make()
    doc = kinglattice.formats._document(r, direct_total)
    expected = json.dumps(doc, indent=2, default=written_in_full) + "\n"
    assert serialize_report(r, direct_total=direct_total) == expected


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


# Writer output in full, verbatim: the layout comes from the interpreter's
# json module, so these pin the bytes on every supported version.

# compress_to_fixed_point of {(0, 2), (3, 0)}
TRACE_REPORT = """\
{
  "schema": "kinglattice.report/1",
  "kind": "compression_trace",
  "dim": 2,
  "initial_points": [
    [
      0,
      2
    ],
    [
      3,
      0
    ]
  ],
  "steps": [
    {
      "axis": 1,
      "boundary_before": 16,
      "boundary_after": 16,
      "potential_before": [
        13,
        -5
      ],
      "potential_after": [
        4,
        -2
      ]
    },
    {
      "axis": 2,
      "boundary_before": 16,
      "boundary_after": 14,
      "potential_before": [
        4,
        -2
      ],
      "potential_after": [
        1,
        -1
      ]
    }
  ],
  "final_points": [
    [
      0,
      0
    ],
    [
      0,
      1
    ]
  ]
}
"""

# compress_to_fixed_point of the empty set in Z^2
EMPTY_TRACE_REPORT = """\
{
  "schema": "kinglattice.report/1",
  "kind": "compression_trace",
  "dim": 2,
  "initial_points": [],
  "steps": [],
  "final_points": []
}
"""

# edge_boundary_formula of {(0,), (2,)}, with direct_total=4
BREAKDOWN_REPORT = """\
{
  "schema": "kinglattice.report/1",
  "kind": "boundary_breakdown",
  "dim": 1,
  "per_direction": [
    {
      "direction": [
        -1
      ],
      "lines": 1,
      "gaps": 1
    },
    {
      "direction": [
        1
      ],
      "lines": 1,
      "gaps": 1
    }
  ],
  "total": 4,
  "direct_total": 4,
  "agree": true
}
"""

# survey_gap_free_optima(1, 2)
SURVEY_REPORT = """\
{
  "schema": "kinglattice.report/1",
  "kind": "survey",
  "rows": [
    {
      "schema": "kinglattice.report/1",
      "kind": "search_report",
      "dimension": 1,
      "size": 1,
      "min_edge_boundary": 2,
      "method": "exhaustive",
      "optimal": true,
      "sets_scanned": 1,
      "any_witness_gap_free": true,
      "all_witnesses_gap_free": true,
      "witnesses": [
        {
          "points": [
            [
              0
            ]
          ],
          "exterior_vertex_boundary": 2,
          "fully_gap_free": true
        }
      ]
    },
    {
      "schema": "kinglattice.report/1",
      "kind": "search_report",
      "dimension": 1,
      "size": 2,
      "min_edge_boundary": 2,
      "method": "exhaustive",
      "optimal": true,
      "sets_scanned": 1,
      "any_witness_gap_free": true,
      "all_witnesses_gap_free": true,
      "witnesses": [
        {
          "points": [
            [
              0
            ],
            [
              1
            ]
          ],
          "exterior_vertex_boundary": 2,
          "fully_gap_free": true
        }
      ]
    }
  ]
}
"""


@pytest.mark.parametrize(
    "make, direct_total, text",
    [
        (lambda: compress_to_fixed_point(PointSet.of([(0, 2), (3, 0)])), None, TRACE_REPORT),
        (lambda: compress_to_fixed_point(PointSet(2)), None, EMPTY_TRACE_REPORT),
        (lambda: edge_boundary_formula(PointSet.of([(0,), (2,)])), 4, BREAKDOWN_REPORT),
        (lambda: survey_gap_free_optima(1, 2), None, SURVEY_REPORT),
    ],
    ids=["trace", "empty-trace", "breakdown", "survey"],
)
def test_report_writer_reproduces_golden_bytes(make, direct_total, text):
    assert serialize_report(make(), direct_total=direct_total) == text


# The 244-line breakdown of {(0, 0, 0), (2, 0, -2)} in Z^3 with direct_total,
# pinned by SHA-256 and by its one entry with a gap, the pair along -+(1, 0, -1)
BREAKDOWN_Z3_SHA256 = "57d50946125b8e747b4b11802216f10df4244153ffaf9062ab339f028a30e364"
BREAKDOWN_Z3_GAP_ENTRY = """\
    {
      "direction": [
        -1,
        0,
        1
      ],
      "lines": 1,
      "gaps": 1
    },
"""


def test_breakdown_writer_reproduces_golden_bytes_in_z3():
    ps = PointSet.of([(0, 0, 0), (2, 0, -2)])
    text = serialize_report(edge_boundary_formula(ps), direct_total=52)
    assert hashlib.sha256(text.encode()).hexdigest() == BREAKDOWN_Z3_SHA256
    assert BREAKDOWN_Z3_GAP_ENTRY in text
    assert text.endswith('  "total": 52,\n  "direct_total": 52,\n  "agree": true\n}\n')


def test_method_with_a_held_looking_line_round_trips():
    # a method string holding the line the writer splices stays a string: the
    # encoder escapes its newlines and quotes, so no line of the text matches
    r = dataclasses.replace(
        min_edge_boundary(2, 2), method='heuristic\n      "points": null,\n'
    )
    text = serialize_report(r)
    assert text.count('"points": [') == len(r.witnesses)
    assert parse_report(text) == r


def test_writer_refuses_to_leave_a_point_set_null(monkeypatch):
    monkeypatch.setattr(kinglattice.formats, "_HELD_LINE", re.compile("(?!)"))
    with pytest.raises(RuntimeError, match="spliced 0 of 2 held point lists"):
        serialize_report(compress_to_fixed_point(PointSet.of([(0,)])))


def test_parse_report_rejects_bad_documents():
    with pytest.raises(ParseError):
        parse_report("not json")
    with pytest.raises(ParseError):
        parse_report(json.dumps({"schema": "other/9"}))
    with pytest.raises(ParseError):
        parse_report(json.dumps({"schema": "kinglattice.report/1", "kind": "wat"}))


def test_parse_report_refuses_too_deep_a_document():
    # json.loads raises RecursionError, not JSONDecodeError, on deep nesting
    with pytest.raises(ParseError, match="bad report JSON: maximum recursion"):
        parse_report("[" * 100_000)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit"
)
def test_parse_report_refuses_an_integer_past_the_digit_limit():
    # json.loads raises a plain ValueError past the int-to-str digit limit
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(ParseError, match="bad report JSON: Exceeds the limit"):
        parse_report(f'{{"schema": "kinglattice.report/1", "dim": {digits}}}')


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


@pytest.mark.parametrize("extent", ["0", "-5"])
def test_cli_render_refuses_an_extent_below_one(tmp_path, capsys, extent):
    # refused before the box is measured, not as a box too large for the limit
    f = tmp_path / "r.pts"
    f.write_text("0 0\n1 1\n")
    code, out, err = run_cli(capsys, "render", "--input", str(f), "--max-extent", extent)
    assert code == 1
    assert out == ""
    assert err == f"error: max_extent must be >= 1, got {extent}\n"


def test_cli_selftest(capsys):
    code, out, err = run_cli(capsys, "selftest", "--sets", "30", "--seed", "5")
    assert code == 0
    assert "30 random sets checked, 0 failures" in out


def test_cli_selftest_checks_each_direction_pair_once(capsys, monkeypatch):
    calls = []

    def counted(name, record):
        real = getattr(kinglattice.cli, name)

        def call(*args):
            calls.append(record(args))
            return real(*args)

        monkeypatch.setattr(kinglattice.cli, name, call)

    counted("edge_boundary_formula", lambda args: "formula")
    counted("gap_set", lambda args: args[1])  # the direction
    code, out, err = run_cli(capsys, "selftest", "--sets", "9", "--seed", "5")
    assert code == 0
    calls = Counter(calls)
    # one breakdown per set, whose counts the gap check reads
    assert calls.pop("formula") == 9
    # trial t, in dimension 1 + t % 3, has (3^dim - 1) / 2 pairs of d, -d,
    # and gap_set reads only the -d, whose first nonzero entry is -1
    assert sum(calls.values()) == sum((3 ** (1 + t % 3) - 1) // 2 for t in range(9))
    assert all(next(s for s in d if s) == -1 for d in calls)
    # each such direction of each dimension once per trial
    assert set(calls.values()) == {3}


def test_cli_selftest_still_catches_gap_asymmetry(capsys, monkeypatch):
    real = kinglattice.cli.gap_set

    def lopsided(ps, d):
        first = next(s for s in d if s)
        return real(ps, d) | {("extra",)} if first == -1 else real(ps, d)

    monkeypatch.setattr(kinglattice.cli, "gap_set", lopsided)
    code, out, err = run_cli(capsys, "selftest", "--sets", "3", "--seed", "5")
    assert code == 2
    assert "3 random sets checked, " in out
    assert "GAP ASYMMETRY dim=1 k=1 trial=0 d=(-1,)" in err


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
    # steps +-(1, 1), the last and the first, loses the 2 x 6 exits the 4x3
    # box has along them
    def drop_diagonal_steps(ps):
        codes, offsets = real(ps)
        return codes, offsets[1:-1]

    monkeypatch.setattr(kinglattice.boundary, "_offset_codes", drop_diagonal_steps)
    f = tmp_path / "b.pts"
    f.write_text(serialize_point_set(box(4, 3)))
    code, out, err = run_cli(capsys, "boundary", "--input", str(f), "--format", "json")
    assert code == 2
    assert err == "invariant violation: direct 26 != formula 38\n"
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


def test_cli_refuses_a_huge_dimension_header_before_any_column(tmp_path, capsys):
    # a header alone: the dimension check must come before the formula's
    # coordinate columns, which would be 10^9 empty ones here
    f = tmp_path / "huge.pts"
    f.write_text("dim 1000000000\n")
    for command in ("boundary", "compress"):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, command, "--input", str(f))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert err == "error: dimension must be in 1..12, got 1000000000\n"
        assert out == ""
        assert peak < 2**20, (command, peak)


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
