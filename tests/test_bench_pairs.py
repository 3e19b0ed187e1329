import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_reproduces_the_stored_bench_figures(bench_pairs):
    # BENCH_22.json was assembled by hand from the same runs; the script's
    # summary of those runs must give the figures stored beside them.  Both
    # round to 4 places, so a figure may differ by one unit in the last.
    last_place = 1e-4 + 1e-12
    stored = json.loads((ROOT / "BENCH_22.json").read_text())
    checked = 0
    for workload in stored["workloads"].values():
        for entry in workload["metrics"].values():
            parent, change = entry["parent"], entry["change"]
            summary = bench_pairs.summarize(parent["runs"], change["runs"])
            for side in ("parent", "change"):
                for key in ("q1", "median", "q3"):
                    stored_figure = pytest.approx(entry[side][key], abs=last_place)
                    assert summary[side][key] == stored_figure
                assert summary[side]["runs"] == entry[side]["runs"]
            assert summary["change_lower_in_pairs"] == entry["change_lower_in_pairs"]
            assert summary["change_over_parent_median"] == pytest.approx(
                entry["change_over_parent_median"], abs=2e-3
            )
            checked += 1
    assert checked == 9
    # a tie counts for neither side
    tied = bench_pairs.summarize([1.0, 2.0, 3.0], [1.0, 1.5, 3.5])
    assert tied["change_lower_in_pairs"] == 1


def _workload(bench_pairs, runs, failed=(0, 0), attempted=(100, 100)):
    return {
        "attempted": dict(zip(bench_pairs.SIDES, attempted)),
        "failed": dict(zip(bench_pairs.SIDES, failed)),
        "metrics": {
            metric: {"unit": "s", **bench_pairs.summarize(parent, change)}
            for metric, (parent, change) in runs.items()
        },
    }


BENCH = {"end_to_end": [{"name": "t", "unit": "s", "better": "lower", "bound": 0.1}]}
CLAIM = {"workload": "w", "metric": "t", "better": "lower"}
TIGHT = [2.0, 2.01, 2.02, 2.01, 2.0]


def test_verdicts_call_a_metric_unresolved_when_the_parent_spreads_past_the_bound(
    bench_pairs,
):
    # the parent's quartiles lie 0.2 apart against a bound of 0.1, so a
    # median shift inside the bound proves nothing either way
    wide = [1.0, 1.1, 1.2, 1.3, 1.4]
    near = [1.21, 1.19, 1.24, 1.15, 1.26]
    note = bench_pairs.verdicts(
        {"w": _workload(bench_pairs, {"t": (wide, near)})}, BENCH, None
    )
    assert "unresolved" in note and "w t (parent quartiles 1.1-1.3 s" in note
    # unless every change run beats every parent run
    low = [0.5, 0.6, 0.55, 0.7, 0.65]
    note = bench_pairs.verdicts(
        {"w": _workload(bench_pairs, {"t": (wide, low)})}, BENCH, None
    )
    assert "unresolved" not in note
    # a tight parent leaves a shift inside the bound resolved
    note = bench_pairs.verdicts(
        {"w": _workload(bench_pairs, {"t": (TIGHT, [2.05] * 5)})}, BENCH, None
    )
    assert note == "no end-to-end metric's median is worse than the parent's past its bound"
    note = bench_pairs.verdicts(
        {"w": _workload(bench_pairs, {"t": (TIGHT, [2.2] * 5)})}, BENCH, None
    )
    assert note.startswith("worse than the parent past its bound: w t by 0.19")


def test_claim_needs_no_larger_share_of_failed_operations(bench_pairs):
    faster = [1.0, 1.01, 1.0, 1.02, 1.01]
    runs = {"t": (TIGHT, faster)}
    note = bench_pairs.verdicts({"w": _workload(bench_pairs, runs)}, BENCH, CLAIM)
    assert note.startswith("claimed: w t median 2.01 -> 1.01 s, lower in 5 of 5 pairs")
    # the same share of failures on twice the operations still counts
    w = _workload(bench_pairs, runs, failed=(1, 2), attempted=(100, 200))
    assert bench_pairs.verdicts({"w": w}, BENCH, CLAIM).startswith("claimed")
    w = _workload(bench_pairs, runs, failed=(1, 3), attempted=(100, 200))
    note = bench_pairs.verdicts({"w": w}, BENCH, CLAIM)
    assert note.startswith("claim not met")
    assert note.endswith("a larger share of operations failed on: w")


@pytest.mark.parametrize("pairs,refused", [(2, True), (9, True), (10, False)])
def test_claim_is_refused_under_ten_pairs(
    bench_pairs, monkeypatch, tmp_path, capsys, pairs, refused
):
    # the gain rule is defined over at least ten pairs, so fewer are refused
    # before any benchmark runs; without --claim, 2 pairs are enough
    class Ran(Exception):
        pass

    def ran(*args, **kwargs):
        raise Ran

    (tmp_path / "change").mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text()
    )
    monkeypatch.setattr(bench_pairs, "run_workload", ran)
    argv = [
        "bench_pairs.py", str(tmp_path / "parent"), str(tmp_path / "change"),
        "--pr", "1", "--pairs", str(pairs), "--title", "t", "--parent-sha", "0",
        "--claim", "search-exhaustive:round_s",
    ]
    monkeypatch.setattr(bench_pairs.sys, "argv", argv)
    with pytest.raises(SystemExit if refused else Ran) as raised:
        bench_pairs.main()
    if refused:
        assert raised.value.code == 2
        assert "--claim needs at least 10 pairs" in capsys.readouterr().err
    monkeypatch.setattr(bench_pairs.sys, "argv", argv[:-2])
    with pytest.raises(Ran):
        bench_pairs.main()


def test_every_run_of_a_bench_file_has_one_seed(bench_pairs, monkeypatch, tmp_path):
    # the seed draws given-sets' random sets, whose peak memory moves with
    # the seed by more than peak_rss_mb's bound, so no pair may differ in it
    runs = []

    def run_once(root, command, workload, seed, seconds):
        runs.append((root.name, workload, seed))
        value = {"value": float(len(runs))}
        return {
            "correct": True, "attempted": 1, "failed": 0,
            "metrics": {"setup_s": value, "peak_rss_mb": value, "round_s": value},
        }

    for side in bench_pairs.SIDES:
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text()
    )
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.chdir(tmp_path)
    argv = [
        "bench_pairs.py", str(tmp_path / "parent"), str(tmp_path / "change"),
        "--pr", "26", "--pairs", "3", "--title", "t", "--parent-sha", "0",
    ]
    monkeypatch.setattr(bench_pairs.sys, "argv", argv)
    assert bench_pairs.main() == 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    sides = ["parent", "change", "change", "parent", "parent", "change"]
    assert runs == [(side, w, 2600) for w in workloads for side in sides]
    written = json.loads((tmp_path / "BENCH_26.json").read_text())
    for w in workloads:
        assert written["workloads"][w]["pairs"] == 3
        assert written["workloads"][w]["seed"] == 2600
