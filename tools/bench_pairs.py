"""Run the benchmark in alternating parent/change pairs and write BENCH_<pr>.json.

    python3 tools/bench_pairs.py PARENT CHANGE --pr N --pairs P --title TEXT \\
        --parent-sha SHA [--claim WORKLOAD:METRIC]

PARENT and CHANGE are exported source trees of the two commits, each made
by ``git archive <rev> | tar -x -C <dir>``, so each side runs its own
``perfbench/`` and ``src/``.  For every workload that CHANGE's
BENCHMARK.json declares, each of the P pairs runs the declared command with
``--workload W --seed <100 N> --seconds S --trace 0`` once in each tree,
where S is that file's ``run_seconds``, so every BENCH file is made from
runs of the declared length.  Every run of a BENCH file has the same seed:
the seed draws given-sets' random sets, whose peak memory differs from
seed to seed by more than ``peak_rss_mb``'s 0.1 MB bound (runs of one seed
read 23.99, 24.04 and 24.00 MB, of seeds 2602 and 2603 24.20 and
24.03 MB), so pairs on different seeds spread the parent's quartiles past
that bound.  The parent goes first in odd pairs and the change first in
even ones, so a drift of the host's speed does not favour one side.  Runs
go one at a time.

Export both sides to paths of equal length, such as ``bench/parent`` and
``bench/change``.  ``peak_rss_mb`` moves with the length of the checkout's
path: two exports of one commit whose paths differed by two characters read
16.24 and 16.37 MB, a gap wider than the metric's 0.1 MB bound.  Paths of
different lengths are refused.

The file is written to the current directory.  For each metric of
BENCHMARK.json's ``end_to_end`` list it holds each side's runs, in pair
order, and their quartiles by ``statistics.quantiles(method='inclusive')``,
the pairs in which the change read lower, and the change's median over the
parent's, and each side's operations attempted and failed.  With
``--claim``, which needs at least 10 pairs, the note says whether that
metric met the gain rule: lower in at least nine tenths of the pairs, by
more than the distance between the parent's quartiles, with no larger
share of failed operations than the parent's on that workload.  Either
way it names every metric whose median worsened by more than its bound,
every metric it cannot judge because the parent's quartiles lie further
apart than the bound (unless every change run beat every parent run), and
every workload whose share of failed operations grew.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def summarize(parent: list[float], change: list[float]) -> dict:
    """One metric's entry from both sides' runs, listed in pair order."""
    entry = {}
    for side, runs in zip(SIDES, (parent, change)):
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
        entry[side] = {
            "q1": round(q1, 4),
            "median": round(median, 4),
            "q3": round(q3, 4),
            "runs": runs,
        }
    entry["change_lower_in_pairs"] = sum(c < p for p, c in zip(parent, change))
    entry["change_over_parent_median"] = round(
        statistics.median(change) / statistics.median(parent), 4
    )
    return entry


def run_once(
    root: Path, command: list[str], workload: str, seed: int, seconds: float
) -> dict:
    """The JSON object on the last line of one benchmark run in ``root``."""
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(
            f"{root}: {workload} seed {seed} exited {done.returncode}\n{done.stderr}"
        )
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(
    roots: dict[str, Path],
    command: list[str],
    workload: str,
    seed: int,
    pairs: int,
    seconds: float,
    metrics: dict[str, str],
) -> dict:
    """The workload's entry: ``pairs`` pairs of runs on one seed, sides alternating."""
    results: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            print(f"{workload} pair {i + 1}: {side}", file=sys.stderr, flush=True)
            result = run_once(roots[side], command, workload, seed, seconds)
            results[side].append(result)
    runs = {
        side: {
            m: [round(r["metrics"][m]["value"], 4) for r in results[side]]
            for m in metrics
        }
        for side in SIDES
    }
    return {
        "pairs": pairs,
        "seed": seed,
        "all_correct": all(r["correct"] for side in SIDES for r in results[side]),
        "attempted": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
        "failed": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "metrics": {
            m: {"unit": unit, **summarize(runs["parent"][m], runs["change"][m])}
            for m, unit in metrics.items()
        },
    }


def fails_more(workload: dict) -> bool:
    """Whether the change failed a larger share of its operations than the parent."""
    failed, attempted = workload["failed"], workload["attempted"]
    return failed["change"] * attempted["parent"] > failed["parent"] * attempted["change"]


def verdicts(workloads: dict, bench: dict, claim: dict | None) -> str:
    """The claim's outcome under the gain rule, and every metric past or unjudged
    by its bound."""
    parts = []
    if claim is not None:
        workload = workloads[claim["workload"]]
        entry = workload["metrics"][claim["metric"]]
        parent, change = entry["parent"], entry["change"]
        pairs, wins = len(parent["runs"]), entry["change_lower_in_pairs"]
        gap, spread = parent["median"] - change["median"], parent["q3"] - parent["q1"]
        met = 10 * wins >= 9 * pairs and gap > spread and not fails_more(workload)
        parts.append(
            f"{'claimed' if met else 'claim not met'}: {claim['workload']} "
            f"{claim['metric']} median {parent['median']} -> {change['median']} "
            f"{entry['unit']}, lower in {wins} of {pairs} pairs; the difference "
            f"({gap:.4g}) against the parent's interquartile range ({spread:.4g}); "
            f"failed operations {workload['failed']['parent']} of "
            f"{workload['attempted']['parent']} -> {workload['failed']['change']} of "
            f"{workload['attempted']['change']}"
        )
    worse, unresolved = [], []
    for spec in bench["end_to_end"]:
        sign = 1 if spec["better"] == "lower" else -1
        for name, w in workloads.items():
            entry = w["metrics"][spec["name"]]
            parent, change = entry["parent"], entry["change"]
            rise = sign * (change["median"] - parent["median"])
            spread = parent["q3"] - parent["q1"]
            # signed values, so that lower is better for every metric
            all_better = max(sign * v for v in change["runs"]) < min(
                sign * v for v in parent["runs"]
            )
            if rise > spec["bound"]:
                worse.append(f"{name} {spec['name']} by {rise:.4g} {spec['unit']}")
            elif spread > spec["bound"] and not all_better:
                unresolved.append(
                    f"{name} {spec['name']} (parent quartiles {parent['q1']}-"
                    f"{parent['q3']} {spec['unit']}, bound {spec['bound']}; median "
                    f"{parent['median']} -> {change['median']})"
                )
    parts.append(
        "worse than the parent past its bound: " + "; ".join(worse)
        if worse else "no end-to-end metric's median is worse than the parent's past its bound"
    )
    if unresolved:
        parts.append(
            "unresolved, the parent's interquartile range being wider than the "
            "bound: " + "; ".join(unresolved)
        )
    more = [name for name, w in workloads.items() if fails_more(w)]
    if more:
        parts.append("a larger share of operations failed on: " + ", ".join(more))
    return "; ".join(parts)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="exported tree of the parent commit")
    parser.add_argument("change", type=Path, help="exported tree of the change")
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--title", required=True)
    parser.add_argument("--parent-sha", required=True)
    parser.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC")
    args = parser.parse_args()

    roots = {side: getattr(args, side).resolve() for side in SIDES}
    if len(str(roots["parent"])) != len(str(roots["change"])):
        parser.error("the two trees' paths differ in length, which moves peak_rss_mb")
    if args.pairs < 2:
        parser.error("quartiles need at least 2 pairs")
    if args.claim and args.pairs < 10:
        parser.error("--claim needs at least 10 pairs, over which the gain rule is defined")
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    claim = None
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        names = [w["name"] for w in bench["workloads"]]
        # the gain rule reads change_lower_in_pairs, so lower must be better
        lower = [m["name"] for m in bench["end_to_end"] if m["better"] == "lower"]
        if workload not in names or metric not in lower:
            parser.error(f"--claim must be one of {names} : one of {lower}")
        claim = {"workload": workload, "metric": metric, "better": "lower"}

    seed = 100 * args.pr
    workloads = {
        w["name"]: run_workload(
            roots, bench["command"], w["name"], seed, args.pairs,
            bench["run_seconds"], metrics,
        )
        for w in bench["workloads"]
    }
    doc = {
        "bench": args.pr,
        "title": args.title,
        "parent_sha": args.parent_sha,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "command": " ".join(bench["command"])
        + f" --workload W --seed {seed} --seconds {bench['run_seconds']:g} --trace 0,"
        " run from an export of each side",
        "method": "alternating parent/change pairs (odd pairs parent first, even pairs "
        "change first), one seed for every run; quartiles by "
        "statistics.quantiles(method='inclusive') over the pairs' run values; "
        "written by tools/bench_pairs.py",
        "claim": claim,
        "claim_note": verdicts(workloads, bench, claim),
        "workloads": workloads,
    }
    out = Path.cwd() / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
