"""kinglattice benchmark: three workloads, checked outputs, optional tracing.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Every round of a workload runs in a fresh interpreter
(worker.py), as every CLI invocation does, so no in-process cache carries
over from one round to the next.  Rounds repeat until S seconds have passed.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` rounds alternate untraced and traced
and it holds the per-layer metrics.  The end-to-end times are scaled to a
host on which a fixed reference loop, timed beside every measurement, takes
REFERENCE_LOOP_S, because a shared host's speed drifts; the wall times
themselves are reported by the traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search-exhaustive", "family-enumerate", "given-sets")
SETUP_PROBES = 5
# Nominal time of worker.reference_loop_s's loop; end-to-end times are
# measured in loops and reported as seconds at this speed.
REFERENCE_LOOP_S = 0.008
CHILD_TIMEOUT_S = 150

# (dimension, points, share of the bounding box occupied)
GIVEN_SETS = ((2, 15000, 0.5), (3, 4000, 0.4), (4, 1200, 0.3))

# Per-layer metric -> raw figure from tracing.Tracer.metrics().
LAYER_METRICS = {
    "core.directions.calls": "directions.calls",
    "core.line_sections.calls": "line_sections.calls",
    "core.line_sections.self_s": "line_sections.self_s",
    "boundary.edge_boundary_direct.calls": "edge_boundary_direct.calls",
    "boundary.edge_boundary_direct.self_s": "edge_boundary_direct.self_s",
    "boundary.edge_boundary_formula.calls": "edge_boundary_formula.calls",
    "boundary.edge_boundary_formula.self_s": "edge_boundary_formula.self_s",
    "boundary.gap_set.self_s": "gap_set.self_s",
    "boundary.exterior_vertex_boundary.self_s": "exterior_vertex_boundary.self_s",
    "compression.compress_to_fixed_point.steps": "compress_to_fixed_point.steps",
    "compression.edge_boundary_direct.calls": "compress_to_fixed_point>edge_boundary_direct.calls",
    "compression.central_compress.self_s": "central_compress.self_s",
    "compression.potential.self_s": "potential.self_s",
    "search.enumerate.sets": "enumerate_compressed_sets.yields",
    "search.enumerate.s": "enumerate_compressed_sets.s",
    "search.enumerate.first_set_s": "enumerate_compressed_sets.first_s",
    "search.sets_scanned": "min_edge_boundary.sets_scanned",
    "search.evaluate_s": "min_edge_boundary>routes.s",
    "search.report_s": "min_edge_boundary>diagnostics.s",
    "cli.parse_point_set.self_s": "parse_point_set.self_s",
    "cli.serialize_report.self_s": "serialize_report.self_s",
    "cli.main.self_s": "main.self_s",
}

# Untraced wall time per kind of operation, reported by the traced run.
OP_METRICS = {
    "search_s": "search",
    "survey_s": "survey",
    "boundary_s": "boundary",
    "compress_s": "compress",
    "selftest_s": "selftest",
}


def make_given_sets(seed: int, outdir: Path) -> None:
    """Write one seeded random set file per dimension; sizes do not vary."""
    for n, size, density in GIVEN_SETS:
        rng = random.Random(seed * 16 + n)
        side = round((size / density) ** (1 / n))
        shift = [rng.randrange(-side, side) for _ in range(n)]
        lines = [f"# seed {seed}: {size} random cells of a box of side {side}", f"dim {n}"]
        for cell in rng.sample(range(side**n), size):
            coords = []
            for j in range(n):
                cell, c = divmod(cell, side)
                coords.append(str(c + shift[j]))
            lines.append(" ".join(coords))
        (outdir / f"set-z{n}.txt").write_text("\n".join(lines) + "\n")


def spawn(workload: str, seed: int, trace: bool, full_check: bool, outdir: Path) -> dict:
    """Run one round in a fresh interpreter and return what it reports."""
    # -S -E: the interpreter's site hooks and environment are not the
    # program's; here they add a variable 20-50 ms to every start.
    argv = [sys.executable, "-S", "-E", str(HERE / "worker.py"), workload, str(seed),
            str(int(trace)), str(int(full_check)), str(outdir)]
    t0 = time.monotonic()
    proc = subprocess.run(
        argv + [repr(t0)], cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def op_medians(rounds: list[dict]) -> dict[str, tuple[str, float, int]]:
    """label -> (kind, median seconds over the rounds, items per round)."""
    by_label: dict[str, list[dict]] = {}
    for r in rounds:
        for op in r["ops"]:
            by_label.setdefault(op["label"], []).append(op)
    return {
        label: (ops[0]["kind"], statistics.median(o["s"] for o in ops), ops[0]["items"])
        for label, ops in by_label.items()
    }


def round_loops(rounds: list[dict]) -> float:
    """Sum over the operations of the median, over the rounds, of the
    operation's time in units of the reference loop timed beside it."""
    by_label: dict[str, list[float]] = {}
    for r in rounds:
        for op in r["ops"]:
            by_label.setdefault(op["label"], []).append(op["s"] / op["ref_s"])
    return sum(statistics.median(v) for v in by_label.values())


def end_to_end(setups: list[dict], rounds: list[dict]) -> dict[str, tuple[float, str]]:
    setup_loops = statistics.median(w["setup_s"] / w["setup_ref_s"] for w in setups)
    return {
        "setup_s": (setup_loops * REFERENCE_LOOP_S, "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in rounds), "MB"),
        "round_s": (round_loops(rounds) * REFERENCE_LOOP_S, "s"),
    }


def per_layer(setups: list[dict], plain: list[dict], traced: list[dict]) -> dict[str, tuple[float, str]]:
    out = {}
    for name, raw in LAYER_METRICS.items():
        values = [r["layers"].get(raw, 0) for r in traced]
        if name.endswith("_s") or name.endswith(".s"):
            out[name] = (statistics.median(values), "s")
        else:
            out[name] = (int(statistics.median_low(values)), "count")
    ops = op_medians(plain)
    out["setup_wall_s"] = (statistics.median(w["setup_s"] for w in setups), "s")
    out["round_wall_s"] = (sum(s for _, s, _ in ops.values()), "s")
    out["reference_loop_s"] = (statistics.median(op["ref_s"] for r in plain for op in r["ops"]), "s")
    for name, kind in OP_METRICS.items():
        out[name] = (sum(s for k, s, _ in ops.values() if k == kind), "s")
    enum_s = sum(s for k, s, _ in ops.values() if k == "enumerate")
    enum_sets = sum(n for k, _, n in ops.values() if k == "enumerate")
    out["family_sets_per_s"] = (enum_sets / enum_s if enum_s else 0.0, "sets/s")
    traced_s = sum(s for _, s, _ in op_medians(traced).values())
    out["trace.overhead_s"] = (traced_s - sum(s for _, s, _ in ops.values()), "s")
    return out


def self_time_table(traced: list[dict]) -> list[str]:
    layers = traced[-1]["layers"]
    selfs = sorted(
        ((v, k[: -len(".self_s")]) for k, v in layers.items() if k.endswith(".self_s")),
        reverse=True,
    )
    total = sum(v for v, _ in selfs) or 1.0
    return [
        f"  self {v:9.4f} s {100 * v / total:5.1f} %  {name} "
        f"({int(layers[name + '.calls'])} calls)"
        for v, name in selfs
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "kinglattice" / "__init__.py").is_file():
        print(f"error: no kinglattice sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    outdir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}"
    outdir.mkdir(parents=True, exist_ok=True)
    if args.workload == "given-sets":
        make_given_sets(args.seed, outdir)

    spawn("setup", args.seed, False, False, outdir)  # writes bytecode caches
    start = time.monotonic()
    setups = [spawn("setup", args.seed, False, False, outdir) for _ in range(SETUP_PROBES)]
    # Start another round while it would end, by the last round's length,
    # no more than half a round past the deadline.
    rounds: list[dict] = []
    last = 0.0
    while len(rounds) < 1 + args.trace or time.monotonic() - start + last / 2 < args.seconds:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        began = time.monotonic()
        rounds.append(spawn(args.workload, args.seed, traced, not rounds, outdir))
        last = time.monotonic() - began
    setups += rounds
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]

    if args.trace:
        metrics = per_layer(setups, plain, traced)
        print("self time by function, last traced round:")
        print("\n".join(self_time_table(traced)))
    else:
        metrics = end_to_end(setups, plain)
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced, {len(traced)} traced rounds")
    for label, (_, s, _) in op_medians(plain).items():
        print(f"  {label:<28} median {s:9.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}")
    errors = [e for r in rounds for e in r["errors"]]
    for e in errors[:20]:
        print(f"CHECK FAILED: {e}")
    ops = [op for r in rounds for op in r["ops"]]
    print(json.dumps({
        "correct": not errors,
        "attempted": len(ops),
        "failed": sum(not op["ok"] for op in ops),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
