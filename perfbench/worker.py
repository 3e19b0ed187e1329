"""One round of a benchmark workload, run in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRACE FULL_CHECK OUTDIR T0

``run.py`` starts this once per round and reads the JSON object it prints.
T0 is the parent's ``time.monotonic()`` just before the spawn; the
package import is the first thing done here, so ``setup_s`` is the time
from interpreter start to the end of that import.  A fixed reference loop
is timed right after it (``setup_ref_s``, see reference_loop_s), and
WORKLOAD ``setup`` stops there.  Every operation records ``ref_s``, the
mean of the loop's time just before and just after it.  TRACE 1 records
spans around the package's public functions (see tracing.py).  Outputs are
checked against the oracles after the timed operations, and FULL_CHECK 1
adds the expensive family checks.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import kinglattice  # noqa: E402  (set-up ends with this import)

SETUP_END = time.monotonic()

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import kinglattice.cli  # noqa: E402
import oracles  # noqa: E402
from tracing import Tracer  # noqa: E402

SEARCHES = ((2, 24), (3, 12), (4, 8))
SURVEYS = ((2, 16), (3, 10))
FAMILIES = ((2, 40), (3, 20), (4, 12))
SELFTEST_SETS = 500
REFERENCE_REPEATS = 5
# A fixed set for the reference loop: 400 of the 1 000 cells of a 10^3 box.
REFERENCE_SET = frozenset(
    (c // 100, c // 10 % 10, c % 10) for c in random.Random(0).sample(range(1000), 400)
)


def reference_loop_s() -> float:
    """Median time of a fixed reference loop over a few repeats.

    On a shared host the speed of a CPU can drift by tens of per cent over
    a minute.  The loop never changes, so an operation's time over the
    loop's time, both measured within seconds of each other, keeps the
    program's cost and cancels most of the drift.  The loop is
    the oracle's neighbour count on a fixed set: tuple arithmetic and set
    lookups, like the package's own inner loops, so it slows as they do.
    The collector is off while it runs, so a large heap left by the
    program does not slow the loop.
    """
    times = []
    gc.disable()
    try:
        for _ in range(REFERENCE_REPEATS):
            start = time.perf_counter()
            oracles.neighbour_boundary(REFERENCE_SET)
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    times.sort()
    return times[len(times) // 2]


class Round:
    """Timed operations of one round, and the check failures found after."""

    def __init__(self, ref_s: float) -> None:
        self.ops: list[dict] = []
        self.errors: list[str] = []
        self.ref_s = ref_s

    def time_op(self, kind: str, label: str, fn):
        """Run fn() and record its wall time; fn returns (ok, result, items).

        ``ref_s`` is the mean of the reference loop's time before and after.
        """
        before = self.ref_s
        start = time.perf_counter()
        ok, result, items = fn()
        s = time.perf_counter() - start
        self.ref_s = reference_loop_s()
        self.ops.append(
            {"kind": kind, "label": label, "s": s, "ref_s": (before + self.ref_s) / 2,
             "ok": ok, "items": items}
        )
        return ok, result

    def time_cli(self, kind: str, label: str, argv: list[str]):
        """Run the CLI entry point with stdout captured; (exit 0?, stdout)."""
        def op():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = kinglattice.cli.main(argv)
            return rc == 0, buf.getvalue(), 1
        return self.time_op(kind, label, op)

    def check(self, cond: bool, what: str) -> None:
        if not cond:
            self.errors.append(what)


# -- search-exhaustive ---------------------------------------------------


def run_search(rnd: Round, seed: int, outdir: Path) -> list:
    outputs = []
    for kind, cases in (("search", SEARCHES), ("survey", SURVEYS)):
        for n, k in cases:
            argv = [kind, "--dim", str(n), "--size", str(k), "--format", "json"]
            ok, text = rnd.time_cli(kind, f"{kind} {n} {k}", argv)
            if ok:
                outputs.append((kind, n, k, text))
    return outputs


def check_search(rnd: Round, outputs: list, full: bool) -> None:
    reference = oracles.load_reference()
    for kind, n, k, text in outputs:
        doc = json.loads(text)
        rows = [doc] if kind == "search" else doc["rows"]
        rnd.check(len(rows) == (1 if kind == "search" else k), f"{kind} {n} {k}: row count")
        for row in rows:
            _check_report(rnd, row, n, reference[(n, row["size"])])


def _check_report(rnd: Round, row: dict, n: int, ref: tuple[int, int]) -> None:
    k, best = row["size"], row["min_edge_boundary"]
    where = f"search n={n} k={k}"
    rnd.check(row["dimension"] == n, f"{where}: dimension")
    rnd.check(row["optimal"] is True, f"{where}: not marked optimal")
    rnd.check(best == ref[0], f"{where}: minimum {best} != reference {ref[0]}")
    rnd.check(len(row["witnesses"]) == ref[1], f"{where}: {len(row['witnesses'])} witnesses, reference {ref[1]}")
    rnd.check(row["sets_scanned"] >= len(row["witnesses"]), f"{where}: sets_scanned below witness count")
    for w in row["witnesses"]:
        pts = {tuple(p) for p in w["points"]}
        rnd.check(len(pts) == k and all(len(p) == n for p in pts), f"{where}: witness size")
        rnd.check(oracles.neighbour_boundary(pts) == best, f"{where}: witness boundary")


# -- family-enumerate ----------------------------------------------------


def run_family(rnd: Round, seed: int, outdir: Path) -> list:
    counts = []
    for n, k in FAMILIES:
        def op(n=n, k=k):
            count = 0
            for _ in kinglattice.enumerate_compressed_sets(n, k):
                count += 1
            return True, count, count

        _, count = rnd.time_op("enumerate", f"enumerate {n} {k}", op)
        counts.append((n, k, count))
    return counts


def check_family(rnd: Round, counts: list, full: bool) -> None:
    for n, k, count in counts:
        expected = oracles.family_size(n, k)
        rnd.check(count == expected, f"family n={n} k={k}: {count} sets, oracle {expected}")
        if not full:
            continue
        # Two centred sets that are translates of each other are equal, so
        # once every section is centred, distinct sets are never translates.
        seen: set[frozenset] = set()
        for ps in kinglattice.enumerate_compressed_sets(n, k):
            pts = ps.points
            if len(pts) != k or any(len(p) != n for p in pts):
                rnd.check(False, f"family n={n} k={k}: set of wrong size")
            elif not oracles.sections_centred(pts):
                rnd.check(False, f"family n={n} k={k}: a section is not a centred run")
            seen.add(pts)
        rnd.check(len(seen) == count, f"family n={n} k={k}: repeated sets")


# -- given-sets ----------------------------------------------------------


def read_set_file(path: Path) -> set[tuple[int, ...]]:
    """Points of a set file as written by run.py (a dim line, then points)."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith(("#", "dim"))]
    return {tuple(int(c) for c in ln.split()) for ln in lines}


def run_given(rnd: Round, seed: int, outdir: Path) -> list:
    outputs = []
    for path in sorted(outdir.glob("set-*.txt")):
        for kind in ("boundary", "compress"):
            argv = [kind, "--input", str(path), "--format", "json"]
            ok, text = rnd.time_cli(kind, f"{kind} {path.name}", argv)
            if ok:
                outputs.append((kind, path, text))

    argv = ["selftest", "--sets", str(SELFTEST_SETS), "--seed", str(seed)]
    ok, text = rnd.time_cli("selftest", "selftest", argv)
    if ok:
        outputs.append(("selftest", None, text))
    return outputs


def check_given(rnd: Round, outputs: list, full: bool) -> None:
    boundaries: dict[Path, int] = {}
    for kind, path, text in outputs:
        if kind == "selftest":
            expected = f"{SELFTEST_SETS} random sets checked, 0 failures"
            rnd.check(text.strip() == expected, f"selftest printed {text.strip()!r}")
            continue
        doc = json.loads(text)
        where = f"{kind} {path.name}"
        initial = read_set_file(path)
        if path not in boundaries:
            boundaries[path] = oracles.neighbour_boundary(initial)
        before = boundaries[path]
        if kind == "boundary":
            rnd.check(doc["agree"] is True, f"{where}: routes disagree")
            rnd.check(doc["total"] == before, f"{where}: total {doc['total']} != neighbour count {before}")
            continue
        final = {tuple(p) for p in doc["final_points"]}
        after = oracles.neighbour_boundary(final)
        steps = doc["steps"]
        rnd.check({tuple(p) for p in doc["initial_points"]} == initial, f"{where}: initial points")
        rnd.check(len(final) == len(initial), f"{where}: size changed")
        rnd.check(after <= before, f"{where}: boundary rose {before} -> {after}")
        rnd.check(oracles.sections_centred(final), f"{where}: a section is not a centred run")
        pots = [oracles.potential(initial)]
        bounds = [before]
        for s in steps:
            rnd.check(tuple(s["potential_before"]) == pots[-1], f"{where}: potential chain")
            rnd.check(s["boundary_before"] == bounds[-1], f"{where}: boundary chain")
            pots.append(tuple(s["potential_after"]))
            bounds.append(s["boundary_after"])
            rnd.check(pots[-1] < pots[-2], f"{where}: potential did not fall")
            rnd.check(bounds[-1] <= bounds[-2], f"{where}: step raised the boundary")
        rnd.check(pots[-1] == oracles.potential(final), f"{where}: final potential")
        rnd.check(bounds[-1] == after, f"{where}: final boundary")


WORKLOADS = {
    "search-exhaustive": (run_search, check_search),
    "family-enumerate": (run_family, check_family),
    "given-sets": (run_given, check_given),
}


def main() -> None:
    workload, seed, trace, full, outdir, t0 = sys.argv[1:7]
    result = {"setup_s": SETUP_END - float(t0), "setup_ref_s": reference_loop_s()}
    if workload != "setup":
        run, check = WORKLOADS[workload]
        rnd = Round(result["setup_ref_s"])
        seed, outdir = int(seed), Path(outdir)
        if trace == "1":
            with Tracer() as tracer:
                outputs = run(rnd, seed, outdir)
            result["layers"] = tracer.metrics()
            tracer.write(outdir / "spans.jsonl.gz", f"{workload}-seed{seed}")
        else:
            outputs = run(rnd, seed, outdir)
        # Read before the checks, whose own allocations are not the program's.
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check(rnd, outputs, full == "1")
        result.update(ops=rnd.ops, errors=rnd.errors, traced=trace == "1")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
