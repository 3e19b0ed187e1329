"""Command-line surface over the library and its I/O in ``formats``.

This is the only module that touches stdin, stdout, or the filesystem.
Everything here is deterministic given identical inputs and flags: ``search``
and ``survey`` are exhaustive, and only ``selftest`` draws random sets, from
its ``--seed``.

Handlers only raise; ``main`` alone picks the exit code, from the exception
type: 0 on a normal return, 1 for a ``ValueError`` or ``OSError`` (a usage or
parse error, or an exceeded ``--max-sets``), 2 for a ``RuntimeError`` (an
internal invariant violation: the two edge-boundary computations disagreeing,
or a compression step failing to lower the potential).
"""

from __future__ import annotations

import argparse
import sys
from itertools import groupby
from operator import itemgetter
from typing import Sequence

from .core import PointSet, _columns, _direction_pairs, _line_classes, _line_table
from .boundary import _gap_points, edge_boundary_count, edge_boundary_formula
from .compression import compress_to_fixed_point
from .formats import (
    parse_point_set,
    render_grid,
    serialize_point_set,
    serialize_report,
)
from .search import (
    DEFAULT_MAX_SETS,
    SearchReport,
    min_edge_boundary,
    random_point_set,
    survey_gap_free_optima,
)


def _load_set(args: argparse.Namespace) -> PointSet:
    if args.input == "-":
        return parse_point_set(sys.stdin.read())
    with open(args.input, "r", encoding="utf-8") as fh:
        return parse_point_set(fh.read())


def _cmd_boundary(args: argparse.Namespace) -> None:
    ps = _load_set(args)
    breakdown = edge_boundary_formula(ps)
    direct = edge_boundary_count(ps)
    if args.format == "json":
        sys.stdout.write(serialize_report(breakdown, direct_total=direct))
    else:
        print(f"dim {ps.dim}  points {len(ps)}")
        print("direction  lines  gaps")
        for d, (lines, gaps) in sorted(breakdown.per_direction.items()):
            label = "(" + ",".join(f"{s:+d}" for s in d) + ")"
            print(f"{label:<24} {lines:5d} {gaps:5d}")
        print(f"formula total {breakdown.total}")
        print(f"direct total  {direct}")
        print(f"agreement     {'ok' if direct == breakdown.total else 'MISMATCH'}")
    if direct != breakdown.total:
        raise RuntimeError(f"direct {direct} != formula {breakdown.total}")


def _cmd_compress(args: argparse.Namespace) -> None:
    trace = compress_to_fixed_point(_load_set(args))
    if args.format == "json":
        sys.stdout.write(serialize_report(trace))
        return
    for s in trace.steps:
        print(
            f"axis {s.axis}: boundary {s.boundary_before} -> {s.boundary_after}, "
            f"potential {s.potential_before} -> {s.potential_after}"
        )
    print(f"{len(trace.steps)} changing steps")
    sys.stdout.write(serialize_point_set(trace.final))


def _plain_search(r: SearchReport) -> str:
    lines = [
        f"dim {r.dimension}  size {r.size}  min edge boundary {r.min_edge_boundary}",
        f"method {r.method}  optimal {'yes' if r.optimal else 'no'}  "
        f"sets scanned {r.sets_scanned}",
    ]
    for w, s in zip(r.witnesses, r.witness_stats):
        pts = " ".join("(" + ",".join(map(str, p)) + ")" for p in w)
        lines.append(
            f"witness evb={s.exterior_vertex_boundary} "
            f"gap_free={'yes' if s.fully_gap_free else 'no'}: {pts}"
        )
    return "\n".join(lines) + "\n"


def _cmd_search(args: argparse.Namespace) -> None:
    report = min_edge_boundary(args.dim, args.size, max_sets=args.max_sets)
    write = serialize_report if args.format == "json" else _plain_search
    sys.stdout.write(write(report))


def _cmd_survey(args: argparse.Namespace) -> None:
    reports = survey_gap_free_optima(args.dim, args.size, max_sets=args.max_sets)
    if args.format == "json":
        sys.stdout.write(serialize_report(reports))
        return
    print("size  min  witnesses  some_gap_free  all_gap_free")
    for r in reports:
        print(
            f"{r.size:4d} {r.min_edge_boundary:4d} {len(r.witnesses):10d}"
            f"  {'yes' if r.any_witness_gap_free else 'no':13s}"
            f"  {'yes' if r.all_witnesses_gap_free else 'no'}"
        )


def _cmd_render(args: argparse.Namespace) -> None:
    ps = _load_set(args)
    sys.stdout.write(render_grid(ps, mode=args.render, max_extent=args.max_extent))


def _cmd_selftest(args: argparse.Namespace) -> None:
    """Check the two boundary computations against each other on random sets.

    Also checks gap symmetry under direction reversal on every set: the
    gaps along d and along -d are found separately, from one line table per
    first nonzero axis, as ``edge_boundary_formula`` reads it.  Any mismatch
    is an internal invariant violation.
    """
    if args.sets < 0:
        raise ValueError(f"--sets must be >= 0, got {args.sets}")
    if not 0 <= args.seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    failures = 0
    for trial in range(args.sets):
        dim = 1 + trial % 3
        k = 1 + trial % 12
        side = 14 if dim == 1 else 10
        ps = random_point_set(dim, k, side, seed=args.seed + trial)
        direct = edge_boundary_count(ps)
        total = edge_boundary_formula(ps).total
        if direct != total:
            failures += 1
            print(
                f"MISMATCH dim={dim} k={k} trial={trial}: "
                f"direct={direct} formula={total}",
                file=sys.stderr,
            )
        columns = _columns(ps)
        for j, pairs in groupby(_direction_pairs(dim), itemgetter(2)):
            table = _line_table(columns, j)
            for d, reverse, _ in pairs:
                ahead = _gap_points(_line_classes(table, d, j), d)
                back = _gap_points(_line_classes(table, reverse, j), reverse)
                if len(ahead) != len(back):
                    failures += 1
                    print(
                        f"GAP ASYMMETRY dim={dim} k={k} trial={trial} d={d}",
                        file=sys.stderr,
                    )
    print(f"{args.sets} random sets checked, {failures} failures")
    if failures:
        raise RuntimeError(f"selftest found {failures} failures")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kinglattice",
        description="Edge boundaries, compression, and minimal-boundary "
        "search for finite sets in the king-move lattice graph on Z^n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--input",
            default="-",
            metavar="PATH|-",
            help="set file to read, or - for stdin (default)",
        )

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("json", "plain"),
            default="plain",
            help="output format (default plain)",
        )

    def add_max_sets(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--max-sets",
            type=int,
            default=DEFAULT_MAX_SETS,
            metavar="CAP",
            help="exit 1 past CAP compressed sets (default %(default)s)",
        )

    p = sub.add_parser("boundary", help="edge-boundary breakdown and agreement check")
    add_input(p)
    add_format(p)
    p.set_defaults(func=_cmd_boundary)

    p = sub.add_parser("compress", help="compress a set to its fixed point")
    add_input(p)
    add_format(p)
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser(
        "search",
        help="minimal edge boundary for a dimension and size",
        description="Proved minimal edge boundary over all size-K sets in Z^N. "
        "Every witness is checked in all 3^N - 1 directions, so the time per "
        "witness point grows as 3^N: --dim 12 --size 1 takes about 2.1 s "
        "(CPython 3.11 on a shared 2-CPU Xeon).",
    )
    p.add_argument("--dim", type=int, required=True, metavar="N")
    p.add_argument("--size", type=int, required=True, metavar="K")
    add_max_sets(p)
    add_format(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("survey", help="gap-free status of optima for sizes 1..K")
    p.add_argument("--dim", type=int, required=True, metavar="N")
    p.add_argument("--size", type=int, required=True, metavar="K")
    add_max_sets(p)
    add_format(p)
    p.set_defaults(func=_cmd_survey)

    p = sub.add_parser("render", help="draw a planar set and its neighbors")
    add_input(p)
    p.add_argument(
        "--render",
        choices=("ascii", "svg"),
        default="ascii",
        help="output style (default ascii)",
    )
    p.add_argument("--max-extent", type=int, default=100, metavar="N")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("selftest", help="cross-check boundary computations on random sets")
    p.add_argument("--seed", type=int, default=0, metavar="U64")
    p.add_argument("--sets", type=int, default=200, metavar="N")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; 2 is reserved for invariant
        # violations here.
        return 0 if e.code in (0, None) else 1
    try:
        args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except RuntimeError as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
