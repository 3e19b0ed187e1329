"""Reference figures quoted in perfbench/README.md, one fresh interpreter each.

    python3 perfbench/reference.py

Prints, as Markdown: the exhaustive search ladder (family size, enumeration
alone, whole search), heuristic mode at (2,12) and (3,12) against the
exhaustive minimum, and how long ``enumerate_compressed_sets(2, 40,
max_sets=1)`` takes to yield its first set.  Run from the checkout root.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LADDER = ((2, 12), (2, 24), (3, 12), (4, 8))
HEURISTIC = ((2, 12), (3, 12))


def _probe(what: str, n: int, k: int) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import kinglattice as kl

    start = time.perf_counter()
    if what == "enumerate":
        value = sum(1 for _ in kl.enumerate_compressed_sets(n, k))
    elif what == "first":
        value = len(next(kl.enumerate_compressed_sets(n, k, max_sets=1)))
    else:
        value = kl.min_edge_boundary(n, k, exhaustive=what == "exhaustive").min_edge_boundary
    return {
        "value": value,
        "s": time.perf_counter() - start,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def probe(what: str, n: int, k: int) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, what, str(n), str(k)],
        check=True, capture_output=True, text=True, cwd=ROOT,
    ).stdout
    return json.loads(out)


def main() -> None:
    print("| exhaustive (n, k) | family size | enumerate | total search | minimum |")
    print("|---|---|---|---|---|")
    for n, k in LADDER:
        enum, search = probe("enumerate", n, k), probe("exhaustive", n, k)
        print(f"| ({n}, {k}) | {enum['value']} | {enum['s']:.3f} s | "
              f"{search['s']:.2f} s | {search['value']} |")
    print()
    print("| heuristic (n, k), seed 0 | result | exhaustive minimum | time |")
    print("|---|---|---|---|")
    for n, k in HEURISTIC:
        heur, exact = probe("heuristic", n, k), probe("exhaustive", n, k)
        print(f"| ({n}, {k}) | {heur['value']} | {exact['value']} | {heur['s']:.2f} s |")
    print()
    first = probe("first", 2, 40)
    print(f"enumerate_compressed_sets(2, 40, max_sets=1): first set after "
          f"{first['s']:.2f} s, peak RSS {first['rss_mb']:.0f} MB")


if __name__ == "__main__":
    if len(sys.argv) == 4:
        print(json.dumps(_probe(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))))
    else:
        main()
