"""Time a checked i0-4 run on a doubling ladder of inputs.

Each rung is n / 5 disjoint copies of paper-I (5 vertices and 10 edges
each, so m = 2 n), an i0-free 2->1 input that a checked run accepts.  A
rung is serialized once; every run parses it afresh, so parsing stays out
of the time and no run finds index views left by another.  For each n it
prints the best of RUNS runs of ``color_i0_4`` in µs per input edge, and
the tracemalloc peak of one more run in MB.  The package is imported from
the ``src`` directory next to this file's directory.  Stdlib only.

Usage: python tools/scaling.py [--max-n N]

The ladder is n = 125, 250, 500, 1,000, stopping at --max-n (default
1,000).
"""

from __future__ import annotations

import argparse
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dhcolor import color_i0_4, paper_i, parse, serialize  # noqa: E402

LADDER = (125, 250, 500, 1000)
RUNS = 3  # timed runs per rung; the best is printed


def copies_of_paper_i(n: int) -> str:
    """The text of n / 5 disjoint copies of paper-I, copy c's vertices
    suffixed with c."""
    base = serialize(paper_i()).splitlines()
    lines = []
    for c in range(n // 5):
        for line in base:
            kind, *rest = line.split()
            lines.append(" ".join([kind] + [tok if tok == ">" else f"{tok}_{c}" for tok in rest]))
    return "\n".join(lines) + "\n"


def measure(text: str, runs: int) -> tuple[float, float]:
    """Best seconds of runs checked i0-4 runs on text, and the tracemalloc
    peak in bytes of one more."""
    best = float("inf")
    for _ in range(runs):
        hg = parse(text)
        start = time.perf_counter()
        color_i0_4(hg)
        best = min(best, time.perf_counter() - start)
    hg = parse(text)
    tracemalloc.start()
    try:
        color_i0_4(hg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return best, peak


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-n", type=int, default=LADDER[-1], help="largest rung run")
    args = parser.parse_args(argv)
    print(f"{'n':>6} {'m':>6} {'us_per_edge':>11} {'peak_mb':>8}  (checked i0-4, best of {RUNS})")
    for n in LADDER:
        if n > args.max_n:
            break
        text = copies_of_paper_i(n)
        m = len(parse(text).index.head_rows)
        seconds, peak = measure(text, RUNS)
        print(f"{n:6d} {m:6d} {seconds / m * 1e6:11.1f} {peak / 1e6:8.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
