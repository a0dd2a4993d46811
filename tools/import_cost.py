"""Time the cold import of dhcolor's CLI and fuzz harness.

Starts RUNS fresh ``python -I`` interpreters; each times
``import dhcolor.cli, dhcolor.fuzzing``, the statement the benchmark's
set-up probe times (perfbench/run.py), and the median is printed with the
fastest and slowest run.  One more interpreter runs the same statement
under ``-X importtime``, and the TOP modules it imported with the largest
self time are listed.  The package is imported from the ``src`` directory
next to this file's directory.  Stdlib only; it prints and exits 0.

Usage: python tools/import_cost.py
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
STATEMENT = "import dhcolor.cli, dhcolor.fuzzing"
RUNS = 15  # fresh interpreters timed
TOP = 10  # slowest imports listed
# The interpreter's own start-up imports come before the marker line.
_PROBE = f"""\
import sys, time
sys.path.insert(0, sys.argv[1])
sys.stderr.write("--\\n")
t = time.perf_counter_ns()
{STATEMENT}
print(time.perf_counter_ns() - t)
"""


def _probe(*flags: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-I", *flags, "-c", _PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)


def import_seconds(runs: int) -> list[float]:
    """The time of the statement in each of runs fresh interpreters."""
    return [int(_probe().stdout) / 1e9 for _ in range(runs)]


def slowest_imports(top: int) -> list[tuple[int, int, str]]:
    """(self µs, cumulative µs, module) of the top modules the statement
    imported, by self time, from one ``-X importtime`` run."""
    err = _probe("-X", "importtime").stderr
    rows = []
    for line in err[err.index("--\n") + 3:].splitlines():
        if line.startswith("import time:") and "|" in line:
            own, total, name = line[len("import time:"):].split("|")
            if own.strip().isdigit():
                rows.append((int(own), int(total), name.strip()))
    return sorted(rows, reverse=True)[:top]


def main() -> int:
    times = import_seconds(RUNS)
    print(f"{STATEMENT}: median {statistics.median(times) * 1e3:.2f} ms over {RUNS} "
          f"fresh interpreters (min {min(times) * 1e3:.2f}, max {max(times) * 1e3:.2f})")
    print(f"{'self_us':>8} {'cumul_us':>8}  module (largest self time, one -X importtime run)")
    for own, total, name in slowest_imports(TOP):
        print(f"{own:8d} {total:8d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
