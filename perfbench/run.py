#!/usr/bin/env python3
"""dhcolor benchmark: one workload per process, checked outputs, JSON result.

    python3 perfbench/run.py --workload ladder-sparse --seed 1 --seconds 12 --trace 0

Run from anywhere inside a source checkout; the program is imported from the
checkout's ``src/``.  ``--workload all`` runs every workload, each in its own
process, one after the other.  With ``--trace 0`` the last line of standard
output holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter_ns

import oracle
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SPANS_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("fuzz", "ladder-sparse", "ladder-dense", "solver")
SETUP_REPS = 3
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
TAIL_MIN_BEYOND = 10
# A cold import of dhcolor, then two samples of the speed kernel (after one
# untimed call) in the same process, since it may run on another core.
IMPORT_PROBE = """\
import sys, time
sys.path[:0] = sys.argv[1:]
t = time.perf_counter_ns()
import dhcolor.cli, dhcolor.fuzzing
t = time.perf_counter_ns() - t
import oracle
kernel = oracle.SpeedKernel()
ks = []
for _ in range(3):
    k = time.perf_counter_ns()
    kernel()
    ks.append(time.perf_counter_ns() - k)
print(t, ks[1] + ks[2])
"""
REF_KERNEL_NS = 5_000_000  # the speed kernel's time at the reference speed
SPEED_EVERY_S = 0.05  # wall time from the end of one speed sample to the next


class SpeedMeter:
    """Follows the machine's speed with a fixed kernel that shares no code
    with dhcolor (``oracle.SpeedKernel``).

    On a shared host the same code ran at about half speed for stretches of
    tens of milliseconds to minutes, while the process's CPU time kept pace
    with wall time, so no clock in the process can tell the two apart.  A
    one-shot interval timer runs the kernel every SPEED_EVERY_S, also in the
    middle of an op (the handler runs between bytecodes of the main thread;
    no second thread or process is involved).  A timed interval then loses
    the kernel time that fell inside it and is multiplied by REF_KERNEL_NS
    over the mean of the samples inside it and the one on either side:
    seconds at the reference speed.  A slower or faster dhcolor still moves
    them in full, because the kernel runs no dhcolor code.
    """

    def __init__(self) -> None:
        self.kernel = oracle.SpeedKernel()
        self.starts: list[int] = []  # start of each sample, perf_counter_ns
        self.cum: list[int] = [0]    # prefix sums of the sample durations
        self.kernel()  # warm-up, untimed

    def _sample(self, signum=None, frame=None) -> None:
        t0 = perf_counter_ns()
        self.kernel()
        self.starts.append(t0)
        self.cum.append(self.cum[-1] + perf_counter_ns() - t0)
        if signum is not None:  # re-armed here, so a slow sample never nests
            signal.setitimer(signal.ITIMER_REAL, SPEED_EVERY_S)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SPEED_EVERY_S)

    def stop(self) -> None:
        """Stop sampling; every interval timed so far gets a sample after it."""
        if signal.getsignal(signal.SIGALRM) == self._sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._sample()

    def _inside(self, t0: int, t1: int) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)

    def kernel_ns(self, t0: int, t1: int) -> int:
        """Kernel time spent inside the interval."""
        i, j = self._inside(t0, t1)
        return self.cum[j] - self.cum[i]

    def seconds(self, t0: int, t1: int) -> float:
        """The interval's seconds, without the kernel time inside it."""
        return (t1 - t0 - self.kernel_ns(t0, t1)) / 1e9

    def factor(self, t0: int, t1: int) -> float:
        """Scale factor to reference-speed seconds for work in the interval."""
        i, j = self._inside(t0, t1)
        lo, hi = max(i - 1, 0), min(j + 1, len(self.starts))
        return REF_KERNEL_NS * (hi - lo) / (self.cum[hi] - self.cum[lo])


def import_seconds() -> tuple[float, float]:
    """Time a cold import of dhcolor in a fresh interpreter: raw, and scaled
    by the interpreter's own speed samples."""
    res = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC), str(HERE)],
                         capture_output=True, text=True, timeout=120, check=True)
    ns, kernel_ns = map(int, res.stdout.split())
    return ns / 1e9, ns / 1e9 * REF_KERNEL_NS * 2 / kernel_ns


class Runner:
    """Executes ops, checks every output and keeps the digest of cycle 0."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.first: dict[int, bytes] = {}
        self.digest = hashlib.sha256()
        self.digest_ops = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.output_bytes = 0
        self.instances: list = []

    def execute(self, op, call, cycle: int) -> tuple[int, int]:
        """Run and check one op; the start and end of its call, in ns."""
        t0 = perf_counter_ns()
        try:
            raw = call(op.run)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            raw = exc
        t1 = perf_counter_ns()
        self.attempted += 1
        first = id(op) not in self.first
        if isinstance(raw, Exception):
            errors, nbytes, instance = [f"{op.label}: raised {raw!r}"], 0, None
            blob = f"{type(raw).__name__}: {raw}".encode()
        else:
            oc = op.outcome(raw, first)
            errors, blob, nbytes, instance = oc.errors, oc.blob, oc.output_bytes, oc.instance
        h = hashlib.sha256(blob).digest()
        if first:
            self.first[id(op)] = h
            if cycle == 0:
                self.digest.update(h)
                self.digest_ops += 1
                if instance is not None:
                    self.instances.append(instance)
        elif self.first[id(op)] != h:
            errors.append(f"{op.label}: output differs from its first run")
        self.output_bytes += nbytes
        if errors:
            self.failed += 1
            self.errors.extend(errors)
        return t0, t1

    def cycle_count(self, seconds: float) -> int:
        """Cycles in a run of `seconds`.

        The count comes from the workload's nominal cycle time, not from the
        clock, so a run does the same work however fast the code is, and the
        tail percentile always has the same sample count.
        """
        return max(1, round(seconds / self.workload.cycle_seconds))

    def run_cycle(self, c: int, call) -> list[tuple[int, int]]:
        """Run cycle `c` (wrapping round the list); the interval of each op."""
        cycles = self.workload.cycles
        return [self.execute(op, call, c) for op in cycles[c % len(cycles)]]


def latencies(meter: SpeedMeter, windows: list[list[tuple[int, int]]]):
    """Per cycle, each op's latency in seconds: raw, and scaled."""
    raw = [[meter.seconds(t0, t1) for t0, t1 in cycle] for cycle in windows]
    return raw, [[x * meter.factor(t0, t1) for x, (t0, t1) in zip(lat, cycle)]
                 for lat, cycle in zip(raw, windows)]


def throughput(per_cycle: list[list[float]]) -> float:
    """Median over cycles of ops per second: a slow spell on a shared machine
    spoils one cycle, not the run."""
    return statistics.median(len(lat) / sum(lat) for lat in per_cycle)


def rank(q: float, n: int) -> int:
    """1-based nearest rank of the q-th percentile of n samples."""
    return max(1, math.ceil(q * n / 100 - 1e-9))


def tail_percentile(n: int) -> float:
    """Highest of p99.9/p99/p90 that leaves at least ten of n samples above
    it; below 100 samples none does, and the rank that does is used."""
    for q in TAIL_PERCENTILES:
        if n - rank(q, n) >= TAIL_MIN_BEYOND:
            return q
    return 100 * max(1, n - TAIL_MIN_BEYOND) / n


def per_cycle_median(per_cycle: list[list[float]], q: float) -> float:
    """Median over cycles of each cycle's q-th percentile, so one cycle timed
    during a slow spell cannot move an order statistic."""
    return statistics.median(sorted(lat)[rank(q, len(lat)) - 1] for lat in per_cycle)


def input_line(name: str, sizes: list[tuple[int, list]], witnesses: int) -> str:
    """Properties of one input, or pooled over a group of (n, edges) inputs."""
    ms = [len(edges) for _, edges in sizes]
    pairs = sum(m * (m - 1) // 2 for m in ms)
    useful = sum(oracle.useful_pairs(edges) for _, edges in sizes)
    count = f" count={len(sizes)}" if len(sizes) > 1 else ""
    return (f"input {name}{count} n={statistics.mean(n for n, _ in sizes):g} "
            f"m={statistics.mean(ms):g} pairs={pairs / len(ms):g} "
            f"useful_pair_frac={useful / pairs if pairs else 0.0:.4f} witnesses={witnesses}")


def input_lines(workload, instances: list) -> list[str]:
    """One line per input, or per pool of inputs drawn alike (means over it)."""
    pools: dict[str, list] = {}
    for inp in workload.inputs:
        pools.setdefault(inp.pool or inp.name, []).append(inp)
    lines = [input_line(name, [(len(i.vertices), i.edges) for i in group],
                        sum(i.witnesses for i in group)) for name, group in pools.items()]
    if instances:
        lines.append(input_line("fuzz-instances", [
            (hg.n, [(e.tail, e.head) for e in hg.edges]) for hg in instances], 0))
    return lines


def run_workload(args) -> int:
    if not (SRC / "dhcolor" / "__init__.py").is_file():
        print(f"error: no dhcolor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dhcolor

    if Path(dhcolor.__file__).resolve().parent != (SRC / "dhcolor").resolve():
        print(f"error: dhcolor imported from {dhcolor.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads  # imports dhcolor, so only once src/ is on the path

    WORK.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return measure(args, workloads, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run is still using it
            pass


def measure(args, workloads, base: Path) -> int:
    meter = SpeedMeter()
    meter.start()
    try:
        return run_and_report(args, workloads, base, meter)
    finally:
        meter.stop()


def run_and_report(args, workloads, base: Path, meter: SpeedMeter) -> int:
    # Set-up: a cold import plus input generation and file writing, repeated.
    setup_tracer = tracing.Tracer() if args.trace else None
    reps = 1 if args.trace else SETUP_REPS
    setup_windows = []
    for rep in range(reps):
        workload = None  # free the previous repetition's inputs before building
        workdir = base / f"setup{rep}"
        workdir.mkdir()
        if setup_tracer:
            setup_tracer.install_generators()
        imported = import_seconds()
        t0 = perf_counter_ns()
        workload = workloads.BUILDERS[args.workload](args.seed, workdir)
        setup_windows.append((*imported, t0, perf_counter_ns()))
        if setup_tracer:
            setup_tracer.uninstall()
        if rep + 1 < reps:
            shutil.rmtree(workdir)

    runner = Runner(workload)
    try:
        workload.cycles[0][0].run()  # warm-up, untimed and unchecked
    except Exception:  # the same op fails again, and is counted, in the timed loop
        pass

    def plain(fn):
        return fn()

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    if not args.trace:
        windows = [runner.run_cycle(c, plain) for c in range(runner.cycle_count(args.seconds))]
        meter.stop()
        raw, per_cycle = latencies(meter, windows)
        flat = [x for lat in per_cycle for x in lat]
        setup_raw = [imp + meter.seconds(t0, t1) for imp, _, t0, t1 in setup_windows]
        setup_times = [imp + meter.seconds(t0, t1) * meter.factor(t0, t1)
                       for _, imp, t0, t1 in setup_windows]
        q = tail_percentile(len(flat))
        metrics = {
            "ops_per_s": (throughput(per_cycle), "1/s"),
            "op_p50_ms": (per_cycle_median(per_cycle, 50) * 1e3, "ms"),
            "op_tail_ms": (per_cycle_median(per_cycle, q) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
        extra = [f"cycles {len(per_cycle)} ops {len(flat)} ops_per_s by cycle "
                 + ",".join(f"{len(lat) / sum(lat):.4g}" for lat in per_cycle),
                 f"op_tail_ms percentile=p{q:.3g} samples={len(flat)} "
                 f"beyond={len(flat) - rank(q, len(flat))}",
                 "setup_s reps=" + ",".join(f"{t:.4f}" for t in setup_times),
                 f"speed samples {len(meter.starts)}, "
                 f"mean {meter.cum[-1] / len(meter.starts) / 1e6:.3f} ms",
                 f"unscaled ops_per_s={throughput(raw):.4f} "
                 f"op_p50_ms={per_cycle_median(raw, 50) * 1e3:.4f} "
                 f"op_tail_ms={per_cycle_median(raw, q) * 1e3:.4f} "
                 f"setup_s={statistics.median(setup_raw):.4f}"]
        selftest: list[str] = []
    else:
        # Every cycle runs untraced and traced, in alternating order, so drift
        # and first-run costs fall on both sides: the ratio is the overhead.
        tracer = tracing.Tracer()
        untraced, traced, traced_bytes = [], [], 0
        for c in range(runner.cycle_count(args.seconds / 2)):
            for on in (False, True) if c % 2 == 0 else (True, False):
                if not on:
                    untraced.append(runner.run_cycle(c, plain))
                    continue
                before = runner.output_bytes
                tracer.install()
                try:
                    traced.append(runner.run_cycle(
                        c, lambda fn: tracer.call(tracing.OP_SPAN, fn)))
                finally:
                    tracer.uninstall()
                traced_bytes += runner.output_bytes - before
        meter.stop()
        plain_lat = [x for lat in latencies(meter, untraced)[1] for x in lat]
        traced_lat = [x for lat in latencies(meter, traced)[1] for x in lat]
        op_factors = [meter.factor(t0, t1) for cycle in traced for t0, t1 in cycle]
        layer = tracing.layer_metrics(tracer.spans, op_factors, setup_tracer.spans,
                                      meter.factor(*setup_windows[0][2:]), meter.kernel_ns,
                                      sum(traced_lat), sum(plain_lat), traced_bytes)
        metrics = {name: (value, tracing.unit(name)) for name, value in layer.items()}
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
        tracer.write(spans_path)
        missing = workloads.EXPECTED_SPANS[args.workload] - tracer.names()
        missing |= workloads.EXPECTED_SETUP_SPANS.get(args.workload, set()) - setup_tracer.names()
        selftest = [f"self-test: wrapped name {n} recorded no span" for n in sorted(missing)]
        shares = {k: v for k, v in layer.items() if k.endswith(".share")}
        extra = [f"cycles {len(traced)} ops {len(plain_lat)} untraced + {len(traced_lat)} traced",
                 f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}",
                 "self-time share " + " ".join(f"{k[:-6]}={v:.3f}" for k, v in shares.items()),
                 "self-test " + ("ok" if not selftest else "FAILED")]

    for line in input_lines(workload, runner.instances) + extra:
        print(line)
    print(f"digest sha256:{runner.digest.hexdigest()} ops={runner.digest_ops}")
    print(f"failed_frac {runner.failed / runner.attempted} ({runner.failed}/{runner.attempted})")
    for line in (runner.errors + selftest)[:20]:
        print(line, file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0 and not selftest,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        res = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)], capture_output=True, text=True,
                             timeout=900)
        sys.stderr.write(res.stderr)
        lines = res.stdout.splitlines()
        if res.returncode != 0 or not lines:
            print(f"error: workload {name} exited {res.returncode}", file=sys.stderr)
            return res.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # Exit through the finally blocks, which remove the inputs, on SIGTERM too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
