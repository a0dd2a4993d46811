"""The benchmark's workloads: inputs made from the seed, ops, output checks.

A workload is a list of cycles; a cycle is a list of ops.  The runner executes
whole cycles (wrapping round the list), so every run times the same mix of
op kinds.  Every op carries its own output check, written against
``oracle`` rather than dhcolor, and yields the bytes that go into the
workload's output digest.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import dhcolor.cli as cli
import dhcolor.core as core
import dhcolor.fuzzing as fuzzing
import dhcolor.generators as generators

import oracle

CONDITIONS = ("onehead-h1", "i0-free", "r4-free", "i0r4-free", "lovasz",
              "h2-two-intersect", "tails-only-2-intersect")
PATTERNS = ("H2", "I1", "R3", "E", "I0", "H1", "R4")
PALETTE = {"one-head": 2, "ht3": 3, "i0-4": 4, "i0r4-2": 2}

# Witness counts of the h2-tower(5) checks, counted pair by pair with
# oracle.count_violations (0 means the check passes).
H5_WITNESSES = {
    "onehead-h1": 4924, "i0-free": 23886, "r4-free": 2462, "i0r4-free": 26348,
    "lovasz": 31272, "h2-two-intersect": 0, "tails-only-2-intersect": 3810,
    "H2": 0, "I1": 3810, "R3": 0, "E": 0, "I0": 23886, "H1": 4924, "R4": 2462,
}
# h2-tower-6 gets one op, the rejected ht3 run: its precondition scans all
# 1.4M pairs and prints this many r4-free witnesses.  Its plain checks take
# 1-3 s each and would leave too few cycles per run to take medians over.
H6_R4_WITNESSES = 27678
KNOWN_CHI = {"paper-i": 3, "paper-r": 3, "h2-tower-3": 3, "h2-tower-4": 4, "perm-tower-3": 3}

# ladder-sparse rungs: (algorithm, condition it needs, n, edges requested).
# Under onehead-h1 and i0r4-free the generator saturates near 2n edges and
# then spends its whole attempt budget, so asking for more only adds set-up.
# One i0-4 rung: its audit scans the augmented graph (~520 edges, ~35% of
# pairs sharing a vertex), which a second rung would make the bulk of the
# workload's scanned pairs; at n=20 its time (55-70 ms) sits next to the
# median op's, at n=40 (1.7 s) it alone sets the tail.
SPARSE_RUNGS = (
    ("one-head", "onehead-h1", 100, 200),
    ("ht3", "r4-free", 100, 400),
    ("ht3", "r4-free", 200, 800),
    ("i0r4-2", "i0r4-free", 100, 200),
    ("i0-4", "i0-free", 24, 96),
)
GOODCHECK_RUNGS = ((100, 400), (200, 800))
# Random solver instances per cycle: n = 18 and m = 14 n, just above the
# 3/4-colorability threshold, so every one needs a full refutation of
# 3-colorability (~10 ms).  The tail percentile of a run moves with the
# inputs the seed draws, so it needs many instances: at n = 21 and m = 12 n
# (~40 ms each, 128 per run) its range over five seeds was 0.14 of its
# median.  At m = 10 n about half are 3-colorable and take a tenth of the
# time of the rest, and the median op jumped between the two groups.
SOLVER_N, SOLVER_M, SOLVER_PER_CYCLE, SOLVER_CYCLES = 18, 14 * 18, 128, 4
FUZZ_CONFIGS = (  # (algorithm, tail size range); n is 3..9 throughout
    ("one-head", (2, 2)), ("ht3", (2, 2)), ("i0-4", (2, 2)), ("i0r4-2", (2, 2)),
    ("one-head", (2, 5)),
)
FUZZ_ROUNDS = 200  # rounds of all configs per cycle
FUZZ_CYCLES = 16

EXPECTED_SPANS = {
    "fuzz": {"fuzzing.run_fuzz", "generators.gen_random", "core.normalize",
             "patterns.check_condition", "algorithms.augment_i0", "core.is_proper",
             "solver.chromatic_number", "solver.find_proper_coloring",
             "algorithms.one-head", "algorithms.ht3", "algorithms.i0-4", "algorithms.i0r4-2"},
    "ladder-sparse": {"cli.main", "core.parse", "core.serialize", "core.normalize",
                      "core.is_proper", "patterns.check_condition", "patterns.contains_pattern",
                      "algorithms.one-head", "algorithms.ht3", "algorithms.i0-4",
                      "algorithms.i0r4-2", "algorithms.augment_i0",
                      "bounds.induce_good_coloring", "bounds.verify_good_coloring",
                      "bounds.f_bound"},
    "ladder-dense": {"cli.main", "core.parse", "core.normalize", "patterns.check_condition",
                     "patterns.contains_pattern", "algorithms.ht3"},
    "solver": {"cli.main", "core.parse", "core.serialize", "solver.chromatic_number",
               "solver.find_proper_coloring"},
}
EXPECTED_SETUP_SPANS = {"ladder-sparse": {"generators.gen_random"},
                        "solver": {"generators.gen_random"}}


@dataclass
class Input:
    """One generated input file and what the checks need to know about it."""

    name: str
    path: Path
    vertices: tuple[str, ...]
    edges: list[oracle.Edge]
    witnesses: int = 0
    pool: str = ""  # inputs drawn alike share a pool and one line of properties


@dataclass
class Outcome:
    blob: bytes       # what the op produced, for the digest
    errors: list[str]
    output_bytes: int
    instance: object = None  # the generated fuzz instance, for input properties


@dataclass
class CliOp:
    """One ``dhcolor`` command run in-process through ``dhcolor.cli.main``."""

    label: str
    argv: list[str]
    inp: Input
    verify: object  # (op, exit code, JSON payload, stderr, files) -> error strings
    files: dict[str, Path] = field(default_factory=dict)

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(self.argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def outcome(self, raw, first: bool) -> Outcome:
        code, out, err = raw
        files = {}
        for key, path in self.files.items():
            files[key] = path.read_text(encoding="utf-8") if path.exists() else None
        payload = _json(out)
        errors = self.verify(self, code, payload, err, files)
        texts = [self.label, str(code), out, err] + [files[k] or "" for k in sorted(files)]
        blob = "\0".join(texts).encode()
        nbytes = len(out.encode()) + len(err.encode()) + sum(
            len(t.encode()) for t in files.values() if t)
        if first:
            self.inp.witnesses += len(payload.get("witnesses") or ()) + sum(
                line.startswith("edges ") for line in err.splitlines())
        return Outcome(blob, errors, nbytes)


@dataclass
class FuzzOp:
    """One fuzz trial through ``dhcolor.fuzzing.run_fuzz``."""

    label: str
    algo: str
    seed: int
    tails: tuple[int, int]

    def run(self):
        seen = []
        report = fuzzing.run_fuzz(self.algo, 1, n_range=(3, 9), seed=self.seed,
                                  tail_range=self.tails, on_instance=seen.append)
        return report, seen

    def outcome(self, raw, first: bool) -> Outcome:
        report, seen = raw
        errors = [] if report.ok and report.trials == 1 and len(seen) == 1 else [
            f"fuzz trial failed: {report.summary()} "
            + "; ".join(f.reason for f in report.failures)]
        text = report.summary() + "\n" + canonical(seen[0]) if seen else report.summary()
        return Outcome(text.encode(), errors, 0, seen[0] if seen else None)


@dataclass
class Workload:
    name: str
    cycles: list[list]
    inputs: list[Input]
    cycle_seconds: float  # nominal time of one cycle; sets the cycles per run


_SETS: dict[frozenset[str], frozenset[str]] = {}


def canonical(hg) -> str:
    """Text form of a hypergraph that does not go through core.serialize."""
    rows = [" ".join(sorted(t)) + " > " + " ".join(sorted(h))
            for t, h in ((e.tail, e.head) for e in hg.edges)]
    return " ".join(hg.vertices) + "\n" + "\n".join(rows)


def _write(workdir: Path, name: str, hg, pool: str = "") -> Input:
    path = workdir / f"{name}.dhg"
    path.write_text(core.serialize(hg), encoding="utf-8")
    # Equal vertex sets recur across the 512 solver inputs; sharing them keeps
    # the benchmark's own copies from dominating the process's peak memory.
    edges = [(_SETS.setdefault(e.tail, e.tail), _SETS.setdefault(e.head, e.head))
             for e in hg.edges]
    return Input(name, path, hg.vertices, edges, pool=pool)


def _json(out: str) -> dict:
    if not out.startswith("{"):
        return {}
    try:
        return json.loads(out)
    except ValueError:
        return {}


def _verify_check(expected: int):
    def verify(op, code, payload, err, files):
        check = op.argv[-2]
        ws = payload.get("witnesses")
        if ws is None:
            return [f"{op.label}: no JSON verdict (exit {code}): {err[:200]}"]
        errors = []
        if code != (0 if expected == 0 else 1) or payload.get("avoided") != (expected == 0):
            errors.append(f"{op.label}: verdict avoided={payload.get('avoided')} exit {code}")
        if len(ws) != expected:
            errors.append(f"{op.label}: {len(ws)} witnesses, expected {expected}")
        for w in ws[:5] + ws[-5:]:
            if not oracle.witness_ok(check, op.inp.edges, *w["edges"]):
                errors.append(f"{op.label}: pair {w['edges']} is not a witness")
                break
        return errors
    return verify


def _verify_color(algo: str):
    k = PALETTE[algo]

    def verify(op, code, payload, err, files):
        if code != 0 or payload.get("proper") is not True or payload.get("violations") != []:
            return [f"{op.label}: exit {code}, payload {str(payload)[:200]} {err[:200]}"]
        if not files["trace"]:
            return [f"{op.label}: empty trace file"]
        try:
            colors = oracle.parse_coloring_text(files["coloring"] or "")
        except ValueError as exc:
            return [f"{op.label}: unreadable coloring file: {exc}"]
        return [f"{op.label}: {e}" for e in
                oracle.coloring_errors(op.inp.vertices, op.inp.edges, colors, k)]
    return verify


def _verify_rejection(expected: int):
    def verify(op, code, payload, err, files):
        lines = [ln for ln in err.splitlines() if ln.startswith("edges ")]
        if code != 1 or not err.startswith("precondition violated") or not lines:
            return [f"{op.label}: expected a rejection with witnesses, got exit {code}"]
        if len(lines) != expected:
            return [f"{op.label}: {len(lines)} witnesses, expected {expected}"]
        return []
    return verify


def _verify_goodcheck(op, code, p, err, files):
    n, m = len(op.inp.vertices), len(op.inp.edges)
    if code != 0 or p.get("valid") is not True or p.get("within_bound") is not True:
        return [f"{op.label}: exit {code}, payload {str(p)[:200]}"]
    if p.get("n") != n or p.get("edges") != m or p.get("f") != oracle.f_bound(n) or m > p["f"]:
        return [f"{op.label}: wrong sizes or bound in {p}"]
    return []


def _verify_chromatic(expected: int | None):
    def verify(op, code, p, err, files):
        chi = p.get("chi")
        if code != 0 or chi is None or (expected is not None and chi != expected):
            return [f"{op.label}: chi {chi} (expected {expected}), exit {code}"]
        try:
            colors = oracle.parse_coloring_text(files["witness"] or "")
        except ValueError as exc:
            return [f"{op.label}: unreadable witness file: {exc}"]
        if colors != p.get("witness"):
            return [f"{op.label}: witness file differs from the JSON witness"]
        return [f"{op.label}: {e}" for e in
                oracle.coloring_errors(op.inp.vertices, op.inp.edges, colors, chi)]
    return verify


def _check_op(inp: Input, check: str, expected: int) -> CliOp:
    flag = "--pattern" if check in PATTERNS else "--cond"
    return CliOp(f"check {inp.name} {check}", ["check", str(inp.path), flag, check, "--json"],
                 inp, _verify_check(expected))


def _color_op(inp: Input, algo: str, workdir: Path) -> CliOp:
    col, trace = workdir / f"{inp.name}.{algo}.col", workdir / f"{inp.name}.{algo}.trace"
    argv = ["color", str(inp.path), "--algo", algo, "--trace", str(trace), "-o", str(col), "--json"]
    return CliOp(f"color {inp.name} {algo}", argv, inp, _verify_color(algo),
                 {"coloring": col, "trace": trace})


def _chromatic_op(inp: Input, expected: int | None, workdir: Path) -> CliOp:
    wit = workdir / f"{inp.name}.chi.col"
    return CliOp(f"chromatic {inp.name}", ["chromatic", str(inp.path), "--witness", str(wit),
                                           "--json"], inp, _verify_chromatic(expected),
                 {"witness": wit})


def build_fuzz(seed: int, workdir: Path) -> Workload:
    cycles = []
    for c in range(FUZZ_CYCLES):
        ops = []
        for r in range(FUZZ_ROUNDS):
            for j, (algo, tails) in enumerate(FUZZ_CONFIGS):
                trial_seed = seed * 100_000 + (c * FUZZ_ROUNDS + r) * len(FUZZ_CONFIGS) + j
                ops.append(FuzzOp(f"fuzz {algo} tails={tails} seed={trial_seed}",
                                  algo, trial_seed, tails))
        cycles.append(ops)
    return Workload("fuzz", cycles, [], 1.5)


def build_ladder_sparse(seed: int, workdir: Path) -> Workload:
    ops, inputs = [], []
    for idx, (algo, cond, n, m) in enumerate(SPARSE_RUNGS):
        hg = generators.gen_random(n, m, cond=cond, seed=seed * 1000 + idx)
        inp = _write(workdir, f"{cond}-n{n}", hg)
        inputs.append(inp)
        ops += [_check_op(inp, cond, 0), _color_op(inp, algo, workdir)]
    for idx, (n, m) in enumerate(GOODCHECK_RUNGS):
        hg = generators.gen_random(n, m, cond="tails-only-2-intersect",
                                   seed=seed * 1000 + 100 + idx)
        inp = _write(workdir, f"tails-only-2-intersect-n{n}", hg)
        inputs.append(inp)
        ops.append(CliOp(f"goodcheck {inp.name}", ["goodcheck", str(inp.path), "--json"],
                         inp, _verify_goodcheck))
    return Workload("ladder-sparse", [ops], inputs, 1.7)


def build_ladder_dense(seed: int, workdir: Path) -> Workload:
    # The towers are fixed constructions; the seed plays no part here.
    h5 = _write(workdir, "h2-tower-5", generators.gen_h2_tower(5))
    h6 = _write(workdir, "h2-tower-6", generators.gen_h2_tower(6))
    ops = [_check_op(h5, check, H5_WITNESSES[check]) for check in CONDITIONS + PATTERNS]
    ops.append(CliOp("color h2-tower-6 ht3 (rejected)",
                     ["color", str(h6.path), "--algo", "ht3", "--json"],
                     h6, _verify_rejection(H6_R4_WITNESSES)))
    return Workload("ladder-dense", [ops], [h5, h6], 4.0)


def build_solver(seed: int, workdir: Path) -> Workload:
    fixed = [
        _write(workdir, "paper-i", generators.paper_i()),
        _write(workdir, "paper-r", generators.paper_r()),
        _write(workdir, "h2-tower-3", generators.gen_h2_tower(3)),
        _write(workdir, "h2-tower-4", generators.gen_h2_tower(4)),
        _write(workdir, "perm-tower-3", generators.gen_perm_tower(3)),
    ]
    fixed_ops = [_chromatic_op(inp, KNOWN_CHI[inp.name], workdir) for inp in fixed]
    inputs, cycles = list(fixed), []
    for c in range(SOLVER_CYCLES):
        ops = list(fixed_ops)
        for i in range(SOLVER_PER_CYCLE):
            hg = generators.gen_random(SOLVER_N, SOLVER_M,
                                       seed=seed * 1000 + c * SOLVER_PER_CYCLE + i)
            inp = _write(workdir, f"random-n{SOLVER_N}-c{c}-{i}", hg,
                         pool=f"random-n{SOLVER_N}-m{SOLVER_M}")
            inputs.append(inp)
            ops.append(_chromatic_op(inp, None, workdir))
        cycles.append(ops)
    return Workload("solver", cycles, inputs, 2.8)


BUILDERS = {
    "fuzz": build_fuzz,
    "ladder-sparse": build_ladder_sparse,
    "ladder-dense": build_ladder_dense,
    "solver": build_solver,
}
