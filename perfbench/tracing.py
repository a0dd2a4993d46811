"""Span recording around dhcolor's public functions, from the outside.

During a traced run the benchmark replaces module attributes at the sites
where dhcolor looks them up (``dhcolor.cli.parse``, ``dhcolor.algorithms.
check_condition``, the ``dhcolor.cli._ALGOS`` table, ...) with wrappers that
record one span per call: name, start, end, parent and a few cheap facts
about the arguments and result.  Spans stay in memory; the per-layer
metrics are computed from them after the timed region and the spans are
written out as JSON lines.  No file under ``src/`` is touched.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns

import oracle

ALGOS = ("one-head", "ht3", "i0-4", "i0r4-2")
LAYERS = ("core", "patterns", "algorithms", "generators", "solver", "bounds", "fuzzing", "cli")
OP_SPAN = "bench.op"


def _hg_edges(hg) -> list[oracle.Edge]:
    return [(e.tail, e.head) for e in hg.edges]


# Facts recorded per span: f(args, result, error) -> small tuple, computed
# after the span ends; anything heavy is left for the end of the run.
def _normalize_facts(args, result, error):
    return (len(args[0].edges), None if result is None else len(result.edges))


def _augment_facts(args, result, error):
    return None if result is None else len(result.edges) - len(args[0].edges)


def _algo_facts(args, result, error):
    if error is not None:
        return ("rejected" if type(error).__name__ == "PreconditionError" else "error", 0)
    trace = result[1]
    return ("ok", sum(ev.action != "kept" for ev in trace.events))


def _gen_facts(args, result, error):
    return (args[0], args[1], None if result is None else len(result.edges))


def _solver_facts(args, result, error):
    return result is None


class Tracer:
    """Records spans and installs/removes the wrappers that produce them."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, facts]
        self.graphs: dict[tuple, object] = {}  # one scanned hypergraph per distinct edge list
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _report_facts(self, args, result, error):
        # Keeping every parsed hypergraph alive would slow the collector, so
        # only the first of each distinct edge list is kept.
        hg = self.graphs.setdefault(args[0].edges, args[0])
        return (hg, None if result is None else len(result.witnesses))

    def wrap(self, name: str, fn, facts=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[2] = perf_counter_ns()
                stack.pop()
                if facts is not None:
                    rec[4] = facts(args, None, exc)
                raise
            rec[2] = perf_counter_ns()
            stack.pop()
            if facts is not None:
                rec[4] = facts(args, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, name: str, facts=None, item: bool = False) -> None:
        original = owner[attr] if item else getattr(owner, attr)
        self._undo.append((owner, attr, original, item))
        wrapped = self.wrap(name, original, facts)
        if item:
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)

    def install(self) -> None:
        """Wrap every public function at each module that looks it up."""
        import dhcolor.algorithms as algorithms
        import dhcolor.bounds as bounds
        import dhcolor.cli as cli
        import dhcolor.fuzzing as fuzzing
        import dhcolor.solver as solver

        p = self._patch
        p(cli, "main", "cli.main")
        p(cli, "parse", "core.parse")
        p(cli, "serialize", "core.serialize")
        p(cli, "serialize_coloring", "core.serialize")
        p(cli, "is_proper", "core.is_proper")
        p(cli, "check_condition", "patterns.check_condition", self._report_facts)
        p(cli, "contains_pattern", "patterns.contains_pattern", self._report_facts)
        p(cli, "chromatic_number", "solver.chromatic_number")
        p(cli, "induce_good_coloring", "bounds.induce_good_coloring")
        p(cli, "verify_good_coloring", "bounds.verify_good_coloring")
        p(cli, "f_bound", "bounds.f_bound")
        p(cli, "run_fuzz", "fuzzing.run_fuzz")
        # The CLI's dispatch table captured the function objects at import,
        # so patching the module attributes alone would miss color ops.
        for algo in list(cli._ALGOS):
            p(cli._ALGOS, algo, f"algorithms.{algo}", _algo_facts, item=True)
        p(algorithms, "normalize", "core.normalize", _normalize_facts)
        p(algorithms, "check_condition", "patterns.check_condition", self._report_facts)
        p(algorithms, "is_proper", "core.is_proper")
        p(algorithms, "augment_i0", "algorithms.augment_i0", _augment_facts)
        p(algorithms.RunTrace, "to_text", "core.serialize")
        p(bounds, "contains_pattern", "patterns.contains_pattern", self._report_facts)
        p(fuzzing, "run_fuzz", "fuzzing.run_fuzz")
        p(fuzzing, "gen_random", "generators.gen_random", _gen_facts)
        p(fuzzing, "is_proper", "core.is_proper")
        p(fuzzing, "chromatic_number", "solver.chromatic_number")
        for algo, attr in zip(ALGOS, ("color_one_head", "color_head_tail_3",
                                      "color_i0_4", "color_i0_r4_2")):
            p(fuzzing, attr, f"algorithms.{algo}", _algo_facts)
        p(solver, "find_proper_coloring", "solver.find_proper_coloring", _solver_facts)

    def install_generators(self) -> None:
        """Wrap gen_random where the benchmark's own set-up looks it up."""
        import dhcolor.generators as generators

        self._patch(generators, "gen_random", "generators.gen_random", _gen_facts)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original, item = self._undo.pop()
            if item:
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def call(self, name: str, fn, *args):
        """Run fn under a span of its own (used for the benchmark's ops)."""
        return self.wrap(name, fn)(*args)

    def names(self) -> set[str]:
        return {s[0] for s in self.spans}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def _self_times(spans: list[list], op_factors: list[float] | None, factor: float,
                kernel_ns) -> list[float]:
    """Self seconds of each span, without the speed kernel's time inside it,
    scaled by the speed factor of its op (the latest ``bench.op`` span
    started), or by `factor` without op spans."""
    own = [s[2] - s[1] - kernel_ns(s[1], s[2]) for s in spans]
    child = [0] * len(spans)
    for s, d in zip(spans, own):
        if s[3] >= 0:
            child[s[3]] += d
    out = []
    op = -1
    for s, d, c in zip(spans, own, child):
        if op_factors is not None and s[0] == OP_SPAN:
            op += 1
            factor = op_factors[op]
        out.append((d - c) / 1e9 * factor)
    return out


def _check_roles(spans: list[list]) -> list[str | None]:
    """Role of each check_condition span: the first call under a color_* span
    is the precondition, the second (i0-4 only) the post-augmentation audit."""
    seen: dict[int, int] = defaultdict(int)
    roles: list[str | None] = [None] * len(spans)
    for idx, s in enumerate(spans):
        if s[0] == "patterns.check_condition" and s[3] >= 0 \
                and spans[s[3]][0].startswith("algorithms."):
            roles[idx] = ("algorithms.precondition", "algorithms.i0_audit")[min(seen[s[3]], 1)]
            seen[s[3]] += 1
    return roles


def layer_metrics(spans: list[list], op_factors: list[float], setup_spans: list[list],
                  setup_factor: float, kernel_ns, wall_traced: float, wall_untraced: float,
                  output_bytes: int) -> dict:
    """Per-layer metrics: self seconds (at the reference speed) and counts per
    op, ratios as ratios.  `op_factors` holds each op's speed factor and
    `kernel_ns(start, end)` the speed kernel's time inside an interval."""
    ops = len(op_factors)
    self_s = _self_times(spans, op_factors, 1.0, kernel_ns)
    roles = _check_roles(spans)
    by_name: dict[str, float] = defaultdict(float)
    by_layer: dict[str, float] = defaultdict(float)
    for s, t, role in zip(spans, self_s, roles):
        by_name[s[0]] += t
        by_layer[s[0].split(".")[0]] += t
        if role is not None:
            by_name[role] += t
    scans = by_layer["patterns"] + by_name["core.normalize"]

    pairs = useful = witnesses = dropped = added = recolored = rejected = 0
    gen_calls = gen_short = gen_req = gen_got = 0
    find_calls = infeasible = 0
    fuzz_n: list[int] = []
    fuzz_m: list[int] = []
    useful_cache: dict[int, int] = {}
    for s in spans:
        name, facts = s[0], s[4]
        if name in ("patterns.check_condition", "patterns.contains_pattern") and facts:
            hg, count = facts
            m = len(hg.edges)
            pairs += m * (m - 1) // 2
            if id(hg) not in useful_cache:
                useful_cache[id(hg)] = oracle.useful_pairs(_hg_edges(hg))
            useful += useful_cache[id(hg)]
            witnesses += count or 0
        elif name == "core.normalize" and facts and facts[1] is not None:
            dropped += facts[0] - facts[1]
        elif name == "algorithms.augment_i0" and facts is not None:
            added += facts
        elif name.startswith("algorithms.") and name[11:] in ALGOS and facts:
            rejected += facts[0] == "rejected"
            recolored += facts[1]
        elif name == "solver.find_proper_coloring":
            find_calls += 1
            infeasible += bool(facts)
        elif name == "generators.gen_random" and facts:
            n, m, got = facts
            if s[3] >= 0 and spans[s[3]][0] == "fuzzing.run_fuzz" and got is not None:
                fuzz_n.append(n)
                fuzz_m.append(got)
    for s in spans + setup_spans:
        if s[0] == "generators.gen_random" and s[4] and s[4][2] is not None:
            n, m, got = s[4]
            gen_calls += 1
            gen_req += m
            gen_got += got
            gen_short += got < m

    setup_self = _self_times(setup_spans, None, setup_factor, kernel_ns)
    gen_setup = sum((t for s, t in zip(setup_spans, setup_self)
                     if s[0] == "generators.gen_random"), 0.0)
    per_op = 1.0 / ops
    out = {
        "core.normalize.self_s": by_name["core.normalize"] * per_op,
        "core.normalize.edges_dropped": dropped * per_op,
        "core.parse.self_s": by_name["core.parse"] * per_op,
        "core.serialize.self_s": by_name["core.serialize"] * per_op,
        "core.is_proper.self_s": by_name["core.is_proper"] * per_op,
        "patterns.check_condition.self_s": by_name["patterns.check_condition"] * per_op,
        "patterns.contains_pattern.self_s": by_name["patterns.contains_pattern"] * per_op,
        "patterns.pairs_scanned": pairs * per_op,
        "patterns.useful_pair_frac": useful / pairs if pairs else 0.0,
        "patterns.witnesses": witnesses * per_op,
        "algorithms.precondition.self_s": by_name["algorithms.precondition"] * per_op,
        "algorithms.i0_audit.self_s": by_name["algorithms.i0_audit"] * per_op,
        "algorithms.augment_i0.self_s": by_name["algorithms.augment_i0"] * per_op,
        "algorithms.augment_i0.edges_added": added * per_op,
        **{f"algorithms.{a}.self_s": by_name[f"algorithms.{a}"] * per_op for a in ALGOS},
        "algorithms.recolored": recolored * per_op,
        "algorithms.rejected": rejected * per_op,
        "generators.gen_random.self_s": by_name["generators.gen_random"] * per_op,
        "generators.gen_random.setup_self_s": gen_setup,
        "generators.edge_yield": gen_got / gen_req if gen_req else 0.0,
        "generators.shortfall_frac": gen_short / gen_calls if gen_calls else 0.0,
        "solver.chromatic_number.self_s": by_name["solver.chromatic_number"] * per_op,
        "solver.find_proper_coloring.self_s": by_name["solver.find_proper_coloring"] * per_op,
        "solver.find_proper_coloring.calls": find_calls * per_op,
        "solver.infeasible": infeasible * per_op,
        "bounds.induce_good_coloring.self_s": by_name["bounds.induce_good_coloring"] * per_op,
        "bounds.verify_good_coloring.self_s": by_name["bounds.verify_good_coloring"] * per_op,
        "fuzzing.run_fuzz.self_s": by_name["fuzzing.run_fuzz"] * per_op,
        "fuzzing.instance_mean_n": sum(fuzz_n) / len(fuzz_n) if fuzz_n else 0.0,
        "fuzzing.instance_mean_m": sum(fuzz_m) / len(fuzz_m) if fuzz_m else 0.0,
        "cli.main.self_s": by_name["cli.main"] * per_op,
        "cli.output_bytes": output_bytes * per_op,
        **{f"{layer}.share": by_layer[layer] / wall_traced for layer in LAYERS},
        "bench.share": by_layer["bench"] / wall_traced,
        "patterns_normalize.share": scans / wall_traced,
        "trace.overhead_frac": wall_traced / wall_untraced - 1.0,
    }
    return out


def unit(name: str) -> str:
    """Unit of a metric returned by layer_metrics."""
    if name.endswith(("share", "_frac", "edge_yield")):
        return "ratio"
    if name.endswith("setup_self_s"):
        return "s"
    if name.endswith("self_s"):
        return "s/op"
    if name.startswith("fuzzing.instance_mean"):
        return "count"
    if name == "cli.output_bytes":
        return "B/op"
    return "1/op"
