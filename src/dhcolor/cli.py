"""Command line interface.

Exit codes: 0 for success (avoided / satisfied / proper / determined),
1 for a semantic negative (pattern found, condition or precondition violated,
improper coloring or a run reporting violations, fuzz failures, chromatic
bound exceeded), 2 for usage or input format errors and for files that
cannot be read or written.  Every subcommand supports --json.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .algorithms import ALGORITHMS, RUNNERS, PreconditionError
from .bounds import RoleConflictError, f_bound, induce_good_coloring, verify_good_coloring
from .core import (
    DirectedHypergraph,
    is_proper,
    parse,
    serialize,
    serialize_coloring,
)
from .fuzzing import run_fuzz
from .generators import GENERATOR_KINDS, GenSpec
from .patterns import CONDITION_IDS, PATTERN_IDS, check_condition, contains_pattern
from .solver import DEFAULT_MAX_K, chromatic_number


def _load(path: str) -> DirectedHypergraph:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def _emit(payload: dict, as_json: bool, human: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in human:
            print(line)


def _witness_lines(report) -> list[str]:
    # Witnesses share a few distinct common rows, so each row's text is built once.
    texts: dict[tuple, str] = {}
    lines = []
    for i, j, common in report.witnesses:
        roles = texts.get(common)
        if roles is None:
            roles = texts[common] = ", ".join(f"{v}:{r1}/{r2}" for v, r1, r2 in common)
        lines.append(f"edges {i} {j}  common [{roles}]")
    return lines


def _check_json(report) -> str:
    """``json.dumps(payload, sort_keys=True)`` of a check's payload, where
    payload is ``{"check", "avoided", "witnesses": [{"edges", "common"}]}``.

    Each distinct common row goes through json.dumps once and the witness
    entries are assembled around it, in sorted key order with json's
    default separators.
    """
    texts: dict[tuple, str] = {}
    entries = []
    for i, j, common in report.witnesses:
        text = texts.get(common)
        if text is None:
            text = texts[common] = json.dumps(common)
        entries.append(f'{{"common": {text}, "edges": [{i}, {j}]}}')
    return (f'{{"avoided": {json.dumps(report.avoided)}, "check": {json.dumps(report.pattern)}, '
            f'"witnesses": [{", ".join(entries)}]}}')


def _cmd_check(args: argparse.Namespace) -> int:
    hg = _load(args.file)
    if args.pattern:
        report = contains_pattern(hg, args.pattern)
        verdict = "avoided" if report.avoided else "contained"
    else:
        report = check_condition(hg, args.cond)
        verdict = "satisfied" if report.avoided else "violated"
    if args.json:
        print(_check_json(report))
    else:
        print("\n".join([f"{report.pattern}: {verdict}"] + _witness_lines(report)))
    return 0 if report.avoided else 1


# The runners by algorithm id: the registry's own dict, not a copy.
_ALGOS = RUNNERS


def _cmd_color(args: argparse.Namespace) -> int:
    hg = _load(args.file)
    checked = not args.unchecked
    algo = _ALGOS[args.algo]
    try:
        coloring, trace = algo(hg, checked)
    except PreconditionError as exc:
        lines = [f"precondition violated: {exc}"]
        if exc.report is not None:
            lines += _witness_lines(exc.report)
        sys.stderr.write("\n".join(lines) + "\n")
        return 1
    proper = is_proper(hg, coloring)
    text = serialize_coloring(hg, coloring)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(trace.to_text())
    payload = {
        "algorithm": args.algo,
        "proper": proper,
        "k": coloring.k,
        "colors_used": coloring.colors_used(),
        "assignment": dict(coloring.assignment),
        "violations": list(trace.violations),
    }
    human = [] if args.output else [text.rstrip("\n")]
    human.append(f"proper={proper} k={coloring.k} colors_used={coloring.colors_used()}")
    if trace.violations:
        human += [f"violation: {v}" for v in trace.violations]
    _emit(payload, args.json, human)
    return 0 if proper and not trace.violations else 1


def _cmd_chromatic(args: argparse.Namespace) -> int:
    hg = _load(args.file)
    result = chromatic_number(hg, max_k=args.max_k)
    if args.witness and result.witness is not None:
        with open(args.witness, "w", encoding="utf-8") as fh:
            fh.write(serialize_coloring(hg, result.witness))
    payload = {
        "chi": result.chi,
        "max_k": result.max_k,
        "witness": dict(result.witness.assignment) if result.witness else None,
    }
    _emit(payload, args.json, [str(result)])
    return 0 if result.chi is not None else 1


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = GenSpec(kind=args.kind, k=args.k, n=args.n, m=args.m, cond=args.cond,
                   seed=args.seed, tail_range=(args.tail_min, args.tail_max))
    hg = spec.build()
    text = serialize(hg)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    payload = {"kind": args.kind, "vertices": hg.n, "edges": len(hg.edges),
               "output": args.output}
    human = [] if args.output else [text.rstrip("\n")] if text else []
    human.append(f"generated {args.kind}: {hg.n} vertices, {len(hg.edges)} edges")
    _emit(payload, args.json, human)
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    value = f_bound(args.n)
    _emit({"n": args.n, "f": value}, args.json, [str(value)])
    return 0


def _cmd_goodcheck(args: argparse.Namespace) -> int:
    hg = _load(args.file)
    try:
        gc = induce_good_coloring(hg)
        valid = verify_good_coloring(gc)
    except (ValueError, RoleConflictError) as exc:
        _emit({"valid": False, "error": str(exc)}, args.json, [f"no good coloring: {exc}"])
        return 1
    edges = len(hg.edges)
    limit = f_bound(hg.n)
    within = edges <= limit
    payload = {"valid": valid, "edges": edges, "n": hg.n, "f": limit, "within_bound": within}
    _emit(payload, args.json,
          [f"good coloring: {'valid' if valid else 'INVALID'}; |E|={edges} f({hg.n})={limit}"])
    return 0 if valid and within else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    report = run_fuzz(
        args.algo,
        trials=args.trials,
        n_range=(args.n_min, args.n_max),
        seed=args.seed,
        tail_range=(args.tail_min, args.tail_max),
        random_ties=args.random_ties,
    )
    payload = {
        "algorithm": report.algorithm,
        "trials": report.trials,
        "failures": len(report.failures),
        "failing_seeds": report.failing_seeds,
        "details": [
            {"seed": f.seed, "n": f.n, "m": f.m, "reason": f.reason}
            for f in report.failures
        ],
    }
    human = [report.summary()] + [f"seed={f.seed} n={f.n} m={f.m}: {f.reason}"
                                  for f in report.failures]
    _emit(payload, args.json, human)
    return 0 if report.ok else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then reused.

    ``parse_args`` leaves the parser unchanged, and the handlers it stores
    look up the library functions at call time, so one parser serves every
    ``main`` call in a process.
    """
    parser = argparse.ArgumentParser(
        prog="dhcolor",
        description="Directed hypergraph coloring toolkit",
    )
    parser.add_argument("--version", action="version", version=f"dhcolor {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="test a pattern or intersection condition")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pattern", choices=PATTERN_IDS)
    group.add_argument("--cond", choices=CONDITION_IDS)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("color", help="run a constructive coloring algorithm")
    p.add_argument("file")
    p.add_argument("--algo", choices=tuple(ALGORITHMS), required=True)
    p.add_argument("--trace", metavar="PATH")
    p.add_argument("--unchecked", action="store_true",
                   help="skip precondition checks; just report properness")
    p.add_argument("-o", "--output", metavar="PATH")
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("chromatic", help="exact chromatic number")
    p.add_argument("file")
    p.add_argument("--max-k", type=int, default=DEFAULT_MAX_K)
    p.add_argument("--witness", metavar="PATH")
    p.set_defaults(func=_cmd_chromatic)

    p = sub.add_parser("gen", help="generate a hypergraph")
    p.add_argument("--kind", required=True, choices=GENERATOR_KINDS)
    p.add_argument("--k", type=int, default=2, help="tower level")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--m", type=int, default=5)
    p.add_argument("--cond", default="none", choices=("none",) + CONDITION_IDS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tail-min", type=int, default=2)
    p.add_argument("--tail-max", type=int, default=2)
    p.add_argument("-o", "--output", metavar="PATH")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bound", help="evaluate the good-coloring edge bound")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("goodcheck", help="induce and verify a good coloring")
    p.add_argument("file")
    p.set_defaults(func=_cmd_goodcheck)

    p = sub.add_parser("fuzz", help="randomized soundness trials")
    p.add_argument("--algo", choices=tuple(ALGORITHMS), required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tail-min", type=int, default=2)
    p.add_argument("--tail-max", type=int, default=2)
    p.add_argument("--random-ties", action="store_true",
                   help="randomize the one-head algorithm's free choices")
    p.set_defaults(func=_cmd_fuzz)

    for sp in sub.choices.values():
        sp.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # ParseError and ValidationError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
