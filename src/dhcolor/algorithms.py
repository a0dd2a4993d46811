"""The four constructive proper-coloring algorithms.

Each algorithm colors with a fixed palette (blue=0, red=1, green=2,
yellow=3), emits an event trace, and audits the invariants its correctness
argument relies on.  In checked mode (the default) preconditions are
validated up front and any audit failure raises; with checked=False the
algorithm runs regardless and the violations are left on the trace for
inspection.

All algorithms normalize their input first (drop edges whose vertex set
contains another edge's vertex set) and return a coloring of the full
original vertex set; properness is verified against the original hypergraph.

``ALGORITHMS`` is the one list of the algorithms.  Every pass of ht3, i0-4
and i0r4-2 is one ``_Run.sweep``: paint ``v`` when it closes an edge filed
under it whose blank count (non-blue, or green, vertices) is still 0.  One
``paint`` serves them all, because a pass gated on the non-blue count only
fires on an edge through ``v`` with no non-blue vertex, so ``v`` is blue.
Only i0-4's step 2, gated on the green count, can meet a red ``v``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .core import (
    BLUE,
    COLOR_NAMES,
    GREEN,
    RED,
    YELLOW,
    Coloring,
    DirectedEdge,
    DirectedHypergraph,
    is_proper,
    normalize,
)
from .patterns import PatternReport, check_condition


class PreconditionError(ValueError):
    """Input violates an algorithm's hypothesis; carries the witness report."""

    def __init__(self, message: str, report: PatternReport | None = None):
        super().__init__(message)
        self.report = report


class InvariantViolationError(RuntimeError):
    """A run broke an invariant its correctness argument guarantees."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


@dataclass(frozen=True)
class TraceEvent:
    step: int
    vertex: str
    action: str  # kept | colored-red | recolored-previous-blue | colored-green | colored-yellow
    edge: int | None = None
    next_vertex: str | None = None

    def line(self) -> str:
        e = "-" if self.edge is None else str(self.edge)
        nxt = self.next_vertex if self.next_vertex is not None else "-"
        return f"{self.step} {self.vertex} {self.action} {e} {nxt}"


@dataclass
class RunTrace:
    """Ordered event log of one algorithm run plus any invariant violations."""

    events: list[TraceEvent] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    _step: int = 0

    def add(self, vertex: str, action: str, edge: int | None = None,
            next_vertex: str | None = None) -> None:
        self._step += 1
        self.events.append(TraceEvent(self._step, vertex, action, edge, next_vertex))

    def violate(self, message: str) -> None:
        self.violations.append(message)

    def to_text(self) -> str:
        return "".join(ev.line() + "\n" for ev in self.events)


def _require_condition(hg: DirectedHypergraph, cond: str) -> None:
    report = check_condition(hg, cond)
    if not report.avoided:
        pairs = ", ".join(f"({w.i},{w.j})" for w in report.witnesses[:5])
        raise PreconditionError(f"condition {cond} violated by edge pairs {pairs}", report)


# Each edge shape a hypothesis names: its predicate and its rejection text.
_SHAPES = {
    "one-head": (lambda e: len(e.head) == 1 and len(e.tail) >= 2,
                 "lack the one-head, tails>=2 shape"),
    "head-tail": (lambda e: bool(e.head and e.tail), "lack a head or a tail"),
    "2->1": (lambda e: len(e.tail) == 2 and len(e.head) == 1, "are not of 2->1 shape"),
}


def _require_shape(hg: DirectedHypergraph, shape: str) -> None:
    fits, text = _SHAPES[shape]
    bad = [i for i, e in enumerate(hg.edges) if not fits(e)]
    if bad:
        raise PreconditionError(f"edges {bad} {text}")


def _require_hypothesis(hg: DirectedHypergraph, spec: Algorithm) -> None:
    _require_shape(hg, spec.shape)
    _require_condition(hg, spec.condition)


def _start(hg: DirectedHypergraph, name: str, checked: bool):
    """Entry `name`, the normalized input (checked if asked) and a new trace."""
    spec = ALGORITHMS[name]
    hn = normalize(hg)
    if checked:
        _require_hypothesis(hn, spec)
    return spec, hn, RunTrace()


def _finish(hg: DirectedHypergraph, color: dict[str, int], k: int,
            trace: RunTrace, checked: bool) -> Coloring:
    coloring = Coloring(color, k)
    if not is_proper(hg, coloring):
        trace.violate("result is not a proper coloring of the input")
    if checked and trace.violations:
        raise InvariantViolationError(trace.violations)
    return coloring


class _Run:
    """One run's state: the colors (all blue at first), each vertex's
    incident edges, and per-edge counts of non-blue and of green vertices."""

    def __init__(self, hg: DirectedHypergraph, edges, trace: RunTrace) -> None:
        self.trace = trace
        self.color = dict.fromkeys(hg.vertices, BLUE)
        self.incident: dict[str, list[int]] = {v: [] for v in hg.vertices}
        for idx, e in enumerate(edges):
            for v in e.vertices:
                self.incident[v].append(idx)
        self.nonblue = [0] * len(edges)
        self.green = [0] * len(edges)

    def paint(self, v: str, c: int) -> None:
        """Give v color c (a vertex already colored is a violation)."""
        if self.color[v] != BLUE:
            self.trace.violate(f"recolored non-blue vertex {v}")
        else:
            for idx in self.incident[v]:
                self.nonblue[idx] += 1
        self.color[v] = c
        if c == GREEN:
            for idx in self.incident[v]:
                self.green[idx] += 1

    def sweep(self, order, closing: dict[str, list[int]], blank: list[int], c: int) -> None:
        """Paint each v of order c when it closes an edge of closing[v] whose
        blank count is still 0 (the first is the trigger); else keep it."""
        add = self.trace.add
        action = f"colored-{COLOR_NAMES[c]}"
        for v in order:
            trigger = next((i for i in closing.get(v, ()) if blank[i] == 0), None)
            if trigger is None:
                add(v, "kept")
            else:
                self.paint(v, c)
                add(v, action, edge=trigger)


def color_one_head(
    hg: DirectedHypergraph,
    checked: bool = True,
    tie_rng: random.Random | None = None,
) -> tuple[Coloring, RunTrace, tuple[str, ...]]:
    """Proper 2-coloring for one-head hypergraphs (tails >= 2) in which every
    one-vertex edge intersection is a head of at least one of the two edges.

    The processing order is built on the fly.  All vertices start blue.  When
    the current vertex completes the tail of some all-blue edge, it turns red;
    if that makes some edge all red, the previously processed vertex flips
    back to blue; the next vertex is the head of a triggering edge whenever
    one is still unprocessed.  Audited invariants: an all-red edge never ends
    at a tail vertex, occupies consecutive processing positions, is created at
    most one per step, and no vertex changes color more than twice.

    tie_rng, when given, randomizes the free choices (start vertex, arbitrary
    successor, and which qualifying edge is followed) without leaving the
    algorithm's allowed freedom.
    """
    spec, hn, trace = _start(hg, "one-head", checked)
    edges = hn.edges
    sizes = [len(e) for e in edges]
    tail_sizes = [len(e.tail) for e in edges]
    heads = [min(e.head, default=None) for e in edges]  # single head when well-formed
    tail_member: dict[str, list[int]] = {v: [] for v in hn.vertices}
    for idx, e in enumerate(edges):
        for v in e.tail:
            tail_member[v].append(idx)

    # Red is the only color besides blue here, so the non-blue count of an
    # edge is its red count.
    run = _Run(hn, edges, trace)
    color, incident, nonblue = run.color, run.incident, run.nonblue
    tails_done = [0] * len(edges)
    changes = {v: 0 for v in hn.vertices}
    pos: dict[str, int] = {}
    order: list[str] = []
    forced: str | None = None

    def note_change(v: str) -> None:
        changes[v] += 1
        if changes[v] > 2:
            trace.violate(f"vertex {v} changed color more than twice")

    for i in range(1, hn.n + 1):
        if forced is not None:
            v, forced = forced, None
        else:
            remaining = [u for u in hn.vertices if u not in pos]
            v = remaining[tie_rng.randrange(len(remaining))] if tie_rng else remaining[0]
        pos[v] = i
        order.append(v)
        for idx in tail_member[v]:
            tails_done[idx] += 1

        qualifying = [
            idx for idx in tail_member[v]
            if nonblue[idx] == 0 and tails_done[idx] == tail_sizes[idx]
        ]
        if not qualifying:
            trace.add(v, "kept")
            continue

        preferred = [idx for idx in qualifying if heads[idx] is not None and heads[idx] not in pos]
        pool = preferred or qualifying
        chosen = pool[tie_rng.randrange(len(pool))] if tie_rng else pool[0]
        if preferred:
            forced = heads[chosen]

        # v is not processed yet, so it is blue, and an edge through it that
        # is all red now became so in this step.
        run.paint(v, RED)
        note_change(v)
        newly_mono = [idx for idx in incident[v] if nonblue[idx] == sizes[idx]]
        trace.add(v, "colored-red", edge=chosen, next_vertex=forced)

        if len(newly_mono) > 1:
            trace.violate("one red step created more than one monochromatic red edge")
        for idx in newly_mono:
            ps = sorted(pos[u] for u in edges[idx].vertices)
            if ps != list(range(ps[0], ps[0] + len(ps))):
                trace.violate(f"monochromatic red edge {idx} is not consecutive in processing order")
            last = max(edges[idx].vertices, key=pos.__getitem__)
            if last in edges[idx].tail:
                trace.violate(f"monochromatic red edge {idx} ends at a tail vertex")
        if newly_mono:
            if i < 2:
                trace.violate("monochromatic red edge with no previous vertex to recolor")
            else:
                prev = order[i - 2]
                if color[prev] != RED:
                    trace.violate(f"recolor target {prev} was not red")
                else:
                    color[prev] = BLUE
                    note_change(prev)
                    for idx in incident[prev]:
                        nonblue[idx] -= 1
                trace.add(prev, "recolored-previous-blue", edge=newly_mono[0])

    coloring = _finish(hg, color, spec.palette, trace, checked)
    return coloring, trace, tuple(order)


def color_head_tail_3(
    hg: DirectedHypergraph, checked: bool = True
) -> tuple[Coloring, RunTrace]:
    """Proper 3-coloring for hypergraphs whose edges all have a head and a
    tail and whose one-vertex intersections never mix roles.

    Uses the hypergraph's own vertex order.  Pass 1 (ascending) reds the last
    vertex of any still-all-blue edge that ends in a tail vertex; pass 2
    (ascending) greens the last vertex of any still-all-blue edge that ends in
    a head vertex.
    """
    spec, hn, trace = _start(hg, "ht3", checked)
    pos = hn.positions
    edges = hn.edges
    m = len(edges)
    tail_closing: dict[str, list[int]] = {}
    head_closing: dict[str, list[int]] = {}
    ends_in_tail = [False] * m
    for idx, e in enumerate(edges):
        last = max(e.vertices, key=pos.__getitem__)
        ends_in_tail[idx] = last in e.tail
        (tail_closing if ends_in_tail[idx] else head_closing).setdefault(last, []).append(idx)

    run = _Run(hn, edges, trace)
    color = run.color
    run.sweep(hn.vertices, tail_closing, run.nonblue, RED)

    for idx in range(m):
        vcolors = [color[u] for u in edges[idx].vertices]
        if ends_in_tail[idx] and RED not in vcolors:
            trace.violate(f"tail-ending edge {idx} has no red vertex after pass 1")
        if all(c == RED for c in vcolors):
            trace.violate(f"edge {idx} is monochromatic red after pass 1")

    run.sweep(hn.vertices, head_closing, run.nonblue, GREEN)

    for idx in range(m):
        vcolors = {color[u] for u in edges[idx].vertices}
        if len(vcolors) == 1:
            # Covers all-blue head-ending edges as well as mono red/green.
            trace.violate(f"edge {idx} is monochromatic at termination")

    coloring = _finish(hg, color, spec.palette, trace, checked)
    return coloring, trace


@dataclass(frozen=True)
class HeadStar:
    """Shape of the set of edges headed by one vertex."""

    kind: str  # empty | pivot | triangle
    vertices: tuple[str, ...]  # () | (pivot,) | (v, w, z)


def classify_head_star(hg: DirectedHypergraph, u: str, checked: bool = True) -> HeadStar:
    """Classify the edges headed by u: empty, all through one pivot vertex, or
    exactly the three edges of a triangle.

    For i0-free 2->1 hypergraphs exactly one case applies (pivot is preferred
    when a star with at most two edges fits both descriptions).  Failure to
    classify means the input was not i0-free.
    """
    if checked:
        _require_hypothesis(hg, ALGORITHMS["i0-4"])
    if u not in hg.positions:
        raise ValueError(f"unknown vertex {u!r}")
    return _classify_star(hg, u, [e for e in hg.edges if u in e.head])


def _head_stars(hg: DirectedHypergraph) -> dict[str, list[DirectedEdge]]:
    """The edges headed by each vertex, in edge order, from one pass."""
    stars: dict[str, list[DirectedEdge]] = {v: [] for v in hg.vertices}
    for e in hg.edges:
        for v in e.head:
            stars[v].append(e)
    return stars


def _classify_star(hg: DirectedHypergraph, u: str, star: list[DirectedEdge]) -> HeadStar:
    """classify_head_star given the edges headed by u."""
    if not star:
        return HeadStar("empty", ())
    pos = hg.positions
    pivots = frozenset.intersection(*(e.vertices for e in star)) - {u}
    if pivots:
        return HeadStar("pivot", (min(pivots, key=pos.__getitem__),))
    support = sorted(frozenset().union(*(e.vertices for e in star)) - {u}, key=pos.__getitem__)
    if len(star) == 3 and len(support) == 3:
        v, w, z = support
        if {e.tail for e in star} == {frozenset((v, w)), frozenset((w, z)), frozenset((v, z))}:
            return HeadStar("triangle", (v, w, z))
    raise InvariantViolationError(
        [f"head-star of {u} is neither empty, pivoted, nor a triangle; input not i0-free"]
    )


def augment_i0(hg: DirectedHypergraph, checked: bool = True) -> DirectedHypergraph:
    """Add edges so that every vertex's head-star becomes a triangle or a full
    pivot star, preserving i0-freeness.

    An empty star is filled around the smallest-index vertex other than u; a
    pivoted star is completed to every edge with head u through its pivot.
    The input's edges are kept, so any proper coloring of the result is proper
    for the input.
    """
    if checked:
        _require_shape(hg, "2->1")
        vsets = [e.vertices for e in hg.edges]
        if len(set(vsets)) != len(vsets):
            raise PreconditionError("two edges share a vertex set")
        _require_condition(hg, "i0-free")
    additions: list[DirectedEdge] = []
    for u, star_edges in _head_stars(hg).items():
        star = _classify_star(hg, u, star_edges)
        if star.kind == "triangle":
            continue
        if star.kind == "empty":
            others = [v for v in hg.vertices if v != u]
            if len(others) < 2:
                continue
            pivot = others[0]
        else:
            pivot = star.vertices[0]
        existing = {e.tail for e in star_edges}
        for w in hg.vertices:
            if w == u or w == pivot:
                continue
            tail = frozenset((pivot, w))
            if tail not in existing:
                additions.append(DirectedEdge(tail, frozenset((u,))))
    return DirectedHypergraph(hg.vertices, hg.edges + tuple(additions))


def _full_star_issues(hg: DirectedHypergraph) -> list[str]:
    issues = []
    for u, star_edges in _head_stars(hg).items():
        if not star_edges:
            if hg.n >= 3:
                issues.append(f"head-star of {u} still empty after augmentation")
            continue
        try:
            star = _classify_star(hg, u, star_edges)
        except InvariantViolationError as exc:
            issues.extend(exc.violations)
            continue
        if star.kind == "triangle":
            continue
        pivot = star.vertices[0]
        want = {frozenset((pivot, w)) for w in hg.vertices if w not in (u, pivot)}
        if {e.tail for e in star_edges} != want:
            issues.append(f"head-star of {u} is neither a triangle nor a full pivot star")
    return issues


def color_i0_4(hg: DirectedHypergraph, checked: bool = True) -> tuple[Coloring, RunTrace]:
    """Proper 4-coloring for 2->1 hypergraphs avoiding head-head one-vertex
    intersections.

    Pipeline: normalize, augment every head-star to a triangle or full pivot
    star, split edges by where the head sits in index order (lowest E1, middle
    E2, highest E3), then: step 1 (ascending) reds heads of all-blue E3 edges;
    step 2 (descending) greens heads of E1 edges with no green vertex yet;
    step 3 (ascending) yellows heads of all-blue E2 edges.  Trace edge indices
    refer to the augmented edge list.
    """
    spec, hn, trace = _start(hg, "i0-4", checked)
    if not hn.edges:
        for v in hn.vertices:
            trace.add(v, "kept")
        return _finish(hg, {v: BLUE for v in hn.vertices}, spec.palette, trace, checked), trace

    try:
        ha = augment_i0(hn, checked=False)
    except InvariantViolationError as exc:
        # Only reachable on inputs that break the i0-free hypothesis, which
        # checked mode has already ruled out; keep going without augmentation.
        if checked:
            raise
        trace.violations.extend(exc.violations)
        ha = hn
    if not check_condition(ha, "i0-free").avoided:
        trace.violate("augmentation broke i0-freeness")
    for issue in _full_star_issues(ha):
        trace.violate(issue)

    pos = hn.positions
    edges = ha.edges
    m = len(edges)
    by_head_rank: list[dict[str, list[int]]] = [{}, {}, {}]  # E1, E2, E3
    rank_of = [-1] * m  # -1: a headless edge, in no bucket (unchecked runs only)
    for idx, e in enumerate(edges):
        if not e.head:
            continue
        head = min(e.head)
        ordered = sorted(e.vertices, key=pos.__getitem__)
        # 0 lowest, 1 middle, 2 highest; an edge with more than two tails
        # (unchecked runs only) files a head past its third vertex under 2.
        rank = min(ordered.index(head), 2)
        rank_of[idx] = rank
        by_head_rank[rank].setdefault(head, []).append(idx)

    run = _Run(hn, edges, trace)
    color, nonblue, greencnt = run.color, run.nonblue, run.green
    sizes = [len(e) for e in edges]

    def mono(idx: int, c: int) -> bool:
        # Vertices never return to blue and nonblue counts each vertex once,
        # so it is exact: 0 means all blue, the edge size means none blue.
        if c == BLUE:
            return nonblue[idx] == 0
        return nonblue[idx] == sizes[idx] and all(color[u] == c for u in edges[idx].vertices)

    run.sweep(hn.vertices, by_head_rank[2], nonblue, RED)

    for idx in range(m):
        if rank_of[idx] == 2 and mono(idx, BLUE):
            trace.violate(f"E3 edge {idx} still all blue after step 1")
        if mono(idx, RED):
            trace.violate(f"edge {idx} monochromatic red after step 1")

    run.sweep(reversed(hn.vertices), by_head_rank[0], greencnt, GREEN)

    for idx in range(m):
        if rank_of[idx] == 0 and greencnt[idx] == 0:
            trace.violate(f"E1 edge {idx} has no green vertex after step 2")
        if rank_of[idx] in (0, 2) and mono(idx, BLUE):
            trace.violate(f"E1/E3 edge {idx} still all blue after step 2")
        if mono(idx, GREEN):
            trace.violate(f"edge {idx} monochromatic green after step 2")
        if mono(idx, RED):
            trace.violate(f"edge {idx} monochromatic red after step 2")

    run.sweep(hn.vertices, by_head_rank[1], nonblue, YELLOW)

    for idx, e in enumerate(edges):
        if len({color[u] for u in e.vertices}) == 1:
            trace.violate(f"edge {idx} monochromatic at termination")

    coloring = _finish(hg, color, spec.palette, trace, checked)
    return coloring, trace


def color_i0_r4_2(hg: DirectedHypergraph, checked: bool = True) -> tuple[Coloring, RunTrace]:
    """Proper 2-coloring for 2->1 hypergraphs whose one-vertex intersections
    are tails on both sides: one ascending pass that reds every vertex heading
    a still-all-blue edge."""
    spec, hn, trace = _start(hg, "i0r4-2", checked)
    edges = hn.edges
    by_head: dict[str, list[int]] = {}
    for idx, e in enumerate(edges):
        if e.head:  # a headless edge (unchecked runs only) heads no bucket
            by_head.setdefault(min(e.head), []).append(idx)

    run = _Run(hn, edges, trace)
    run.sweep(hn.vertices, by_head, run.nonblue, RED)

    for idx, e in enumerate(edges):
        vcolors = {run.color[u] for u in e.vertices}
        if RED not in vcolors:
            trace.violate(f"edge {idx} ended with no red vertex")
        if len(vcolors) == 1:
            trace.violate(f"edge {idx} monochromatic at termination")

    coloring = _finish(hg, run.color, spec.palette, trace, checked)
    return coloring, trace


class Algorithm(NamedTuple):
    """One constructive coloring and the hypothesis it is proved under."""

    run: Callable[..., tuple[Coloring, RunTrace]]  # (hg, checked=True) -> (coloring, trace)
    shape: str  # a key of _SHAPES: the shape every normalized edge must have
    condition: str  # the pair condition (a patterns.CONDITION_IDS entry)
    palette: int  # number of colors


def _run_one_head(hg, checked=True, tie_rng=None):
    """color_one_head without the processing order."""
    return color_one_head(hg, checked, tie_rng)[:2]


ALGORITHMS: dict[str, Algorithm] = {
    "one-head": Algorithm(_run_one_head, "one-head", "onehead-h1", 2),
    "ht3": Algorithm(color_head_tail_3, "head-tail", "r4-free", 3),
    "i0-4": Algorithm(color_i0_4, "2->1", "i0-free", 4),
    "i0r4-2": Algorithm(color_i0_r4_2, "2->1", "i0r4-free", 2),
}

# The runners by id.  The CLI and fuzzing.run_fuzz both call through this
# dict, so replacing an item (as the benchmark's span tracer does) reaches both.
RUNNERS = {name: spec.run for name, spec in ALGORITHMS.items()}


def applicable(hg: DirectedHypergraph) -> list[str]:
    """Ids of the algorithms whose checked run accepts hg (raises no
    PreconditionError), in registry order."""
    hn = normalize(hg)
    out = []
    for name, spec in ALGORITHMS.items():
        try:
            _require_hypothesis(hn, spec)
        except PreconditionError:
            continue
        out.append(name)
    return out
