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

``ALGORITHMS`` is the one list of the algorithms.  The passes address
vertices by position in the vertex sequence, the "arbitrary but fixed
ordering" the colorings are stated for; names appear only where text leaves
a run: trace events, violation messages, ``HeadStar`` and the returned
``Coloring``.  A run keeps one bitmask of vertex positions per color and
tests an edge against a color class with one AND of its mask from
``hg.index``, built once per hypergraph, like the masks that give ht3 an
edge's last vertex and i0-4 its head's rank.  Every pass of ht3, i0-4 and
i0r4-2 is one ``_Run.sweep``, which the pass hands every edge's closing
position (None for an edge not in the pass); the sweep files the edges
under those positions itself and paints position ``p`` when it closes an
edge that is still all blue, or (i0-4's step 2 only) still has no green
vertex.  One ``paint`` serves them all: an all-blue edge through ``p``
makes ``p`` blue, so only step 2 can meet a red ``p``.  Their audits scan
the edge masks once per check against one class mask (the edges inside a
class, or meeting none of it) and hand the offenders to one
``_Run.audit``, which reports them by edge index, an edge's failures in
the order of the checks.  One ``_classify_star`` gives a head-star's kind
and the pivot of the full star that ``augment_i0`` builds and its audit
checks.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import Callable, NamedTuple

from .core import (
    BLUE,
    COLOR_NAMES,
    GREEN,
    RED,
    YELLOW,
    Coloring,
    DirectedHypergraph,
    Value,
    _mask_row,
    _setattr,
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


class TraceEvent(Value):
    _fields = ("step", "vertex", "action", "edge", "next_vertex")
    step: int
    vertex: str
    action: str  # kept | colored-red | recolored-previous-blue | colored-green | colored-yellow
    edge: int | None
    next_vertex: str | None

    def __init__(self, step: int, vertex: str, action: str, edge: int | None = None,
                 next_vertex: str | None = None) -> None:
        _setattr(self, "step", step)
        _setattr(self, "vertex", vertex)
        _setattr(self, "action", action)
        _setattr(self, "edge", edge)
        _setattr(self, "next_vertex", next_vertex)

    def line(self) -> str:
        e = "-" if self.edge is None else str(self.edge)
        nxt = self.next_vertex if self.next_vertex is not None else "-"
        return f"{self.step} {self.vertex} {self.action} {e} {nxt}"


class RunTrace(Value, frozen=False):
    """Ordered event log of one algorithm run plus any invariant violations."""

    _fields = ("events", "violations")
    events: list[TraceEvent]
    violations: list[str]

    def __init__(self, events: list[TraceEvent] | None = None,
                 violations: list[str] | None = None) -> None:
        self.events = [] if events is None else events
        self.violations = [] if violations is None else violations

    def add(self, vertex: str, action: str, edge: int | None = None,
            next_vertex: str | None = None) -> None:
        self.events.append(TraceEvent(len(self.events) + 1, vertex, action, edge, next_vertex))

    def violate(self, message: str) -> None:
        self.violations.append(message)

    def to_text(self) -> str:
        return "".join(ev.line() + "\n" for ev in self.events)


# Each edge shape a hypothesis names: its predicate on an edge's head and
# tail rows, and its rejection text.
_SHAPES = {
    "one-head": (lambda heads, tails: len(heads) == 1 and len(tails) >= 2,
                 "lack the one-head, tails>=2 shape"),
    "head-tail": (lambda heads, tails: bool(heads and tails), "lack a head or a tail"),
    "2->1": (lambda heads, tails: len(tails) == 2 and len(heads) == 1, "are not of 2->1 shape"),
}


def _require_hypothesis(hg: DirectedHypergraph, spec: Algorithm) -> None:
    """Raise PreconditionError unless every edge has spec's shape and the
    edge pairs meet spec's condition, tested in that order."""
    fits, text = _SHAPES[spec.shape]
    bad = [i for i, (heads, tails) in enumerate(zip(hg.index.head_rows, hg.index.tail_rows))
           if not fits(heads, tails)]
    if bad:
        raise PreconditionError(f"edges {bad} {text}")
    report = check_condition(hg, spec.condition)
    if not report.avoided:
        first, second, _ = report.columns
        pairs = ", ".join(f"({i},{j})" for i, j in zip(first[:5], second[:5]))
        raise PreconditionError(f"condition {spec.condition} violated by edge pairs {pairs}", report)


def _start(hg: DirectedHypergraph, name: str, checked: bool):
    """Entry `name`, the normalized input (checked if asked) and a new trace."""
    spec = ALGORITHMS[name]
    hn = normalize(hg)
    if checked:
        _require_hypothesis(hn, spec)
    return spec, hn, RunTrace()


def _finish(hg: DirectedHypergraph, run: _Run, k: int, checked: bool) -> Coloring:
    """The run's coloring, by name for hg (whose vertex sequence the run's
    hypergraph shares), audited for properness against hg."""
    assignment = dict.fromkeys(hg.vertices, BLUE)
    for c in range(1, len(COLOR_NAMES)):
        assignment.update((hg.vertices[p], c) for p in _mask_row(run.classes[c]))
    coloring = Coloring(assignment, k)
    if not is_proper(hg, coloring):
        run.trace.violate("result is not a proper coloring of the input")
    if checked and run.trace.violations:
        raise InvariantViolationError(run.trace.violations)
    return coloring


def _head_positions(hg: DirectedHypergraph) -> list[int | None]:
    """Each edge's head position (None for a headless edge).  An edge with
    several heads, which only unchecked runs meet, is filed under its
    smallest head name, as the pinned traces of those runs record."""
    name = hg.vertices.__getitem__
    return [None if not row else row[0] if len(row) == 1 else min(row, key=name)
            for row in hg.index.head_rows]


class _Run:
    """One run's coloring state: ``classes``, one bitmask of vertex
    positions per color (all blue at first).  ``names`` turns a position
    into the vertex name that trace events and messages show."""

    def __init__(self, hg: DirectedHypergraph, trace: RunTrace) -> None:
        self.trace = trace
        self.names = hg.vertices
        self.masks = hg.index.masks
        self.classes = [(1 << hg.n) - 1] + [0] * (len(COLOR_NAMES) - 1)

    def color_of(self, p: int) -> int:
        """Position p's color."""
        return next(c for c, cls in enumerate(self.classes) if cls >> p & 1)

    def move(self, p: int, c: int) -> None:
        """Give position p color c."""
        bit = 1 << p
        self.classes[self.color_of(p)] ^= bit
        self.classes[c] |= bit

    def paint(self, p: int, c: int) -> None:
        """Give position p color c (a vertex already colored is a violation)."""
        if self.color_of(p) != BLUE:
            self.trace.violate(f"recolored non-blue vertex {self.names[p]}")
        self.move(p, c)

    def mono(self, idx: int, c: int) -> bool:
        """Edge idx lies inside color class c."""
        mask = self.masks[idx]
        return self.classes[c] & mask == mask

    def missing(self, out: int) -> list[int]:
        """The ascending indices of the edges with no vertex in the mask
        out: with out a class, the edges that meet no vertex of its color."""
        return [idx for idx, mask in enumerate(self.masks) if not mask & out]

    def inside(self, c: int) -> list[int]:
        """The ascending indices of the edges inside color class c."""
        return self.missing(~self.classes[c])

    def inside_any(self) -> list[int]:
        """The ascending indices of the edges inside some color class (an
        empty class holds no edge, as every edge has a vertex)."""
        return sorted(idx for c, cls in enumerate(self.classes) if cls for idx in self.inside(c))

    def audit(self, *checks: tuple[list[int], str]) -> None:
        """Report each check's offenders, a check being the ascending edge
        indices that fail it and its message with ``{}`` for the index: by
        edge index, and an edge's failures in the order of the checks."""
        found = sorted((idx, k) for k, (offenders, _) in enumerate(checks) for idx in offenders)
        for idx, k in found:
            self.trace.violate(checks[k][1].format(idx))

    def sweep(self, order, keys: list[int | None], c: int, gate: int = BLUE) -> None:
        """Paint each position p of order c when it closes an edge of this
        pass (keys[idx] == p; None leaves edge idx out of the pass) that lies
        inside the blue class, or with gate=GREEN misses the green class; the
        first such edge by index is the trigger.  Else keep p."""
        add, masks, classes, names = self.trace.add, self.masks, self.classes, self.names
        action = f"colored-{COLOR_NAMES[c]}"
        closing: dict[int, list[int]] = {}
        for idx, p in enumerate(keys):
            if p is not None:
                closing.setdefault(p, []).append(idx)
        for p in order:
            # What an edge must miss to trigger: the non-blue or the green.
            out = classes[GREEN] if gate == GREEN else ~classes[BLUE]
            trigger = next((i for i in closing.get(p, ()) if not out & masks[i]), None)
            if trigger is None:
                add(names[p], "kept")
            else:
                self.paint(p, c)
                add(names[p], action, edge=trigger)


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
    names = hn.vertices
    heads = _head_positions(hn)  # one head each when well-formed
    index = hn.index

    run = _Run(hn, trace)
    done = 0  # bitmask of the processed positions
    changes = [0] * hn.n
    order: list[int] = []  # the processed positions, in processing order
    forced: int | None = None
    unprocessed = list(range(hn.n))  # the unprocessed positions, ascending

    def note_change(p: int) -> None:
        changes[p] += 1
        if changes[p] > 2:
            trace.violate(f"vertex {names[p]} changed color more than twice")

    while unprocessed:
        if forced is not None:
            p, forced = forced, None
            del unprocessed[bisect_left(unprocessed, p)]
        else:
            p = unprocessed.pop(tie_rng.randrange(len(unprocessed)) if tie_rng else 0)
        order.append(p)
        done |= 1 << p

        qualifying = [
            idx for idx in index.tails_at[p]
            if run.mono(idx, BLUE) and done & index.tail_masks[idx] == index.tail_masks[idx]
        ]
        if not qualifying:
            trace.add(names[p], "kept")
            continue

        preferred = [idx for idx in qualifying if heads[idx] is not None and not done >> heads[idx] & 1]
        pool = preferred or qualifying
        chosen = pool[tie_rng.randrange(len(pool))] if tie_rng else pool[0]
        if preferred:
            forced = heads[chosen]

        # p is not processed yet, so it is blue, and an edge through it that
        # is all red now became so in this step.  Only processed vertices are
        # red, so such an edge's latest vertex is p: it is consecutive when
        # it is the last |e| processed, and ends at p.
        run.paint(p, RED)
        note_change(p)
        newly_mono = [idx for idx in index.edges_at[p] if run.mono(idx, RED)]
        trace.add(names[p], "colored-red", edge=chosen,
                  next_vertex=None if forced is None else names[forced])

        if len(newly_mono) > 1:
            trace.violate("one red step created more than one monochromatic red edge")
        for idx in newly_mono:
            mask = index.masks[idx]
            if mask != sum(1 << q for q in order[-mask.bit_count():]):
                trace.violate(f"monochromatic red edge {idx} is not consecutive in processing order")
            if index.tail_masks[idx] >> p & 1:
                trace.violate(f"monochromatic red edge {idx} ends at a tail vertex")
        if newly_mono:
            if len(order) < 2:
                trace.violate("monochromatic red edge with no previous vertex to recolor")
            else:
                prev = order[-2]
                if run.color_of(prev) != RED:
                    trace.violate(f"recolor target {names[prev]} was not red")
                else:
                    run.move(prev, BLUE)
                    note_change(prev)
                trace.add(names[prev], "recolored-previous-blue", edge=newly_mono[0])

    coloring = _finish(hg, run, spec.palette, checked)
    return coloring, trace, tuple(names[p] for p in order)


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
    heads, tails = hn.index.head_masks, hn.index.tail_masks
    # An edge's last vertex is the top bit of its masks, which lies in the
    # larger of its head and tail masks.  Pass 1 closes the edges that end in
    # a tail there, pass 2 the others.
    pass_1 = [t.bit_length() - 1 if t > h else None for h, t in zip(heads, tails)]
    pass_2 = [None if t > h else h.bit_length() - 1 for h, t in zip(heads, tails)]

    run = _Run(hn, trace)
    run.sweep(range(hn.n), pass_1, RED)

    run.audit(([idx for idx in run.missing(run.classes[RED]) if pass_1[idx] is not None],
               "tail-ending edge {} has no red vertex after pass 1"),
              (run.inside(RED), "edge {} is monochromatic red after pass 1"))

    run.sweep(range(hn.n), pass_2, GREEN)

    # Covers all-blue head-ending edges as well as mono red/green.
    run.audit((run.inside_any(), "edge {} is monochromatic at termination"))

    coloring = _finish(hg, run, spec.palette, checked)
    return coloring, trace


class HeadStar(Value):
    """Shape of the set of edges headed by one vertex."""

    _fields = ("kind", "vertices")
    kind: str  # empty | pivot | triangle
    vertices: tuple[str, ...]  # () | (pivot,) | (v, w, z)

    def __init__(self, kind: str, vertices: tuple[str, ...]) -> None:
        _setattr(self, "kind", kind)
        _setattr(self, "vertices", vertices)


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
    kind, star, _ = _classify_star(hg, hg.positions[u])
    return HeadStar(kind, tuple(hg.vertices[p] for p in star))


def _classify_star(hg: DirectedHypergraph, u: int) -> tuple[str, tuple[int, ...], int | None]:
    """classify_head_star on positions: the kind, the positions it names, and
    the pivot of the full star that augment_i0 completes it to.  That pivot
    is the star's own, or for an empty star the first position but u; it is
    None for a triangle, and for an empty star on fewer than three vertices,
    which both stay as they are."""
    index = hg.index
    ks = index.heads_at[u]
    if not ks:
        return "empty", (), int(u == 0) if hg.n >= 3 else None
    common, support = ~(1 << u), 0
    for k in ks:
        common &= index.masks[k]
        support |= index.masks[k]
    if common:
        pivot = (common & -common).bit_length() - 1
        return "pivot", (pivot,), pivot
    support ^= 1 << u
    if len(ks) == 3 and support.bit_count() == 3:
        # The three tails of a triangle are its support less one vertex each.
        triangle = _mask_row(support)
        if {index.tail_masks[k] for k in ks} == {support ^ 1 << p for p in triangle}:
            return "triangle", tuple(triangle), None
    raise InvariantViolationError([f"head-star of {hg.vertices[u]} is neither empty, pivoted, "
                                   "nor a triangle; input not i0-free"])


def augment_i0(hg: DirectedHypergraph, checked: bool = True) -> DirectedHypergraph:
    """Add edges so that every vertex's head-star becomes a triangle or a full
    pivot star, preserving i0-freeness.

    An empty star is filled around the smallest-index vertex other than u; a
    pivoted star is completed to every edge with head u through its pivot.
    The input's edges are kept, so any proper coloring of the result is proper
    for the input.  The result is built from position rows, the input's
    followed by the added edges', so augmenting builds no ``DirectedEdge``,
    checked or not.
    """
    if checked:
        _require_hypothesis(hg, ALGORITHMS["i0-4"])
        masks = hg.index.masks
        if len(set(masks)) != len(masks):
            raise PreconditionError("two edges share a vertex set")
    index, n = hg.index, hg.n
    head_rows, tail_rows = list(index.head_rows), list(index.tail_rows)
    for u, ks in enumerate(index.heads_at):
        pivot = _classify_star(hg, u)[2]
        if pivot is None:
            continue
        existing = {index.tail_masks[k] for k in ks}
        for w in range(n):
            if w != u and w != pivot and (1 << pivot | 1 << w) not in existing:
                head_rows.append((u,))
                tail_rows.append((pivot, w))
    return DirectedHypergraph._of(hg.vertices, head_rows, tail_rows)


def _full_star_issues(hg: DirectedHypergraph) -> list[str]:
    issues = []
    n, tail_masks = hg.n, hg.index.tail_masks
    for u, ks in enumerate(hg.index.heads_at):
        try:
            kind, _, pivot = _classify_star(hg, u)
        except InvariantViolationError as exc:
            issues.extend(exc.violations)
            continue
        if pivot is None:
            continue
        want = {1 << pivot | 1 << w for w in range(n) if w != u and w != pivot}
        if kind == "empty":
            issues.append(f"head-star of {hg.vertices[u]} still empty after augmentation")
        elif {tail_masks[k] for k in ks} != want:
            issues.append(f"head-star of {hg.vertices[u]} is neither a triangle nor a full pivot star")
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
    if not hn.index.head_rows:
        for v in hn.vertices:
            trace.add(v, "kept")
        return _finish(hg, _Run(hn, trace), spec.palette, checked), trace

    try:
        ha = augment_i0(hn, checked=False)
    except InvariantViolationError as exc:
        # Only reachable on inputs that break the i0-free hypothesis, which
        # checked mode has already ruled out; keep going without augmentation
        # (a checked run would raise these violations from _finish).
        trace.violations.extend(exc.violations)
        ha = hn
    # An I0 pair meets only at the head of both edges, so it lies in one
    # head-star, and any two edges of a triangle or of a full pivot star share
    # two vertices: the i0-free audit can fail only when some star is neither.
    issues = _full_star_issues(ha)
    if issues and not check_condition(ha, "i0-free").avoided:
        trace.violate("augmentation broke i0-freeness")
    for issue in issues:
        trace.violate(issue)

    masks = ha.index.masks
    heads = _head_positions(ha)
    # The count of an edge's vertices below its head: 0 lowest (E1), 1 middle
    # (E2), 2 highest (E3); an edge with more than two tails (unchecked runs
    # only) ranks a head past its third vertex 2, and a headless one -1, in
    # no step.
    rank_of = [-1 if head is None else min((mask & ((1 << head) - 1)).bit_count(), 2)
               for head, mask in zip(heads, masks)]

    def step_keys(rank: int) -> list[int | None]:
        return [head if r == rank else None for head, r in zip(heads, rank_of)]

    run = _Run(ha, trace)
    run.sweep(range(ha.n), step_keys(2), RED)

    run.audit(([idx for idx in run.inside(BLUE) if rank_of[idx] == 2],
               "E3 edge {} still all blue after step 1"),
              (run.inside(RED), "edge {} monochromatic red after step 1"))

    run.sweep(reversed(range(ha.n)), step_keys(0), GREEN, gate=GREEN)

    run.audit(([idx for idx in run.missing(run.classes[GREEN]) if rank_of[idx] == 0],
               "E1 edge {} has no green vertex after step 2"),
              ([idx for idx in run.inside(BLUE) if rank_of[idx] in (0, 2)],
               "E1/E3 edge {} still all blue after step 2"),
              (run.inside(GREEN), "edge {} monochromatic green after step 2"),
              (run.inside(RED), "edge {} monochromatic red after step 2"))

    run.sweep(range(ha.n), step_keys(1), YELLOW)

    run.audit((run.inside_any(), "edge {} monochromatic at termination"))

    coloring = _finish(hg, run, spec.palette, checked)
    return coloring, trace


def color_i0_r4_2(hg: DirectedHypergraph, checked: bool = True) -> tuple[Coloring, RunTrace]:
    """Proper 2-coloring for 2->1 hypergraphs whose one-vertex intersections
    are tails on both sides: one ascending pass that reds every vertex heading
    a still-all-blue edge."""
    spec, hn, trace = _start(hg, "i0r4-2", checked)
    run = _Run(hn, trace)
    run.sweep(range(hn.n), _head_positions(hn), RED)

    run.audit((run.missing(run.classes[RED]), "edge {} ended with no red vertex"),
              (run.inside_any(), "edge {} monochromatic at termination"))

    coloring = _finish(hg, run, spec.palette, checked)
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
