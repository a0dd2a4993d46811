"""Pairwise edge-intersection analysis and two-edge pattern detection.

The seven named patterns are the two-edge 2->1 hypergraphs classified by how
the edges intersect and which roles the shared vertices play:

    H2  ab>c, ab>d   two common vertices, tails of both edges
    I1  ab>c, ad>c   two common, one tail of both and one head of both
    R3  ab>c, bc>d   two common, tails of one edge, head+tail of the other
    E   ab>c, dc>b   two common, each the head of one edge and tail of the other
    I0  ab>e, cd>e   one common vertex, head of both
    H1  ab>c, ad>e   one common, tail of both
    R4  ab>c, cd>e   one common, head of one and tail of the other

Because every pattern has exactly two edges, containment reduces to
classifying each edge pair; no general subhypergraph isomorphism is needed.

Cost model.  Each edge is held as a head bitmask and a tail bitmask over
vertex positions, from ``hg.index``, and ``matching_partners`` classifies
pairs from those masks alone; the pattern of a pair and its verdict under
each condition are table lookups on its code.  Pairs with no shared vertex
are never examined: they match no pattern and satisfy every condition.
Candidate pairs are found through shared keys: each edge is filed under
each of its keys, with the role it gives the key (tail, or head), and edges
are paired up only inside a key's lists, in the role combinations the
requested codes need.

Vertex keys.  Every code guarantees a role class at some shared vertex:
head of both edges (I0, I1), tail of both (H1, H2), or head of one and tail
of the other (R4, R3, E).  The index keeps each position's head-incidence
list (edges it heads) and tail-incidence list, each built on first use, and
the partner walk pairs up only the lists the requested classes need, so a
check costs the sum over vertices of the products of those list sizes (head
x head for I0 or i0-free, head x tail for R4 or r4-free, and the squared
degree when every class is needed) rather than m^2.

Pair keys.  H2, I1, R3 and E (and so ``h2-two-intersect`` and
``tails-only-2-intersect``) need exactly two shared vertices.  A check
asking only for such codes files each edge under each of its C(|e|, 2)
vertex pairs instead (from the index's positions), as a tail pair (both
vertices tails) or a headed pair (it holds a head), and the codes again
guarantee a class at the shared pair: tail pair of both edges (H2), tail
pair of one and headed pair of the other (R3), headed pair of both (I1,
E).  Such a check costs the sum of C(|e|, 2) over the edges to file the
keys plus the candidate pairs met in the lists it needs: at most the pairs
sharing two or more vertices, rather than every vertex-sharing pair.  On a
2->1 input with n = 200 and m = 800 avoiding R3 and E, the R3 and E checks
meet no candidate where the vertex walk hands each 6,383 pairs to the
kernel, and ``tails-only-2-intersect`` meets 15 where it would hand 14,185.
Which keys a check walks follows from its codes alone.

Each edge's whole partner list goes to the kernel in one call, which yields
only the matching partners, so no pair costs a function call.  A witness is
a named tuple, and each distinct shared-vertex row is built once and shared
by every witness that has it.  Witnesses come out in ascending (i, j) order.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Sequence

from .core import (DirectedEdge, DirectedHypergraph, HypergraphIndex, _mask_row, _row_masks,
                   file_under_keys, is_two_to_one)

PATTERN_IDS = ("H2", "I1", "R3", "E", "I0", "H1", "R4")

# Abstract (tails, head) templates over placeholder vertices.  Tests use these
# to drive an independent injective-map containment oracle.
PATTERN_EDGES: dict[str, tuple[tuple[tuple[str, str], str], tuple[tuple[str, str], str]]] = {
    "H2": ((("a", "b"), "c"), (("a", "b"), "d")),
    "I1": ((("a", "b"), "c"), (("a", "d"), "c")),
    "R3": ((("a", "b"), "c"), (("b", "c"), "d")),
    "E": ((("a", "b"), "c"), (("d", "c"), "b")),
    "I0": ((("a", "b"), "e"), (("c", "d"), "e")),
    "H1": ((("a", "b"), "c"), (("a", "d"), "e")),
    "R4": ((("a", "b"), "c"), (("c", "d"), "e")),
}

CONDITION_IDS = (
    "onehead-h1",
    "i0-free",
    "r4-free",
    "i0r4-free",
    "lovasz",
    "h2-two-intersect",
    "tails-only-2-intersect",
)


class IntersectionProfile(NamedTuple):
    """Shared vertices of the edge pair (i, j) with their role in each edge.

    A named tuple: it unpacks as ``i, j, common`` and equals ``(i, j, common)``.
    """

    i: int
    j: int
    common: tuple[tuple[str, str, str], ...]  # (vertex, role in edge i, role in edge j)


@dataclass(frozen=True)
class PatternReport:
    """Outcome of a pattern or condition check; avoided iff no witnesses."""

    pattern: str
    avoided: bool
    witnesses: tuple[IntersectionProfile, ...]
    # Candidate pairs the check handed to the pair kernel; a measure of its
    # cost, not of its outcome, so it takes no part in equality or repr.
    pairs_examined: int = field(default=0, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.avoided != (not self.witnesses):
            raise ValueError("avoided flag inconsistent with witness list")


# Intersection codes of matching_partners and pair_code, one row each: the
# pattern the pair realizes (for 2->1 edges), the conditions it violates, the
# role class it guarantees at some shared vertex (a head of both edges, a
# tail of both, or a head of one and a tail of the other; this holds for
# general edges, not only 2->1 ones), and for a two-vertex code the class it
# guarantees at the shared pair, read with a pair of two tails as a tail and
# a pair holding a head as a head (0 for one-vertex codes).  Each condition
# constrains only one- or two-vertex intersections, so pairs sharing no
# vertex or three or more are code 0 and pass everything.
HEAD_HEAD, TAIL_TAIL, HEAD_TAIL = 1, 2, 4
ALL_ROLES = HEAD_HEAD | TAIL_TAIL | HEAD_TAIL
_CODE_TABLE: tuple[tuple[str | None, tuple[str, ...], int, int], ...] = (
    (None, (), 0, 0),                                              # 0 shared vertices, or >= 3
    ("I0", ("i0-free", "i0r4-free", "lovasz"), HEAD_HEAD, 0),      # 1: head of both
    ("H1", ("onehead-h1", "lovasz"), TAIL_TAIL, 0),                # 1: tail of both
    ("R4", ("r4-free", "i0r4-free", "lovasz"), HEAD_TAIL, 0),      # 1: head of one, tail of other
    ("H2", ("h2-two-intersect",), TAIL_TAIL, TAIL_TAIL),           # 2: both tails exactly the pair
    ("H2", ("h2-two-intersect", "tails-only-2-intersect"), TAIL_TAIL, TAIL_TAIL),  # 2: in both tails, a tail is wider
    ("R3", ("tails-only-2-intersect",), HEAD_TAIL, HEAD_TAIL),     # 2: in one tail, not the other
    ("I1", ("tails-only-2-intersect",), HEAD_HEAD, HEAD_HEAD),     # 2: neither tail, a common head
    ("E", ("tails-only-2-intersect",), HEAD_TAIL, HEAD_HEAD),      # 2: neither tail, no common head
)
_I0, _H1, _R4, _H2, _H2_WIDE, _R3, _I1, _E = range(1, len(_CODE_TABLE))
_ONE_VERTEX_CODES = 1 << _I0 | 1 << _H1 | 1 << _R4
_PATTERN_OF = tuple(row[0] for row in _CODE_TABLE)
# Bit c of a mask is set iff code c matches the pattern / violates the condition.
_PATTERN_CODES = {
    p: sum(1 << c for c, row in enumerate(_CODE_TABLE) if row[0] == p) for p in PATTERN_IDS
}
VIOLATING_CODES = {
    cond: sum(1 << c for c, row in enumerate(_CODE_TABLE) if cond in row[1])
    for cond in CONDITION_IDS
}


def roles_of(codes: int) -> int:
    """Role classes a pair needs at some shared vertex to have a code in the mask."""
    return _column_union(codes, 2)


def pair_roles_of(codes: int) -> int:
    """Role classes a pair needs at its shared vertex pair to have a code in
    the mask, or 0 when a code in the mask shares a single vertex."""
    if codes & _ONE_VERTEX_CODES:
        return 0
    return _column_union(codes, 3)


def _column_union(codes: int, column: int) -> int:
    roles = 0
    for c, row in enumerate(_CODE_TABLE):
        if codes >> c & 1:
            roles |= row[column]
    return roles


def matching_partners(h1: int, t1: int, partners: Iterable[int], heads: Sequence[int],
                      tails: Sequence[int], codes: int) -> Iterator[tuple[int, int, int]]:
    """(j, code, common mask) for each j in partners whose pair with the edge
    (h1, t1) has an intersection code in the codes mask, in partner order.

    heads[j] and tails[j] are edge j's head and tail bitmasks.  Code 0 (no
    shared vertex, or three or more) never matches.  This is the one place
    pairs are classified: a check makes one call per edge over its whole
    partner list, so no pair costs a function call, and a caller that needs
    only the first match stops there.
    """
    v1 = h1 | t1
    for j in partners:
        h2 = heads[j]
        t2 = tails[j]
        common = v1 & (h2 | t2)
        size = common.bit_count()
        if size == 1:
            if common & h1:
                code = _I0 if common & h2 else _R4
            else:
                code = _R4 if common & h2 else _H1
        elif size == 2:
            in_t1 = common & t1 == common
            in_t2 = common & t2 == common
            if in_t1 and in_t2:
                code = _H2 if t1 == common == t2 else _H2_WIDE
            elif in_t1 or in_t2:
                code = _R3
            else:
                code = _I1 if h1 & h2 & common else _E
        else:
            continue
        if codes >> code & 1:
            yield j, code, common


_ANY_CODE = (1 << len(_CODE_TABLE)) - 2  # every code but 0


def pair_code(h1: int, t1: int, h2: int, t2: int) -> int:
    """Intersection code of two edges given as head/tail vertex bitmasks."""
    for _, code, _ in matching_partners(h1, t1, (0,), (h2,), (t2,), _ANY_CODE):
        return code
    return 0


class _PairKeys:
    """Every edge's vertex pairs as keys p * n + q (positions p < q), laid
    out as in HypergraphIndex: each pair of its tails as a tail, each pair
    holding a head as a head.  The lists at the keys are built when read."""

    def __init__(self, index: HypergraphIndex) -> None:
        n = index.n
        self.head_rows: list[list[int]] = []
        self.tail_rows: list[list[int]] = []
        for hs, ts in zip(index.head_rows, index.tail_rows):
            self.tail_rows.append([p * n + q for p, q in combinations(sorted(ts), 2)])
            row = [p * n + q for p, q in combinations(sorted(hs), 2)] if len(hs) > 1 else []
            for h in hs:
                for t in ts:
                    row.append(h * n + t if h < t else t * n + h)
            self.head_rows.append(row)

    heads_at = property(lambda self: file_under_keys(self.head_rows, defaultdict(list)))
    tails_at = property(lambda self: file_under_keys(self.tail_rows, defaultdict(list)))


def _partners(keys: HypergraphIndex | _PairKeys,
              roles: int) -> Iterator[tuple[int, list[int]]]:
    """(i, [j > i sharing a key with edge i in a class of `roles`, ascending])
    for every edge i, given ``keys``: the keys each edge holds as a head and
    as a tail (``head_rows``, ``tail_rows``), and the lists at each key.

    Each key keeps the list of edges holding it as a head and the list of
    edges holding it as a tail, and a pair is found only through the lists
    its role classes need: head/head pairs through the head lists, tail/tail
    pairs through the tail lists, head/tail pairs by crossing over.  With
    ALL_ROLES the four crossings meet every pair sharing a key.  Walking the
    lists in order gives each pair i < j once, in ascending (i, j) order,
    however many keys it shares.
    """
    head_rows, tail_rows = keys.head_rows, keys.tail_rows
    # only the lists some class scans are read, and so built
    heads = keys.heads_at if roles & (HEAD_HEAD | HEAD_TAIL) else None
    tails = keys.tails_at if roles & (TAIL_TAIL | HEAD_TAIL) else None
    # (the edge's own keys in one role, the lists it scans there)
    classes = ((HEAD_HEAD, head_rows, heads), (TAIL_TAIL, tail_rows, tails),
               (HEAD_TAIL, head_rows, tails), (HEAD_TAIL, tail_rows, heads))
    sides = [(rows, lists) for role, rows, lists in classes if roles & role]
    for i in range(len(head_rows)):
        later: list[int] = []
        for rows, lists in sides:
            for key in rows[i]:
                edges = lists[key]
                if edges and edges[-1] > i:  # most keys of a sparse input end at i or before
                    later += edges[bisect_right(edges, i):]
        yield i, sorted(set(later)) if later else later


def _rows(names: tuple[str, ...], common: int,
          h1: int, h2: int) -> tuple[tuple[str, str, str], ...]:
    """(vertex, role in edge 1, role in edge 2) for each vertex in the common mask."""
    return tuple((names[p], "head" if h1 >> p & 1 else "tail", "head" if h2 >> p & 1 else "tail")
                 for p in _mask_row(common))


def _witnesses(hg: DirectedHypergraph,
               codes: int) -> tuple[tuple[IntersectionProfile, ...], int]:
    """Profiles of the vertex-sharing pairs whose code is in the codes mask,
    and the number of candidate pairs handed to the kernel.

    When every code in the mask needs two shared vertices the candidates come
    from the walk over vertex-pair keys, otherwise from the walk over vertex
    keys.
    """
    index = hg.index
    pair_roles = pair_roles_of(codes)
    keys = _PairKeys(index) if pair_roles else index
    walk = _partners(keys, pair_roles or roles_of(codes))
    heads = tails = ()  # the edge masks, read at the first candidate
    names = hg.vertices
    # Witnesses often repeat one shared vertex set with the same roles, so
    # their rows are built once and shared.
    rows_of: dict[tuple[int, int, int], tuple[tuple[str, str, str], ...]] = {}
    out = []
    examined = 0
    new = tuple.__new__  # IntersectionProfile(i, j, rows) without the generated __new__'s frame
    for i, later in walk:
        if not later:  # most edges of a sparse input: skip the kernel call
            continue
        if not heads:  # a pair walk often meets no candidate, and needs no masks
            heads, tails = index.head_masks, index.tail_masks
        examined += len(later)
        h1 = heads[i]
        for j, _, common in matching_partners(h1, tails[i], later, heads, tails, codes):
            h2 = heads[j]
            key = (common, h1 & common, h2 & common)
            rows = rows_of.get(key)
            if rows is None:
                rows = rows_of[key] = _rows(names, common, h1, h2)
            out.append(new(IntersectionProfile, (i, j, rows)))
    return tuple(out), examined


def classify_intersection(hg: DirectedHypergraph, i: int, j: int) -> IntersectionProfile:
    """Exact intersection of edges i < j, listed in vertex-sequence order."""
    if not 0 <= i < j < len(hg.edges):
        raise IndexError(f"edge pair ({i}, {j}) out of range")
    heads, masks = hg.index.head_masks, hg.index.masks
    return IntersectionProfile(i, j, _rows(hg.vertices, masks[i] & masks[j], heads[i], heads[j]))


def classify_pair(e1: DirectedEdge, e2: DirectedEdge) -> str | None:
    """Which of the seven patterns a pair of 2->1 edges realizes, if any.

    Pairs intersecting in zero or three vertices match no pattern (all seven
    need four or five distinct vertices).
    """
    if not all(len(e.tail) == 2 and len(e.head) == 1 for e in (e1, e2)):
        raise ValueError("pattern classification is defined for 2->1 edges only")
    pos = {v: p for p, v in enumerate(e1.vertices | e2.vertices)}
    rows = ([pos[v] for v in side] for side in (e1.head, e1.tail, e2.head, e2.tail))
    return _PATTERN_OF[pair_code(*_row_masks(rows))]


def contains_pattern(hg: DirectedHypergraph, pattern: str) -> PatternReport:
    """Decide whether a 2->1 hypergraph contains the pattern as a subhypergraph.

    Witnesses list every matching edge pair, not just the first.
    """
    if pattern not in PATTERN_IDS:
        raise ValueError(f"unknown pattern {pattern!r}; expected one of {PATTERN_IDS}")
    if not is_two_to_one(hg):
        raise ValueError("pattern containment is defined for 2->1 hypergraphs only")
    witnesses, examined = _witnesses(hg, _PATTERN_CODES[pattern])
    return PatternReport(pattern, not witnesses, witnesses, examined)


def check_condition(hg: DirectedHypergraph, cond: str) -> PatternReport:
    """Check an intersection condition over all edge pairs of a general hypergraph.

    avoided is True iff every relevant pair satisfies the condition; witnesses
    enumerate the violating pairs.
    """
    if cond not in CONDITION_IDS:
        raise ValueError(f"unknown condition {cond!r}; expected one of {CONDITION_IDS}")
    witnesses, examined = _witnesses(hg, VIOLATING_CODES[cond])
    return PatternReport(cond, not witnesses, witnesses, examined)
