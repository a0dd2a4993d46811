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
vertex positions, from ``hg.index``, and a pair's code is read from those
masks alone; the pattern of a pair and its verdict under each condition
are table lookups on its code.  Pairs with no shared vertex are never
examined: they match no pattern and satisfy every condition.  Candidate
pairs are found through shared keys: each edge is filed under each of its
keys, with the role it gives the key (tail, or head), and edges are paired
up only inside a key's lists, in the role combinations the requested codes
need.

Vertex keys.  Every code guarantees a role class at some shared vertex:
head of both edges (I0, I1), tail of both (H1, H2), or head of one and tail
of the other (R4, R3, E).  The index keeps each position's head-incidence
list (edges it heads) and tail-incidence list, each built on first use.
The checks for I0, H1 and R4 (and so ``onehead-h1``, ``i0-free``,
``r4-free``, ``i0r4-free`` and ``lovasz``) need one shared vertex; for each
edge they cross its keys with only the lists the requested classes need
(head x head for I0, tail x tail for H1, head x tail both ways for R4), so a
check costs the sum over vertices of the products of those list sizes
rather than m^2.  A later edge in a list whose mask meets the edge's in
that key alone shares exactly that vertex, in the roles the crossing names,
so the crossing gives the pair's code and its row: no kernel call, and no
deduplication of pairs met under several keys, which fail that test under
each.

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
meet no candidate where a walk over vertex keys would meet 6,383 pairs
each, and ``tails-only-2-intersect`` meets 15 where it would meet 14,185.
Which keys a check walks follows from its codes alone.

The pair walk hands each edge's whole partner list to the kernel,
``matching_partners``, in one call, which yields only the matching
partners, so no pair costs a function call.

Witnesses.  A check stores its witness pairs as three columns, edge i, edge
j and the shared-vertex row (``PatternReport.columns``), and turns them
into named-tuple records (``IntersectionProfile``) only when
``PatternReport.witnesses`` is read; the CLI prints from the columns.  The
vertex walk extends the columns a key list at a time.  Each distinct
shared-vertex row is built once and shared by every witness that has it.
Witnesses come out in ascending (i, j) order.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Sequence

from .core import (DirectedEdge, DirectedHypergraph, HypergraphIndex, Value, _mask_row,
                   _row_masks, _setattr, file_under_keys, is_two_to_one)

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


# The columns of a report with no witnesses, shared by every such report.
_NO_WITNESSES: tuple = ((), (), ())


class PatternReport(Value):
    """Outcome of a pattern or condition check; avoided iff no witnesses.

    The witness pairs are kept as three columns, ``columns = (i, j, common)``:
    three lists holding edge i, edge j and the shared-vertex row of each
    witness (equal rows are one object), or one set of empty columns shared
    by every report without witnesses.  ``witnesses`` turns the columns into
    IntersectionProfile records on first read and keeps them.  A report is
    immutable, and it equals, hashes, prints and pickles as the report built
    by ``PatternReport(pattern, avoided, witnesses)`` from its own witnesses.
    """

    # the fields of its repr; == and hash read the columns instead
    _fields = ("pattern", "avoided", "witnesses")
    pattern: str
    avoided: bool
    columns: tuple[Sequence[int], Sequence[int], Sequence[tuple[tuple[str, str, str], ...]]]
    # Candidate pairs the check examined: those the pair walk handed to the
    # kernel, or those the vertex walk's mask test saw, where a pair met
    # under two keys counts twice.  A measure of its cost, not of its
    # outcome, so it takes no part in equality, hash or repr.
    pairs_examined: int

    def __init__(self, pattern: str, avoided: bool,
                 witnesses: Sequence[tuple[int, int, tuple]], pairs_examined: int = 0) -> None:
        if avoided != (not witnesses):
            raise ValueError("avoided flag inconsistent with witness list")
        self._fill(pattern, tuple(map(list, zip(*witnesses))) if witnesses else _NO_WITNESSES,
                   pairs_examined)

    @classmethod
    def _of(cls, pattern: str, columns: tuple, pairs_examined: int) -> PatternReport:
        """The report of a check, over the columns its walk filled."""
        report = cls.__new__(cls)
        report._fill(pattern, columns, pairs_examined)
        return report

    def _fill(self, pattern: str, columns: tuple, pairs_examined: int) -> None:
        # past the frozen __setattr__, one attribute at a time: an instance
        # whose __dict__ is never read keeps its attributes without building
        # one, which keeps the many empty reports of small inputs small
        _setattr(self, "pattern", pattern)
        _setattr(self, "avoided", not columns[0])
        _setattr(self, "columns", columns)
        _setattr(self, "pairs_examined", pairs_examined)

    @cached_property
    def witnesses(self) -> tuple[IntersectionProfile, ...]:
        return tuple(map(IntersectionProfile._make, zip(*self.columns)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.pattern, self.avoided, self.columns)
                == (other.pattern, other.avoided, other.columns))

    def __hash__(self) -> int:
        return hash((self.pattern, self.avoided, tuple(zip(*self.columns))))


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
    shared vertex, or three or more) never matches.  This classifies the
    two-vertex pairs and arbitrary ones (``pair_code``, the generator's
    accept tests); a one-vertex check reads its pairs' codes off the key
    lists that found them instead.  A caller makes one call per edge over
    its whole partner list, so no pair costs a function call, and a caller
    that needs only the first match stops there.
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


def _crossings(keys: HypergraphIndex | _PairKeys,
               roles: int) -> list[tuple]:
    """(the keys each edge holds in one role, the lists it scans there, that
    role and the role the lists give their edges) for each crossing the
    classes in `roles` need: head rows x head lists, tail rows x tail lists,
    and for head/tail pairs the two crossings over.  With ALL_ROLES the four
    crossings meet every pair sharing a key."""
    # only the lists some class scans are read, and so built
    heads = keys.heads_at if roles & (HEAD_HEAD | HEAD_TAIL) else None
    tails = keys.tails_at if roles & (TAIL_TAIL | HEAD_TAIL) else None
    return [(rows, lists, role_i, role_j) for role, rows, lists, role_i, role_j in (
        (HEAD_HEAD, keys.head_rows, heads, "head", "head"),
        (TAIL_TAIL, keys.tail_rows, tails, "tail", "tail"),
        (HEAD_TAIL, keys.head_rows, tails, "head", "tail"),
        (HEAD_TAIL, keys.tail_rows, heads, "tail", "head")) if roles & role]


def _partners(keys: HypergraphIndex | _PairKeys,
              roles: int) -> Iterator[tuple[int, list[int]]]:
    """(i, [j > i sharing a key with edge i in a class of `roles`, ascending])
    for every edge i, given ``keys``: the keys each edge holds as a head and
    as a tail (``head_rows``, ``tail_rows``), and the lists at each key.

    Each key keeps the list of edges holding it as a head and the list of
    edges holding it as a tail, and a pair is found only through the lists
    its role classes need (``_crossings``).  Walking the lists in order gives
    each pair i < j once, in ascending (i, j) order, however many keys it
    shares.
    """
    crossings = _crossings(keys, roles)
    for i in range(len(keys.head_rows)):
        later: list[int] = []
        for rows, lists, _, _ in crossings:
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


def _witnesses(hg: DirectedHypergraph, codes: int) -> tuple[tuple, int]:
    """The columns (i, j, common) of the vertex-sharing pairs whose code is
    in the codes mask, in ascending (i, j) order, and the number of
    candidate pairs the check examined.

    When every code in the mask needs two shared vertices the candidates come
    from the walk over vertex-pair keys and go to the kernel; otherwise the
    mask holds one-vertex codes only, and the vertex walk names each pair's
    code itself.
    """
    index = hg.index
    pair_roles = pair_roles_of(codes)
    if not pair_roles:
        return _one_vertex_witnesses(index, hg.vertices, roles_of(codes))
    heads = tails = ()  # the edge masks, read at the first candidate
    names = hg.vertices
    # Witnesses often repeat one shared vertex set with the same roles, so
    # their rows are built once and shared.
    rows_of: dict[tuple[int, int, int], tuple[tuple[str, str, str], ...]] = {}
    I: list[int] = []
    J: list[int] = []
    R: list[tuple[tuple[str, str, str], ...]] = []
    examined = 0
    for i, later in _partners(_PairKeys(index), pair_roles):
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
            I.append(i)
            J.append(j)
            R.append(rows)
    return (I, J, R) if I else _NO_WITNESSES, examined


def _one_vertex_witnesses(index: HypergraphIndex, names: tuple[str, ...],
                          roles: int) -> tuple[tuple, int]:
    """``_witnesses`` for a mask of one-vertex codes, which need the role
    classes in ``roles``: the pairs sharing exactly one vertex in one of
    those classes, and the number of candidates the mask test saw.

    Each class is walked through its crossings (``_crossings``): head rows x
    ``heads_at`` (I0), tail rows x ``tails_at`` (H1), head rows x
    ``tails_at`` and tail rows x ``heads_at`` (R4).  A later edge j at key p
    whose mask meets edge i's in bit p alone shares exactly p, in the roles
    the crossing gives it, so the crossing names the pair's code and its
    row, and no kernel call is needed.  A pair sharing two or more vertices
    fails the mask test under each of its keys (and counts as a candidate
    under each); a pair sharing one vertex passes under that key only, so
    sorting each edge's hits by j gives ascending (i, j) order with no
    deduplication.  The hits of a key go onto the j and row columns as a
    whole list, and each edge's count onto the i column at once.
    """
    masks = index.masks
    # each crossing's rows by key, built at the key's first hit
    crossings = [(*crossing, {}) for crossing in _crossings(index, roles)]
    I: list[int] = []
    J: list[int] = []
    R: list[tuple[tuple[str, str, str], ...]] = []
    examined = 0
    for i, mask in enumerate(masks):
        start = len(J)
        merge = False  # hits from a second key interleave with the first's
        for keys, lists, role_i, role_j, rows_at in crossings:
            for p in keys[i]:
                edges = lists[p]
                if edges and edges[-1] > i:  # most keys of a sparse input end at i or before
                    later = edges[bisect_right(edges, i):]
                    examined += len(later)
                    bit = 1 << p
                    found = [j for j in later if masks[j] & mask == bit]
                    if found:
                        row = rows_at.get(p)
                        if row is None:
                            row = rows_at[p] = ((names[p], role_i, role_j),)
                        if len(J) > start:
                            merge = True
                        J += found
                        R += [row] * len(found)
        count = len(J) - start
        if count:
            if merge:
                # one i, and each j is met once, so rows are never compared
                J[start:], R[start:] = zip(*sorted(zip(J[start:], R[start:])))
            I += [i] * count
    return (I, J, R) if I else _NO_WITNESSES, examined


def classify_intersection(hg: DirectedHypergraph, i: int, j: int) -> IntersectionProfile:
    """Exact intersection of edges i < j, listed in vertex-sequence order."""
    heads, masks = hg.index.head_masks, hg.index.masks
    if not 0 <= i < j < len(masks):
        raise IndexError(f"edge pair ({i}, {j}) out of range")
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
    return PatternReport._of(pattern, *_witnesses(hg, _PATTERN_CODES[pattern]))


def check_condition(hg: DirectedHypergraph, cond: str) -> PatternReport:
    """Check an intersection condition over all edge pairs of a general hypergraph.

    avoided is True iff every relevant pair satisfies the condition; witnesses
    enumerate the violating pairs.
    """
    if cond not in CONDITION_IDS:
        raise ValueError(f"unknown condition {cond!r}; expected one of {CONDITION_IDS}")
    return PatternReport._of(cond, *_witnesses(hg, VIOLATING_CODES[cond]))
