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
vertex positions, from ``hg.index``; the pattern of a pair and its verdict
under each condition are table lookups on its intersection code.  Pairs
with no shared vertex are never examined: they match no pattern and satisfy
every condition.  One walk (``_witnesses``) serves every check.

Keys.  Each condition constrains pairs sharing exactly one vertex (I0, H1,
R4: ``onehead-h1``, ``i0-free``, ``r4-free``, ``i0r4-free``, ``lovasz``) or
exactly two (H2, I1, R3, E: ``h2-two-intersect``,
``tails-only-2-intersect``).  A check asking for one-vertex codes keys the
edges by vertex position, as a head or as a tail, from the index's
head-incidence and tail-incidence lists.  A check asking only for
two-vertex codes keys them by vertex pair instead, each edge under each of
its C(|e|, 2) pairs: as a tail pair (both vertices tails) or a headed pair
(it holds a head).  Which keys a check walks follows from its codes alone.
The pair keys are one view of the index (``hg.index.pairs``, a
``core.PairKeys``), built on a hypergraph's first two-vertex check and read
by every later one, whose per-key lists are built on first need and kept.
As it files the keys, the view computes ``meets``, the classes in which two
edges hold one key, by three set operations over the flattened key rows: a
headed pair repeats, a tail pair repeats, or the headed and tail pairs
intersect.  That costs at most Σ C(|e|, 2) set inserts, once per
hypergraph.  A check walks only its classes that ``meets`` holds; when
none is left it returns no witnesses and ``pairs_examined == 0``, as the
walk would, and builds no key list.

Crossings.  Every code guarantees one role class at its shared key: head
of both edges (I0; I1 and E at a pair), tail of both (H1; H2), or head of
one and tail of the other (R4; R3).  For each edge the walk crosses its
keys with only the lists its classes need (head x head, tail x tail, and
head x tail both ways), so a check costs the sum over keys of the products
of those list sizes rather than m^2.

The exact-share test.  A later edge j in a key's list is a hit only when
its mask meets edge i's in exactly that key's own mask (one bit, or the
pair's two).  So a pair is met once, under the key that is its whole
intersection, with no deduplication: a pair sharing more fails the test
under each of its keys.  The crossing that met it names its code and its
row, with no classifying call: at a vertex, head x head is I0, tail x tail
H1 and the two crossed roles R4; at a pair, tail x tail is H2 (the code
``tails-only-2-intersect`` forbids when either tail is wider than the pair),
the crossed roles R3, and head x head I1 when the pair holds a head of both
edges and E otherwise.  On a 2->1 input with n = 200 and m = 800 avoiding
R3 and E, the R3 and E checks meet no candidate where a walk over vertex
keys would meet 6,383 pairs each; their classes meet no shared key, so
neither builds a key list.  ``matching_partners`` classifies
arbitrary pairs, for ``pair_code`` and the generator's accept tests.

Witnesses.  A check stores its witness pairs as three columns, edge i, edge
j and the shared-vertex row (``PatternReport.columns``), and turns them
into named-tuple records (``IntersectionProfile``) only when
``PatternReport.witnesses`` is read; the CLI prints from the columns.  A
one-vertex check extends the columns a key list at a time.  Each distinct
shared-vertex row is built once and shared by every witness that has it.
Hits from two keys of one edge are merged by j, so witnesses come out in
ascending (i, j) order.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

from .core import (HEAD_HEAD, HEAD_TAIL, TAIL_TAIL, DirectedEdge, DirectedHypergraph,
                   HypergraphIndex, PairKeys, Value, _mask_row, _row_masks, _setattr,
                   is_two_to_one)

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
    # Candidates the check's exact-share test saw: a pair once under each
    # key it shares in a role class the check needs, so a pair met under two
    # keys counts twice.  A measure of its cost, not of its outcome, so it
    # takes no part in equality, hash or repr.
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
# role class (``core.HEAD_HEAD`` and its siblings) it guarantees at some
# shared vertex (this holds for general edges, not only 2->1 ones), and for a
# two-vertex code the class it guarantees at the shared pair (0 for
# one-vertex codes).  Each condition constrains only one- or two-vertex
# intersections, so pairs sharing no vertex or three or more are code 0 and
# pass everything.
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
                      tails: Sequence[int], codes: int) -> Iterator[tuple[int, int]]:
    """(j, code) for each j in partners whose pair with the edge (h1, t1)
    has an intersection code in the codes mask, in partner order.

    heads[j] and tails[j] are edge j's head and tail bitmasks.  Code 0 (no
    shared vertex, or three or more) never matches.  This classifies
    arbitrary pairs, for ``pair_code`` and the generator's accept tests;
    the checks name their pairs' codes from the keys that found them
    (``_witnesses``).  A caller makes one call per edge over its whole
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
            yield j, code


_ANY_CODE = (1 << len(_CODE_TABLE)) - 2  # every code but 0


def pair_code(h1: int, t1: int, h2: int, t2: int) -> int:
    """Intersection code of two edges given as head/tail vertex bitmasks."""
    for _, code in matching_partners(h1, t1, (0,), (h2,), (t2,), _ANY_CODE):
        return code
    return 0


def _crossings(keys: HypergraphIndex | PairKeys,
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


def _rows(names: tuple[str, ...], common: int,
          h1: int, h2: int) -> tuple[tuple[str, str, str], ...]:
    """(vertex, role in edge 1, role in edge 2) for each vertex in the common mask."""
    return tuple((names[p], "head" if h1 >> p & 1 else "tail", "head" if h2 >> p & 1 else "tail")
                 for p in _mask_row(common))


def _witnesses(hg: DirectedHypergraph, codes: int) -> tuple[tuple, int]:
    """The columns (i, j, common) of the vertex-sharing pairs whose code is
    in the codes mask, in ascending (i, j) order, and the number of
    candidates the exact-share test saw.

    The keys are vertex positions when the mask holds a one-vertex code,
    and vertex pairs (``hg.index.pairs``) otherwise; there the walk keeps
    only the classes in which two edges hold one key (``PairKeys.meets``),
    and returns at once when none is left.  Each edge i crosses its keys with
    the lists the remaining role classes need (``_crossings``); a later
    edge j at a key is a hit only when ``masks[i] & masks[j]`` is that key's
    own mask, and the crossing names the hit's code (see the module
    docstring).
    """
    index = hg.index
    vertex_keys = codes & _ONE_VERTEX_CODES
    if vertex_keys:
        keys, roles = index, roles_of(codes)
    else:
        keys = index.pairs
        roles = pair_roles_of(codes) & keys.meets
        if not roles:
            return _NO_WITNESSES, 0
    # Witnesses often repeat one shared vertex set with the same roles, so
    # each crossing builds a row once and shares it.
    crossings = [(*crossing, {}) for crossing in _crossings(keys, roles)]
    n, names = index.n, hg.vertices
    masks, heads, tails = index.masks, index.head_masks, index.tail_masks
    I: list[int] = []
    J: list[int] = []
    R: list[tuple[tuple[str, str, str], ...]] = []
    examined = 0
    for i, mask in enumerate(masks):
        start = len(J)
        merge = False  # hits from a second key interleave with the first's
        for rows, lists, role_i, role_j, rows_at in crossings:
            for key in rows[i]:
                edges = lists[key]
                if edges and edges[-1] > i:  # most keys of a sparse input end at i or before
                    later = edges[bisect_right(edges, i):]
                    examined += len(later)
                    bits = 1 << key if vertex_keys else 1 << key // n | 1 << key % n
                    found = [j for j in later if masks[j] & mask == bits]
                    if not found:
                        continue
                    merge |= len(J) > start
                    if vertex_keys:  # the crossing is one code in the mask, and one row
                        row = rows_at.get(key)
                        if row is None:
                            row = rows_at[key] = ((names[key], role_i, role_j),)
                        J += found
                        R += [row] * len(found)
                        continue
                    # at a pair, the crossing is R3, or leaves H2's exact and
                    # wide codes, or I1 and E, to the edges' masks
                    h1, t1 = heads[i], tails[i]
                    for j in found:
                        h2 = heads[j]
                        if role_i != role_j:
                            code = _R3
                        elif role_i == "tail":
                            code = _H2 if t1 == bits == tails[j] else _H2_WIDE
                        else:
                            code = _I1 if h1 & h2 & bits else _E
                        if codes >> code & 1:
                            at = (key, h1 & bits, h2 & bits)
                            row = rows_at.get(at)
                            if row is None:
                                row = rows_at[at] = _rows(names, bits, h1, h2)
                            J.append(j)
                            R.append(row)
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
        raise IndexError(f"edge pair ({i}, {j}) needs 0 <= i < j < {len(masks)}")
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
