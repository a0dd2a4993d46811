"""Independent oracles the test suite checks the library against.

Everything here is deliberately naive: exhaustive injective maps for pattern
containment, full k^n enumeration for colorability, top-down recursion for
the edge bound, all-pairs scans restating the intersection conditions and
normalize's subset rule on vertex sets, a .dhg reader that checks every
token and keeps its vertex order in lists, and rejection sampling on the
stdlib's randint and sample.  None of it shares logic with the
implementations under test.
"""

from __future__ import annotations

import random
from functools import cache, lru_cache
from itertools import combinations, permutations, product

from dhcolor import DirectedEdge, DirectedHypergraph, PATTERN_EDGES, ParseError, ValidationError

EdgeKey = tuple[frozenset[str], str]  # (tail set, head) of a 2->1 edge


def edge_key(e: DirectedEdge) -> EdgeKey:
    return (e.tail, min(e.head))


def naive_contains(hg: DirectedHypergraph, pattern: str) -> bool:
    """Try every injective map of the pattern's vertices into V(hg)."""
    (tails1, head1), (tails2, head2) = PATTERN_EDGES[pattern]
    pattern_vertices = sorted({*tails1, head1, *tails2, head2})
    edge_set = {edge_key(e) for e in hg.edges}
    for image in permutations(hg.vertices, len(pattern_vertices)):
        mp = dict(zip(pattern_vertices, image))
        e1 = (frozenset(mp[v] for v in tails1), mp[head1])
        e2 = (frozenset(mp[v] for v in tails2), mp[head2])
        if e1 in edge_set and e2 in edge_set:
            return True
    return False


def naive_pair_contains(e1: DirectedEdge, e2: DirectedEdge, pattern: str) -> bool:
    """Pattern containment restricted to a two-edge hypergraph {e1, e2}."""
    vertices = tuple(sorted(e1.vertices | e2.vertices))
    hg = DirectedHypergraph(vertices, (e1, e2))
    return naive_contains(hg, pattern)


def naive_first_proper(hg: DirectedHypergraph, k: int) -> dict[str, int] | None:
    """Lexicographically first proper assignment over all k^n, else None."""
    n = hg.n
    edge_positions = [tuple(hg.positions[v] for v in e.vertices) for e in hg.edges]
    for assignment in product(range(k), repeat=n):
        if all(len({assignment[p] for p in e}) > 1 for e in edge_positions):
            return dict(zip(hg.vertices, assignment))
    return None


@cache
def f_recursive(n: int) -> int:
    """Top-down recursive form of the good-coloring edge bound.

    The memo table only stops f(n - k) being recomputed; each value still
    comes from the recurrence as written, independently of the bottom-up
    table in dhcolor.bounds.
    """
    if n <= 1:
        return 1
    return max(k * (k - 1) // 2 * (n - k) + f_recursive(n - k) for k in range(1, n))


# Whether a pair violates each condition, given its shared vertex set.
_VIOLATES = {
    "onehead-h1": lambda e1, e2, c: len(c) == 1 and c <= e1.tail and c <= e2.tail,
    "i0-free": lambda e1, e2, c: len(c) == 1 and c <= e1.head and c <= e2.head,
    "r4-free": lambda e1, e2, c: len(c) == 1 and (c <= e1.head) != (c <= e2.head),
    "i0r4-free": lambda e1, e2, c: len(c) == 1 and not (c <= e1.tail and c <= e2.tail),
    "lovasz": lambda e1, e2, c: len(c) == 1,
    "h2-two-intersect": lambda e1, e2, c: len(c) == 2 and c <= e1.tail and c <= e2.tail,
    "tails-only-2-intersect": lambda e1, e2, c: len(c) == 2 and not e1.tail == c == e2.tail,
}


def naive_pair_violates(e1: DirectedEdge, e2: DirectedEdge, cond: str) -> bool:
    """Whether the pair (e1, e2) violates the condition, from its shared vertex set."""
    return _VIOLATES[cond](e1, e2, (e1.tail | e1.head) & (e2.tail | e2.head))


def naive_gen_random(n: int, m: int, cond: str, seed: int, tail_range: tuple[int, int],
                     budget: int) -> DirectedHypergraph:
    """gen_random restated: up to budget draws of ``randint`` for the tail
    size then ``sample`` of the positions, the last pick the head, each kept
    iff its vertex set is new and no kept edge violates cond with it.  It
    remembers no refused draw and spends the whole budget unless m edges
    are kept."""
    rng = random.Random(seed)
    lo, hi = tail_range[0], min(tail_range[1], n - 1)
    names = [f"v{i + 1}" for i in range(n)]
    kept: list[DirectedEdge] = []
    for _ in range(budget):
        if len(kept) == m:
            break
        picks = rng.sample(range(n), rng.randint(lo, hi) + 1)
        e = DirectedEdge({names[p] for p in picks[:-1]}, {names[picks[-1]]})
        if any(e.vertices == f.vertices or cond != "none" and naive_pair_violates(e, f, cond)
               for f in kept):
            continue
        kept.append(e)
    return DirectedHypergraph(tuple(names), tuple(kept))


WitnessRow = tuple[int, int, tuple[tuple[str, str, str], ...]]


def _row(hg: DirectedHypergraph, i: int, j: int) -> WitnessRow:
    """(i, j, common): the shared vertices in vertex order with their roles."""
    e1, e2 = hg.edges[i], hg.edges[j]
    common = (e1.tail | e1.head) & (e2.tail | e2.head)
    return (i, j, tuple(
        (v, "head" if v in e1.head else "tail", "head" if v in e2.head else "tail")
        for v in hg.vertices if v in common
    ))


def naive_condition_witnesses(hg: DirectedHypergraph, cond: str) -> list[WitnessRow]:
    """(i, j, common) for every violating pair i < j, scanning all m^2 pairs."""
    rows = []
    for (i, e1), (j, e2) in combinations(enumerate(hg.edges), 2):
        if naive_pair_violates(e1, e2, cond):
            rows.append(_row(hg, i, j))
    return rows


# The shared keys each check's walk tests, from the paper's shapes: the key
# size (one vertex, or a vertex pair for the checks that constrain only
# two-vertex intersections) and the role classes its violations can show at
# such a key ("hh" head of both edges, "tt" tail of both, "ht" head of one and
# tail of the other; a pair of two tails counts as a tail, a pair holding a
# head as a head).
ALL_CLASSES = frozenset(("hh", "tt", "ht"))
CANDIDATE_KEYS = {
    "I0": (1, {"hh"}), "H1": (1, {"tt"}), "R4": (1, {"ht"}),
    "H2": (2, {"tt"}), "I1": (2, {"hh"}), "R3": (2, {"ht"}), "E": (2, {"hh"}),
    "onehead-h1": (1, {"tt"}), "i0-free": (1, {"hh"}), "r4-free": (1, {"ht"}),
    "i0r4-free": (1, {"hh", "ht"}), "lovasz": (1, ALL_CLASSES),
    "h2-two-intersect": (2, {"tt"}), "tails-only-2-intersect": (2, ALL_CLASSES),
}


def naive_candidates(hg: DirectedHypergraph, size: int, classes) -> list[tuple[int, int]]:
    """(i, j) once for each set of `size` vertices the pair i < j shares
    whose role class is in `classes`, scanning all m^2 pairs."""
    out = []
    for (i, e1), (j, e2) in combinations(enumerate(hg.edges), 2):
        for key in combinations(sorted(e1.vertices & e2.vertices), size):
            tail1, tail2 = set(key) <= e1.tail, set(key) <= e2.tail
            if ("tt" if tail1 and tail2 else "ht" if tail1 or tail2 else "hh") in classes:
                out.append((i, j))
    return out


@cache
def _renamed_pair_contains(pair: tuple[tuple[frozenset, frozenset], ...], pattern: str) -> bool:
    e1, e2 = (DirectedEdge(tail, head) for tail, head in pair)
    return naive_pair_contains(e1, e2, pattern)


@lru_cache(maxsize=1)
def _renamed_pairs(hg: DirectedHypergraph) -> list[tuple[int, int, tuple]]:
    """Every pair i < j sharing a vertex, with its vertices renamed to their
    ranks in the pair.

    Two disjoint 2->1 edges span six vertices, and no pattern has more than
    five, so only pairs sharing a vertex can realize one.
    """
    out = []
    for (i, e1), (j, e2) in combinations(enumerate(hg.edges), 2):
        if e1.vertices.isdisjoint(e2.vertices):
            continue
        rank = {v: str(k) for k, v in enumerate(sorted(e1.vertices | e2.vertices))}.__getitem__
        out.append((i, j, ((frozenset(map(rank, e1.tail)), frozenset(map(rank, e1.head))),
                           (frozenset(map(rank, e2.tail)), frozenset(map(rank, e2.head))))))
    return out


def naive_pattern_witnesses(hg: DirectedHypergraph, pattern: str) -> list[WitnessRow]:
    """(i, j, common) for every pair i < j of a 2->1 hypergraph that realizes
    the pattern under an injective map, scanning all m^2 pairs.

    Containment does not depend on vertex names, so the injective-map search
    runs once per pair with its vertices renamed to their ranks.
    """
    return [_row(hg, i, j) for i, j, pair in _renamed_pairs(hg)
            if _renamed_pair_contains(pair, pattern)]


def naive_normalized_edges(hg: DirectedHypergraph) -> tuple[DirectedEdge, ...]:
    """Edges with no other edge's vertex set strictly inside theirs and no
    equal vertex set earlier in the sequence."""
    sets = [e.tail | e.head for e in hg.edges]
    return tuple(
        e for i, e in enumerate(hg.edges)
        if not any(o < sets[i] or (o == sets[i] and j < i) for j, o in enumerate(sets))
    )


def all_two_one_edges(names: tuple[str, ...]) -> list[DirectedEdge]:
    """Every 2->1 edge on the given labeled vertices, in a fixed order."""
    out = []
    for triple in combinations(names, 3):
        for head in triple:
            tails = frozenset(set(triple) - {head})
            out.append(DirectedEdge(tails, frozenset((head,))))
    return out


def _naive_name(token: str, lineno: int) -> str:
    """Reject a name that is empty, has a whitespace character or '#', or is '>'."""
    if not token or any(ch.isspace() for ch in token) or token == ">" or "#" in token:
        raise ParseError(f"line {lineno}: invalid vertex name: {token!r}")
    return token


def naive_parse(text: str) -> DirectedHypergraph:
    """The .dhg reader restated token by token: every name is checked where
    it appears, and the vertex order is built from lists."""
    declared: list[str] = []
    from_edges: list[str] = []
    edges: list[DirectedEdge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "e" or ">" in tokens:  # '>' is never a name: "v b > c" is an edge
            body = tokens[1:] if tokens[0] == "e" else tokens
            if body.count(">") != 1:
                raise ParseError(f"line {lineno}: edge line needs exactly one '>'")
            cut = body.index(">")
            tails = [_naive_name(t, lineno) for t in body[:cut]]
            heads = [_naive_name(t, lineno) for t in body[cut + 1:]]
            if not tails and not heads:
                raise ParseError(f"line {lineno}: edge has no vertices")
            try:
                edges.append(DirectedEdge(frozenset(tails), frozenset(heads)))
            except ValidationError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
            for name in tails + heads:
                if name not in from_edges:
                    from_edges.append(name)
        elif tokens[0] == "v":
            if len(tokens) != 2:
                raise ParseError(f"line {lineno}: vertex line needs exactly one name")
            name = _naive_name(tokens[1], lineno)
            if name in declared:
                raise ParseError(f"line {lineno}: duplicate declaration of {name}")
            declared.append(name)
        else:
            raise ParseError(f"line {lineno}: unrecognized line {line!r}")
    order = declared + [v for v in from_edges if v not in declared]
    try:
        return DirectedHypergraph(tuple(order), tuple(edges))
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc
