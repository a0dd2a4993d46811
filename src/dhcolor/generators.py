"""Constructions: the two 5-vertex example hypergraphs, the two
chromatic-lower-bound towers, and seeded random condition-constrained
instances for fuzzing.

All generators are deterministic functions of their parameters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations
from math import ceil, comb, log

from .core import DirectedEdge, DirectedHypergraph
from .patterns import CONDITION_IDS, VIOLATING_CODES, matching_partners

GENERATOR_KINDS = ("paper-i", "paper-r", "h2-tower", "perm-tower", "random")
H2_TOWER_MAX_LEVEL = 6
PERM_TOWER_MAX_LEVEL = 3
REJECTION_ATTEMPTS_PER_EDGE = 100


def paper_i() -> DirectedHypergraph:
    """The 5-vertex hypergraph I: every 3-subset is an edge, heads arranged so
    that every one-vertex intersection is a tail somewhere (I0 avoided).
    Chromatic number 3 by pigeonhole: any 2-coloring leaves three vertices of
    one color, and those three form an edge."""
    v = ("v1", "v2", "v3", "v4", "v5")
    triples = [
        (1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 1), (1, 5, 2),
        (1, 3, 4), (2, 4, 5), (3, 5, 1), (1, 4, 2), (2, 5, 3),
    ]
    edges = tuple(DirectedEdge((f"v{a}", f"v{b}"), (f"v{c}",)) for a, b, c in triples)
    return DirectedHypergraph(v, edges)


def paper_r() -> DirectedHypergraph:
    """The 5-vertex hypergraph R: every 3-subset is an edge, heads arranged so
    that no one-vertex intersection mixes a head role with a tail role (R4
    avoided).  Chromatic number 3."""
    v = ("v1", "v2", "v3", "v4", "v5")
    rows = [
        (2, 3, 1), (2, 4, 3), (3, 4, 5), (4, 5, 1), (1, 2, 5),
        (1, 4, 2), (3, 5, 2), (1, 3, 4), (2, 5, 4), (1, 5, 3),
    ]
    edges = tuple(DirectedEdge((f"v{a}", f"v{b}"), (f"v{c}",)) for a, b, c in rows)
    return DirectedHypergraph(v, edges)


def _prefixed(hg: DirectedHypergraph, prefix: str) -> DirectedHypergraph:
    rename = {v: prefix + v for v in hg.vertices}
    edges = tuple(
        DirectedEdge(frozenset(rename[v] for v in e.tail), frozenset(rename[v] for v in e.head))
        for e in hg.edges
    )
    return DirectedHypergraph(tuple(rename[v] for v in hg.vertices), edges)


def _tower(k: int, max_level: int, join) -> DirectedHypergraph:
    """Level k of a tower whose level 2 is the edge v1 v2 > v3 and whose level
    l + 1 is two prefixed copies a_, b_ of level l plus ``join(l + 1, a, b)``,
    the apexes and cross edges over the copies' vertex tuples a and b."""
    if k < 2:
        raise ValueError("tower level must be at least 2")
    if k > max_level:
        raise ValueError(f"tower level {k} exceeds the resource guard {max_level}")
    hg = DirectedHypergraph(("v1", "v2", "v3"), (DirectedEdge(("v1", "v2"), ("v3",)),))
    for level in range(3, k + 1):
        a = _prefixed(hg, "a_")
        b = _prefixed(hg, "b_")
        apexes, cross = join(level, a.vertices, b.vertices)
        hg = DirectedHypergraph(a.vertices + b.vertices + apexes, a.edges + b.edges + cross)
    return hg


def _h2_join(k: int, a: tuple[str, ...], b: tuple[str, ...]):
    apex = f"x_{k}"
    return (apex,), tuple(DirectedEdge((av, bv), (apex,)) for av in a for bv in b)


def _perm_join(k: int, a: tuple[str, ...], b: tuple[str, ...]):
    n = len(a)
    sep = "" if n <= 9 else "-"
    apexes = []
    cross = []
    for sigma in permutations(range(1, n + 1)):
        apex = f"x_{k}_" + sep.join(str(i) for i in sigma)
        apexes.append(apex)
        cross.extend(DirectedEdge((av, b[s - 1]), (apex,)) for av, s in zip(a, sigma))
    return tuple(apexes), tuple(cross)


def gen_h2_tower(k: int) -> DirectedHypergraph:
    """Recursive construction avoiding H2 with chromatic number at least k.

    Level 2 is a single edge on three vertices.  Level k+1 joins two disjoint
    copies A, B of level k with a fresh apex x and all edges ab>x for a in A,
    b in B: with only k colors both copies realize every color, so some pair
    matches the apex and forms a monochromatic edge.
    """
    return _tower(k, H2_TOWER_MAX_LEVEL, _h2_join)


def gen_perm_tower(k: int) -> DirectedHypergraph:
    """Recursive construction with chromatic number at least k in which any two
    edges sharing two vertices share them as both edges' tails (so I1, R3 and
    E are all avoided).

    Level k+1 joins two equal-size copies A, B of level k with one apex per
    permutation s of 1..n and edges a_i b_s(i) > x_s.  The apex count is n!,
    hence the tight guard PERM_TOWER_MAX_LEVEL.
    """
    return _tower(k, PERM_TOWER_MAX_LEVEL, _perm_join)


def _draws(rng: random.Random, n: int, lo: int, hi: int):
    """Yield, forever, the list that ``size = rng.randint(lo, hi)`` then
    ``rng.sample(range(n), size + 1)`` would return.  It makes the same
    ``getrandbits`` calls in the same order, so ``rng`` ends in the same state;
    only the stdlib's argument checks and per-call set-up are left out.

    ``randint`` is ``lo + _randbelow(hi - lo + 1)``, and ``_randbelow(w)``
    draws ``w.bit_length()`` bits until the value is below w (w = 1 included).
    For k = size + 1 picks, ``sample`` runs a partial Fisher-Yates over a pool
    of range(n) when n is at most the pool size it computes from k, and
    otherwise redraws every position already picked.
    """
    getrandbits = rng.getrandbits
    width = hi - lo + 1
    width_bits = width.bit_length()
    n_bits = n.bit_length()
    base = list(range(n))
    # Per tail size: None for sample's rejection branch, else the bound and
    # bit width of each pool draw.
    plans = []
    for size in range(lo, hi + 1):
        k = size + 1
        pool_max = 21 + (4 ** ceil(log(k * 3, 4)) if k > 5 else 0)
        plans.append((k, [(w, w.bit_length()) for w in range(n, n - k, -1)]
                      if n <= pool_max else None))
    while True:
        r = getrandbits(width_bits)
        while r >= width:
            r = getrandbits(width_bits)
        k, steps = plans[r]
        picks = []
        if steps is None:  # here k <= 5 or 3k < n, so picks stays short
            for _ in range(k):
                j = getrandbits(n_bits)
                while j >= n or j in picks:
                    j = getrandbits(n_bits)
                picks.append(j)
        else:
            pool = base[:]
            for w, bits in steps:
                j = getrandbits(bits)
                while j >= w:
                    j = getrandbits(bits)
                picks.append(pool[j])
                pool[j] = pool[w - 1]
        yield picks


def gen_random(
    n: int,
    m: int,
    cond: str = "none",
    seed: int = 0,
    tail_range: tuple[int, int] = (2, 2),
) -> DirectedHypergraph:
    """Seeded rejection sampling of a one-head hypergraph satisfying a condition.

    Draws a random edge (tail size from tail_range, default 2 giving a 2->1
    hypergraph), keeps it iff its vertex set is new and the condition still
    holds against every accepted edge.  Stops with fewer than m edges once the
    attempt budget (REJECTION_ATTEMPTS_PER_EDGE per requested edge) runs out,
    or once no draw can be kept; identical parameters give identical output.

    Each draw is what ``randint`` for the tail size then ``sample`` of the
    positions on ``random.Random(seed)`` would give, replayed on
    ``getrandbits`` by ``_draws``: the stdlib's argument checks cost about
    four times the drawing itself, and the replay keeps every instance
    unchanged, draw for draw.
    """
    if n < 3:
        raise ValueError("need at least 3 vertices")
    if m < 0:
        raise ValueError("edge budget must be non-negative")
    if cond != "none" and cond not in CONDITION_IDS:
        raise ValueError(f"unknown condition {cond!r}")
    lo, hi = tail_range
    hi = min(hi, n - 1)
    if not 1 <= lo <= hi:
        raise ValueError(f"unusable tail size range {tail_range} for n={n}")

    draws = _draws(random.Random(seed), n, lo, hi)
    budget = REJECTION_ATTEMPTS_PER_EDGE * m
    bad = VIOLATING_CODES.get(cond, 0)
    heads: list[int] = []  # head mask of each accepted edge
    tails: list[int] = []
    kept: list[list[int]] = []  # picks of each accepted edge, head last
    # dead maps a vertex set's mask to the mask of the heads whose draw on it
    # can no longer be kept (all of them once the set is used); live counts
    # the (tail, head) draws not yet dead, and the loop stops at zero.
    dead: dict[int, int] = {}
    capacity = sum(comb(n, size + 1) for size in range(lo, hi + 1))
    live = sum(comb(n, size + 1) * (size + 1) for size in range(lo, hi + 1))
    # A draw is tested through the pair kernel, which stops at the first
    # violation.  When the attempts outnumber the vertex sets, draws repeat
    # and each vertex lies in a large share of the accepted edges: a draw is
    # tested against every accepted edge, and a refused draw is dead for
    # good, as the accepted edges only grow, so the loop stops once no draw
    # can be kept.  Otherwise each vertex keeps the accepted edges holding
    # it, and a draw is tested only against those sharing a vertex with it.
    small = capacity < budget
    holding: list[list[int]] = [[] for _ in range(n)] if bad and not small else []

    attempts = 0
    while len(heads) < m and attempts < budget and live:
        attempts += 1
        picks = next(draws)
        head_mask = 1 << picks[-1]
        tail_mask = 0
        for t in picks[:-1]:
            tail_mask |= 1 << t
        full_mask = tail_mask | head_mask
        gone = dead.get(full_mask, 0)
        if gone & head_mask:
            continue
        if bad and small:
            if next(matching_partners(head_mask, tail_mask, range(len(heads)), heads, tails,
                                      bad), None):
                dead[full_mask] = gone | head_mask
                live -= 1
                continue
        elif bad:
            near = [k for p in picks for k in holding[p]]
            if next(matching_partners(head_mask, tail_mask, near, heads, tails, bad), None):
                continue
            for p in picks:
                holding[p].append(len(heads))
        heads.append(head_mask)
        tails.append(tail_mask)
        kept.append(picks)
        dead[full_mask] = full_mask
        live -= len(picks) - gone.bit_count()

    names = tuple(f"v{i + 1}" for i in range(n))
    name = names.__getitem__
    edges = tuple(DirectedEdge(frozenset(map(name, picks[:-1])), (name(picks[-1]),))
                  for picks in kept)
    return DirectedHypergraph(names, edges)


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one generator invocation; build() runs it."""

    kind: str
    k: int = 2
    n: int = 5
    m: int = 5
    cond: str = "none"
    seed: int = 0
    tail_range: tuple[int, int] = (2, 2)

    def build(self) -> DirectedHypergraph:
        if self.kind == "paper-i":
            return paper_i()
        if self.kind == "paper-r":
            return paper_r()
        if self.kind == "h2-tower":
            return gen_h2_tower(self.k)
        if self.kind == "perm-tower":
            return gen_perm_tower(self.k)
        if self.kind == "random":
            return gen_random(self.n, self.m, cond=self.cond, seed=self.seed,
                              tail_range=self.tail_range)
        raise ValueError(f"unknown generator kind {self.kind!r}; expected one of {GENERATOR_KINDS}")
