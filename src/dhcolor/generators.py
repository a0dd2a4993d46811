"""Constructions: the two 5-vertex example hypergraphs, the two
chromatic-lower-bound towers, and seeded random condition-constrained
instances for fuzzing.

All generators are deterministic functions of their parameters.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations
from math import ceil, comb, log

from .core import DirectedHypergraph, Value, _mask_row, _setattr
from .patterns import CONDITION_IDS, VIOLATING_CODES, matching_partners

GENERATOR_KINDS = ("paper-i", "paper-r", "h2-tower", "perm-tower", "random")
H2_TOWER_MAX_LEVEL = 6
PERM_TOWER_MAX_LEVEL = 3
REJECTION_ATTEMPTS_PER_EDGE = 100


def _paper(triples: list[tuple[int, int, int]]) -> DirectedHypergraph:
    """The hypergraph on v1..v5 with the edge va vb > vc for each (a, b, c)."""
    return DirectedHypergraph._of(("v1", "v2", "v3", "v4", "v5"), [(c - 1,) for _, _, c in triples],
                                  [(a - 1, b - 1) for a, b, _ in triples])


def paper_i() -> DirectedHypergraph:
    """The 5-vertex hypergraph I: every 3-subset is an edge, heads arranged so
    that every one-vertex intersection is a tail somewhere (I0 avoided).
    Chromatic number 3 by pigeonhole: any 2-coloring leaves three vertices of
    one color, and those three form an edge."""
    return _paper([
        (1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 1), (1, 5, 2),
        (1, 3, 4), (2, 4, 5), (3, 5, 1), (1, 4, 2), (2, 5, 3),
    ])


def paper_r() -> DirectedHypergraph:
    """The 5-vertex hypergraph R: every 3-subset is an edge, heads arranged so
    that no one-vertex intersection mixes a head role with a tail role (R4
    avoided).  Chromatic number 3."""
    return _paper([
        (2, 3, 1), (2, 4, 3), (3, 4, 5), (4, 5, 1), (1, 2, 5),
        (1, 4, 2), (3, 5, 2), (1, 3, 4), (2, 5, 4), (1, 5, 3),
    ])


def _tower(k: int, max_level: int, join) -> DirectedHypergraph:
    """Level k of a tower whose level 2 is the edge v1 v2 > v3 and whose level
    l + 1 is two copies of level l, named a_ and b_ + each name, plus
    ``join(l + 1, n)``: the apexes' names and the head and tail rows of the
    cross edges, for copies at positions 0..n-1 and n..2n-1 and apexes from
    2n.  A level is built from position rows, copy a's, copy b's shifted by
    n and the join's, in that order; no ``DirectedEdge`` is built."""
    if k < 2:
        raise ValueError("tower level must be at least 2")
    if k > max_level:
        raise ValueError(f"tower level {k} exceeds the resource guard {max_level}")
    names, head_rows, tail_rows = ("v1", "v2", "v3"), [(2,)], [(0, 1)]
    for level in range(3, k + 1):
        n = len(names)
        apexes, cross_heads, cross_tails = join(level, n)
        head_rows = head_rows + [(h + n,) for h, in head_rows] + cross_heads
        tail_rows = tail_rows + [(s + n, t + n) for s, t in tail_rows] + cross_tails
        names = tuple("a_" + v for v in names) + tuple("b_" + v for v in names) + apexes
    return DirectedHypergraph._of(names, head_rows, tail_rows)


def _h2_join(k: int, n: int):
    return (f"x_{k}",), [(2 * n,)] * (n * n), [(a, b) for a in range(n) for b in range(n, 2 * n)]


def _perm_join(k: int, n: int):
    sep = "" if n <= 9 else "-"
    apexes, heads, tails = [], [], []
    for sigma in permutations(range(n)):
        heads += [(2 * n + len(apexes),)] * n
        apexes.append(f"x_{k}_" + sep.join(str(s + 1) for s in sigma))
        tails += [(a, n + s) for a, s in enumerate(sigma)]
    return tuple(apexes), heads, tails


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
    """Yield, forever, ``(mask, head, picks)`` for the draw that
    ``size = rng.randint(lo, hi)`` then ``picks = rng.sample(range(n), size + 1)``
    would give: mask has bit p set for each pick p and head is the bit of
    the last pick.  picks is that list where sample's rejection branch builds
    it anyway, to refuse repeats, and None in the pool branch, which works on
    bits alone.  It makes the same ``getrandbits`` calls in the same order,
    so ``rng`` ends in the same state; only the stdlib's argument checks and
    per-call set-up are left out.

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
    # Per tail size: None for sample's rejection branch, else the bound and
    # bit width of each pool draw.
    plans = []
    for size in range(lo, hi + 1):
        k = size + 1
        pool_max = 21 + (4 ** ceil(log(k * 3, 4)) if k > 5 else 0)
        plans.append((k, [(w, w.bit_length()) for w in range(n, n - k, -1)]
                      if n <= pool_max else None))
    # The pool, as the bit of each position, built only if some size draws
    # from it: at large n it would be the biggest object here.
    base = [1 << p for p in range(n)] if any(steps for _, steps in plans) else None
    while True:
        r = getrandbits(width_bits)
        while r >= width:
            r = getrandbits(width_bits)
        k, steps = plans[r]
        full = 0
        if steps is None:  # here k <= 5 or 3k < n, so picks stays short
            picks = []
            for _ in range(k):
                j = getrandbits(n_bits)
                while j >= n or j in picks:
                    j = getrandbits(n_bits)
                picks.append(j)
                bit = 1 << j
                full |= bit
        else:
            pool = base[:]
            for w, bits in steps:
                j = getrandbits(bits)
                while j >= w:
                    j = getrandbits(bits)
                bit = pool[j]
                full |= bit
                pool[j] = pool[w - 1]
            picks = None
        yield full, bit, picks


def _sweep(n: int, sizes: range, dead: dict[int, int], live: int, heads: list[int],
           tails: list[int], bad: int) -> int:
    """Test every draw not yet dead against all accepted edges, record each
    refused one in ``dead`` and return ``live`` less the refused draws,
    stopping once it reaches 0."""
    bits = [1 << p for p in range(n)]
    accepted = range(len(heads))
    for k in sizes:
        for members in combinations(bits, k):
            full = sum(members)
            gone = dead.get(full, 0)
            for head in members:
                if not gone & head and next(matching_partners(head, full ^ head, accepted, heads,
                                                              tails, bad), None):
                    gone |= head
                    dead[full] = gone
                    live -= 1
                    if not live:
                        return 0
    return live


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
    or once no draw can be kept: a refused draw stays refused, as the accepted
    edges only grow, and after as many draws without an accepted edge as
    there are (vertex set, head) draws, one sweep tests every draw not yet
    refused, so the stop need not wait for each of them to come up.
    Identical parameters give identical output.

    Each draw is what ``randint`` for the tail size then ``sample`` of the
    positions on ``random.Random(seed)`` would give, replayed on
    ``getrandbits`` by ``_draws``: the stdlib's argument checks cost about
    four times the drawing itself, and the replay keeps every instance
    unchanged, draw for draw.  Each kept edge is held as a head bit and a
    tail mask, and the hypergraph on v1..vn is built from their position
    rows, tails ascending; no ``DirectedEdge`` is built.
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
    heads: list[int] = []  # head bit of each accepted edge
    tails: list[int] = []  # tail mask of each accepted edge
    # dead maps a vertex set's mask to the mask of the heads whose draw on it
    # can no longer be kept (all of them once the set is used); live counts
    # the (vertex set, head) draws not yet dead, and the loop stops at zero.
    dead: dict[int, int] = {}
    sizes = range(lo + 1, hi + 2)
    space = live = sum(comb(n, k) * k for k in sizes)
    # A draw is tested through the pair kernel, which stops at the first
    # violation.  When the attempts outnumber the vertex sets, draws repeat
    # and each vertex lies in a large share of the accepted edges: a draw is
    # tested against every accepted edge, and a refused draw is dead for
    # good, as the accepted edges only grow.  Once `space` draws (the size of
    # the draw space) have gone by since the start or the last accepted edge,
    # _sweep tests each draw not yet dead, so live counts exactly the draws
    # that could still be kept, and the loop ends at once if there are none;
    # otherwise the next draw not dead is accepted, so no sweep is due before
    # it.  A sweep costs about as much as the draws that bring it due.
    # Otherwise each vertex keeps the accepted edges holding it, and a draw is
    # tested only against those sharing a vertex with it.
    small = sum(comb(n, k) for k in sizes) < budget
    holding: list[list[int]] = [[] for _ in range(n)] if bad and not small else []
    sweep_at = space if bad and small else -1

    attempts = 0
    while len(heads) < m and attempts < budget and live:
        if attempts == sweep_at:
            live = _sweep(n, sizes, dead, live, heads, tails, bad)
            sweep_at = -1  # until an edge is accepted, no draw can be refused
            continue
        attempts += 1
        full, head, picks = next(draws)
        gone = dead.get(full, 0)
        if gone & head:
            continue
        tail = full ^ head
        if bad and small:
            if next(matching_partners(head, tail, range(len(heads)), heads, tails, bad), None):
                dead[full] = gone | head
                live -= 1
                continue
            sweep_at = attempts + space
        elif bad:
            picks = picks or _mask_row(full)
            near = [k for p in picks for k in holding[p]]
            if next(matching_partners(head, tail, near, heads, tails, bad), None):
                continue
            for p in picks:
                holding[p].append(len(heads))
        heads.append(head)
        tails.append(tail)
        dead[full] = full
        live -= (full ^ gone).bit_count()

    return DirectedHypergraph._of(tuple(f"v{i + 1}" for i in range(n)),
                                  [(head.bit_length() - 1,) for head in heads],
                                  [tuple(_mask_row(tail)) for tail in tails])


class GenSpec(Value):
    """Parameters of one generator invocation; build() runs it."""

    _fields = ("kind", "k", "n", "m", "cond", "seed", "tail_range")
    kind: str
    k: int
    n: int
    m: int
    cond: str
    seed: int
    tail_range: tuple[int, int]

    def __init__(self, kind: str, k: int = 2, n: int = 5, m: int = 5, cond: str = "none",
                 seed: int = 0, tail_range: tuple[int, int] = (2, 2)) -> None:
        _setattr(self, "kind", kind)
        _setattr(self, "k", k)
        _setattr(self, "n", n)
        _setattr(self, "m", m)
        _setattr(self, "cond", cond)
        _setattr(self, "seed", seed)
        _setattr(self, "tail_range", tail_range)

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
