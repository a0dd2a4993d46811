"""Exact proper k-colorability and chromatic number by backtracking with
forward checking.

This is the ground-truth oracle the constructive algorithms are checked
against.  Vertices are assigned in sequence order with two symmetry breaks
that are sound because properness is invariant under permuting colors: the
first vertex is fixed to color 0, and a vertex may only use a color at most
one above the largest color used so far.  Colors are tried in ascending
order, so the first solution found is the lexicographically smallest proper
assignment.

Forward checking (Haralick & Elliott, 1980) keeps that order.  Each color
class is a bitmask over vertex positions.  An edge is filed under its
second-to-last position as (mask of all its positions but the last, last
position); when that position takes color c and the whole mask lies in class
c, c is forbidden at the last position.  A position skips its forbidden
colors, and a branch is abandoned as soon as some later position has all k
colors forbidden.  Both only cut subtrees holding no proper assignment, so
the witness is the same as plain backtracking's.  The search keeps an
explicit stack, so its depth is not bounded by Python's recursion limit, and
a trail of overwritten forbidden masks that backtracking restores.

Cost: a search node costs one mask test per edge filed under its position,
plus a trail entry per newly forbidden color; the number of nodes is
exponential in n in the worst case.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Coloring, DirectedHypergraph

DEFAULT_MAX_K = 8


@dataclass(frozen=True)
class ChromaticResult:
    """Chromatic number up to a search bound; chi is None beyond max_k."""

    chi: int | None
    max_k: int
    witness: Coloring | None

    @property
    def exceeded(self) -> bool:
        return self.chi is None

    def __str__(self) -> str:
        return f">{self.max_k}" if self.chi is None else str(self.chi)


def find_proper_coloring(hg: DirectedHypergraph, k: int) -> Coloring | None:
    """First proper k-coloring in lexicographic order (vertex 1 fixed to 0), or None."""
    if k < 1:
        raise ValueError("k must be at least 1")
    n = hg.n
    if n == 0:
        return Coloring({}, k)
    pos = hg.positions

    # filed[p]: (rest mask, last position) of each edge whose second-to-last
    # position is p.
    filed: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e in hg.edges:
        mask = 0
        for v in e.vertices:
            mask |= 1 << pos[v]
        last = mask.bit_length() - 1
        rest = mask ^ 1 << last
        if not rest:  # a single-vertex edge can never see two color classes
            return None
        filed[rest.bit_length() - 1].append((rest, last))

    full = (1 << k) - 1
    colors = [-1] * n  # color at each position; -1 before its first try
    max_before = [-1] * n  # largest color used at positions < p
    forbidden = [0] * n  # colors forbidden at each position, as bitmasks
    classes = [0] * k  # positions holding each color, as bitmasks
    trail_pos: list[int] = []  # positions whose forbidden mask was overwritten
    trail_old: list[int] = []  # and the masks they had
    trail_mark = [0] * n  # trail length when position p took its color

    p = 0
    while True:
        c = colors[p]
        if c >= 0:  # withdraw p's color and what it forbade
            classes[c] ^= 1 << p
            mark = trail_mark[p]
            while len(trail_pos) > mark:
                forbidden[trail_pos.pop()] = trail_old.pop()
        limit = min(k - 1, max_before[p] + 1)
        banned = forbidden[p]
        c += 1
        while c <= limit and banned >> c & 1:
            c += 1
        if c > limit:
            colors[p] = -1
            if p == 0:
                return None
            p -= 1
            continue
        colors[p] = c
        members = classes[c] | 1 << p
        classes[c] = members
        trail_mark[p] = len(trail_pos)
        bit = 1 << c
        for rest, last in filed[p]:
            if rest & members == rest:
                old = forbidden[last]
                if not old & bit:
                    trail_pos.append(last)
                    trail_old.append(old)
                    forbidden[last] = old | bit
                    if old | bit == full:
                        break  # last has no color left: try p's next color
        else:
            p += 1
            if p == n:
                break
            max_before[p] = c if c > max_before[p - 1] else max_before[p - 1]
    return Coloring({v: colors[pos[v]] for v in hg.vertices}, k)


def chromatic_number(hg: DirectedHypergraph, max_k: int = DEFAULT_MAX_K) -> ChromaticResult:
    """Smallest k <= max_k admitting a proper k-coloring, with a witness."""
    if max_k < 1:
        raise ValueError("max_k must be at least 1")
    for k in range(1, max_k + 1):
        witness = find_proper_coloring(hg, k)
        if witness is not None:
            return ChromaticResult(k, max_k, witness)
    return ChromaticResult(None, max_k, None)
