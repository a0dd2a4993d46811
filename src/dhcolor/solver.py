"""Exact proper k-colorability and chromatic number.

This is the ground-truth oracle the constructive algorithms are checked
against.  ``chromatic_number`` tries k = 1, 2, ... and files the edge
masks of ``hg.index`` once for all of them.  A verdict search proves each
k < chi infeasible; the fixed-order witness search runs only at the first k
the verdict search accepts and gives the coloring returned.

Witness search (``find_proper_coloring``).  Vertices are assigned in sequence
order with two symmetry breaks that are sound because properness is
invariant under permuting colors: the first vertex is fixed to color 0, and a
vertex may only use a color at most one above the largest color used so far.
Colors are tried in ascending order, so the first solution found is the
lexicographically smallest proper assignment.  Forward checking (Haralick &
Elliott, 1980) keeps that order.  Each color class is a bitmask over vertex
positions.  An edge is filed under its second-to-last position as (mask of
all its positions but the last, last position); when that position takes
color c and the whole mask lies in class c, c is forbidden at the last
position.  A position skips its forbidden colors, and a branch is abandoned
as soon as some later position has all k colors forbidden.  Both only cut
subtrees holding no proper assignment, so the witness is the same as plain
backtracking's.

Verdict search (``_colorable``).  Only its yes/no answer is used, so it may
visit vertices in any order.  DSATUR (Brélaz, 1979) takes next the free
vertex with the most forbidden colors, then the most incident edges, then the
lowest position.  Vertices are ranked once by degree, and the free ones are
kept in one bitmask over ranks per forbidden count, so the pick is the lowest
set bit of the highest non-empty bucket.  Forward checking: when a vertex
takes color c, every edge through it whose vertices all lie in class c but
one free vertex u forbids c at u; the reason is the edge's other vertices.
Conflict-directed backjumping (FC-CBJ; Prosser, 1993): a vertex whose colors
all fail returns a conflict set, the reasons for its forbidden colors plus
what each tried color returned (for a wiped-out vertex, the union of its
reasons).  The search jumps back to the latest assigned vertex in that set;
the vertices assigned after it are undone without trying their other colors.
A vertex tries the colors in use plus at most one unused color: swapping two
unused colors fixes every assigned vertex, so the skipped ones fail for the
same reasons.  Every conflict set is a set of assignments that no proper
coloring extends, so the verdict is exact.

The witness is unchanged by this split: it still comes from the fixed-order
search, now run only at chi.  When k^(n-1), the witness search's largest
possible number of leaves, is at most 2^16 (n <= 17 at k = 2, n <= 11 at
k = 3), that search alone gives the verdict at k: measured on random inputs,
running the verdict search first costs more than it saves below that size.

Cost: filing the masks of ``hg.index`` is one pass, and the verdict search
reads its per-vertex incidence off that index on first use.  A node of
either search costs one mask test per edge it examines (those filed under
the position, or those through the vertex) plus a trail entry per newly
forbidden color; a backjump costs one undo per vertex it passes.  The
number of nodes is exponential in n in the worst case.  Both searches keep
explicit stacks, so their depth is not bounded by Python's recursion limit.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .core import Coloring, DirectedHypergraph, HypergraphIndex, cached_attribute

DEFAULT_MAX_K = 8
# The witness search has at most k^(n-1) leaves.  Up to this many it settles
# k alone: measured per (n, k) on random inputs, its own verdict cost less
# than a verdict search followed by it at every (n, k) with at most 2^16
# leaves, and the verdict search first paid off at n = 18, k = 2 (2^17).
# The cut also bounds what skipping the verdict search can cost on an
# adversarial input to a search of at most 2^16 leaves.
_SMALL_TREE = 2 ** 16


def _small_tree_n(k: int) -> int:
    """The largest n with k^(n-1) <= _SMALL_TREE, found without big powers."""
    if k == 1:
        return sys.maxsize  # one leaf at every n
    n, leaves = 1, k
    while leaves <= _SMALL_TREE:
        n += 1
        leaves *= k
    return n


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


class _Index:
    """What both searches read, from the edge masks of ``hg.index``; the
    verdict search's view is built the first time that search runs."""

    def __init__(self, index: HypergraphIndex) -> None:
        self.edge_index = index
        # filed[p]: (rest mask, last position) of each edge whose
        # second-to-last position is p, for the witness search.
        self.filed: list[list[tuple[int, int]]] = [[] for _ in range(index.n)]

    @cached_attribute
    def incidence(self) -> tuple[list[list[int]], list[int], list[int]]:
        """The masks of the edges through each position, the positions by
        descending degree (ties by position), and each position's bit in
        that order."""
        masks = self.edge_index.masks
        through = [[masks[k] for k in ks] for ks in self.edge_index.edges_at]
        order = sorted(range(len(through)), key=lambda p: -len(through[p]))
        rank_bit = [0] * len(order)
        for r, p in enumerate(order):
            rank_bit[p] = 1 << r
        return through, order, rank_bit


def _build_index(hg: DirectedHypergraph) -> _Index | None:
    """The shared index, or None when a single-vertex edge makes every k fail."""
    index = _Index(hg.index)
    filed = index.filed
    for mask in hg.index.masks:
        last = mask.bit_length() - 1
        rest = mask ^ 1 << last
        if not rest:  # a single-vertex edge can never see two color classes
            return None
        filed[rest.bit_length() - 1].append((rest, last))
    return index


def find_proper_coloring(hg: DirectedHypergraph, k: int, *,
                         _index: _Index | None = None) -> Coloring | None:
    """First proper k-coloring in lexicographic order (vertex 1 fixed to 0), or None.

    ``_index`` is the caller's ``_build_index(hg)``, so that
    ``chromatic_number`` builds it once.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = hg.n
    if n == 0:
        return Coloring({}, k)
    index = _build_index(hg) if _index is None else _index
    if index is None:
        return None
    filed = index.filed

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
    return Coloring(dict(zip(hg.vertices, colors)), k)


def _colorable(index: _Index, k: int) -> bool:
    """Whether a proper k-coloring exists; see the module docstring."""
    through, order, rank_bit = index.incidence
    n = index.edge_index.n
    colors = [0] * n
    count = [0] * n  # number of colors forbidden at each position
    forbidden = [0] * n  # and which, as bitmasks
    reason = [0] * (n * k)  # reason[p * k + c]: the positions that forbade c at p
    conflict = [0] * n  # what the failed colors of each position depend on
    classes = [0] * k  # positions holding each color, as bitmasks
    free = (1 << n) - 1  # unassigned positions
    # Unassigned positions by number of forbidden colors, each as a bitmask
    # over ranks, so the lowest bit is the one of highest degree.
    buckets = [0] * (k + 1)
    buckets[0] = free
    stack: list[int] = []  # assigned positions, in assignment order
    marks: list[int] = []  # trail length when each took its color
    opened: list[int] = []  # colors in use once each took its color
    trail: list[int] = []  # (position, color) of each forbidden color, flattened

    def undo(mark: int) -> None:
        while len(trail) > mark:
            c = trail.pop()
            u = trail.pop()
            forbidden[u] ^= 1 << c
            rbit = rank_bit[u]
            cnt = count[u]
            buckets[cnt] ^= rbit
            count[u] = cnt - 1
            buckets[cnt - 1] |= rbit

    v = -1  # the position trying colors; -1 means pick the next one
    c = -1
    while True:
        if v < 0:
            if not free:
                return True
            f = k - 1
            while not buckets[f]:
                f -= 1
            bits = buckets[f]
            rbit = bits & -bits
            buckets[f] = bits ^ rbit
            v = order[rbit.bit_length() - 1]
            free ^= 1 << v
            conflict[v] = 0
            c = -1
        used = opened[-1] if opened else 0
        limit = used if used < k else k - 1
        banned = forbidden[v]
        c += 1
        while c <= limit and banned >> c & 1:
            c += 1
        vbit = 1 << v

        if c > limit:  # every color failed: jump back to the latest culprit
            culprits = conflict[v]
            base = v * k
            while banned:
                low = banned & -banned
                culprits |= reason[base + low.bit_length() - 1]
                banned ^= low
            buckets[count[v]] |= rank_bit[v]
            free |= vbit
            if not culprits:
                return False
            while True:
                h = stack.pop()
                opened.pop()
                hbit = 1 << h
                classes[colors[h]] ^= hbit
                undo(marks.pop())
                if culprits & hbit:
                    break
                buckets[count[h]] |= rank_bit[h]
                free |= hbit
            conflict[h] |= culprits ^ hbit
            v = h
            c = colors[h]
            continue

        members = classes[c] | vbit
        classes[c] = members
        mark = len(trail)
        cbit = 1 << c
        outside = ~members
        wiped = 0
        for e in through[v]:
            left = e & outside
            if left & (left - 1) or not left & free:
                continue  # e is not the class c plus one free position
            u = left.bit_length() - 1
            ban = forbidden[u]
            if ban & cbit:
                continue
            forbidden[u] = ban | cbit
            reason[u * k + c] = e ^ left
            rbit = rank_bit[u]
            cnt = count[u]
            buckets[cnt] ^= rbit
            cnt += 1
            count[u] = cnt
            buckets[cnt] |= rbit
            trail.append(u)
            trail.append(c)
            if cnt == k:  # u has no color left
                for r in reason[u * k:u * k + k]:
                    wiped |= r
                break
        if wiped:
            classes[c] = members ^ vbit
            undo(mark)
            conflict[v] |= wiped & ~vbit
            continue
        colors[v] = c
        stack.append(v)
        marks.append(mark)
        opened.append(used if c < used else c + 1)
        v = -1


def chromatic_number(hg: DirectedHypergraph, max_k: int = DEFAULT_MAX_K) -> ChromaticResult:
    """Smallest k <= max_k admitting a proper k-coloring, with a witness.

    The witness is ``find_proper_coloring(hg, chi)``, the lexicographically
    first proper chi-coloring.
    """
    if max_k < 1:
        raise ValueError("max_k must be at least 1")
    index = _build_index(hg)
    if index is not None:
        for k in range(2 if hg.edges else 1, max_k + 1):
            # Edges are non-empty, so k = 1 is proper only without edges.
            if hg.n > _small_tree_n(k) and not _colorable(index, k):
                continue
            witness = find_proper_coloring(hg, k, _index=index)
            if witness is not None:
                return ChromaticResult(k, max_k, witness)
    return ChromaticResult(None, max_k, None)
