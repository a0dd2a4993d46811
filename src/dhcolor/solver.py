"""Exact proper k-colorability and chromatic number.

This is the ground-truth oracle the constructive algorithms are checked
against.  One search (``_search``) answers every question, in one of two
vertex orders, each of which reads its own view of the edge masks of
``hg.index`` (``_fixed_view``, ``_dsatur_view``).  ``find_proper_coloring``
builds the fixed view and returns the lexicographically first proper
k-coloring.  ``chromatic_number`` tries k = 1, 2, ...; on larger inputs it
first runs the search in the DSATUR order, on a view it builds at most once
per call, whose yes or no proves each k < chi infeasible, and takes the
witness from ``find_proper_coloring`` at the first k that order accepts.

The search assigns one vertex at a time and keeps each color class as a
bitmask over vertex positions.  A vertex tries, in ascending order, the
colors in use plus at most one unused color: properness is invariant under
permuting colors, and swapping two unused colors fixes every assigned
vertex, so the skipped ones fail for the same reasons.  Forward checking
(Haralick & Elliott, 1980): when a vertex takes color c, an edge whose
vertices all lie in class c but one free vertex u forbids c at u; the reason
is the edge's other vertices.  A vertex skips its forbidden colors, and a
color is dropped at once when it leaves a free vertex with none.
Conflict-directed backjumping (FC-CBJ; Prosser, 1993): a vertex whose colors
all fail returns a conflict set, the reasons for its forbidden colors plus
what each tried color returned (for a wiped-out vertex, the union of its
reasons).  The search jumps back to the latest assigned vertex in that set;
the vertices assigned after it are undone without trying their other colors.
Every conflict set is a set of assignments that no proper coloring extends,
so an empty one proves that there is none.

Fixed order.  The next vertex is the lowest free position, so the assigned
positions are always a prefix.  When position v takes a color, the search
checks only the edges whose second-to-last position is v.  An edge forbids
a color only when all its vertices but one are assigned, and with a prefix
assigned that holds from the moment its second-to-last position is: an edge
through v with a later second-to-last position still has two free vertices,
and one ending at v has none.  The witness is the one plain backtracking
gives: with a prefix assigned, "the colors in use plus one unused" is "at
most one above the largest color before v" (so the first vertex takes 0),
the colors are tried in the same ascending order, and forward checking and
backjumping cut only subtrees that hold no proper coloring, so the first
leaf reached in the same depth-first order is unchanged.  Backjumping keeps
this order from re-solving the positions between a dead end and its cause
over and over: on ``gen_random(n, n, seed=1)``, where chi = 2, the witness
takes 0.8 ms at n = 80, 1.4 ms at n = 100, 2.0 ms at n = 200, 19 ms at
n = 400 and 2.3 s at n = 1000 (Python 3.11, one core of a shared 2-CPU
machine).

DSATUR order (Brélaz, 1979).  The next vertex is the free one with the most
forbidden colors, then the most incident edges, then the lowest position.
Vertices are ranked once by degree, and the free ones are kept in one bitmask
over ranks per forbidden count, so the pick is the lowest set bit of the
highest non-empty bucket.  With no prefix to lean on, this order checks
every edge through the vertex.  Its coloring is not the first one, so only
its verdict is used.  It is kept for refutations: the fixed order did not
refute h2-tower(5) at k = 4 within ten minutes, and this order does it in
776,952 nodes and about 4.3 s (h2-tower(4) at k = 3: 357 nodes, against
4,777 in the fixed order).

When k^(n-1), the fixed order's largest possible number of leaves, is at
most ``_SMALL_TREE`` = 2^16 (n <= 17 at k = 2, n <= 11 at k = 3, n <= 9 at
k = 4), ``chromatic_number`` lets the fixed order settle k alone.

Cost: each view is one pass over the masks of ``hg.index`` (the DSATUR
view also reads its per-position edge lists), and ``find_proper_coloring``
builds the fixed view on each call.  A node costs one mask test per edge it
checks plus a trail entry per newly forbidden color; a backjump costs one
step per vertex it passes and one undo per trail entry it withdraws.  The
number of nodes is exponential in n in the worst case.  The search keeps
explicit stacks, so its depth is not bounded by Python's recursion limit.
"""

from __future__ import annotations

from .core import Coloring, DirectedHypergraph, HypergraphIndex, Value, _setattr

DEFAULT_MAX_K = 8
# chromatic_number lets the fixed order settle k alone, without the DSATUR
# verdict first, when k^(n-1), its most leaves, is at most this.  On random
# inputs the fixed order alone was the cheaper route up to 2^20 leaves; the
# lower cut bounds what skipping the verdict can cost on an adversarial input.
_SMALL_TREE = 2 ** 16


class ChromaticResult(Value):
    """Chromatic number up to a search bound; chi is None beyond max_k."""

    _fields = ("chi", "max_k", "witness")
    chi: int | None
    max_k: int
    witness: Coloring | None

    def __init__(self, chi: int | None, max_k: int, witness: Coloring | None) -> None:
        _setattr(self, "chi", chi)
        _setattr(self, "max_k", max_k)
        _setattr(self, "witness", witness)

    @property
    def exceeded(self) -> bool:
        return self.chi is None

    def __str__(self) -> str:
        return f">{self.max_k}" if self.chi is None else str(self.chi)


def _fixed_view(index: HypergraphIndex) -> list[list[int]]:
    """The masks of the edges whose second-to-last position is p, for each
    position p: the edges the fixed order checks when p takes a color."""
    closing: list[list[int]] = [[] for _ in range(index.n)]
    for mask in index.masks:
        rest = mask ^ 1 << mask.bit_length() - 1
        closing[rest.bit_length() - 1].append(mask)
    return closing


def _dsatur_view(index: HypergraphIndex) -> tuple[list[list[int]], list[int], list[int]]:
    """The masks of the edges through each position, the positions by
    descending degree (ties by position), and each position's bit in that
    order: what the DSATUR order reads."""
    masks = index.masks
    through = [[masks[k] for k in ks] for ks in index.edges_at]
    order = sorted(range(len(through)), key=lambda p: -len(through[p]))
    rank_bit = [0] * len(order)
    for r, p in enumerate(order):
        rank_bit[p] = 1 << r
    return through, order, rank_bit


def find_proper_coloring(hg: DirectedHypergraph, k: int) -> Coloring | None:
    """First proper k-coloring in lexicographic order (vertex 1 fixed to 0), or None."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if not all(mask & mask - 1 for mask in hg.index.masks):
        return None  # a single vertex can never see two color classes
    # A free position has at most n - 1 colors forbidden and the search
    # opens at most one color past those in use, so colors from n on are
    # never tried: searching with min(k, n) finds the same coloring.
    colors = _search(min(k, hg.n), _fixed_view(hg.index))
    return None if colors is None else Coloring(dict(zip(hg.vertices, colors)), k)


def _search(k: int, through: list[list[int]], order: list[int] | None = None,
            rank_bit: list[int] | None = None) -> list[int] | None:
    """The color of each position in a proper k-coloring, or None when there
    is none; in the fixed order, the first such coloring.  It runs in the
    order whose view it is given: ``_fixed_view`` alone, or the three parts
    of ``_dsatur_view``.  See the module docstring."""
    n = len(through)
    dsatur = order is not None
    if dsatur:
        # Free positions by number of forbidden colors (the popcount of
        # their forbidden mask), each as a bitmask over ranks, so the lowest
        # bit is the one of highest degree.
        buckets = [0] * (k + 1)
        buckets[0] = (1 << n) - 1
    full = (1 << k) - 1
    colors = [0] * n
    forbidden = [0] * n  # colors forbidden at each position, as bitmasks
    reason = [0] * (n * k)  # reason[p * k + c]: the positions that forbade c at p
    # What the failed colors of each position depend on; 0 while it is free
    # and has failed no color.
    conflict = [0] * n
    mark_at = [0] * n  # trail length when each assigned position took its color
    classes = [0] * k  # positions holding each color, as bitmasks
    free = (1 << n) - 1  # unassigned positions
    used = 0  # colors in use; they are 0 .. used - 1
    stack: list[int] = []  # assigned positions, in assignment order
    trail: list[int] = []  # (position, color) of each forbidden color, flattened

    v = -1  # the position trying colors; -1 means pick the next one
    c = -1
    while True:
        if v < 0:
            if not free:
                return colors
            if dsatur:
                f = k - 1
                while not buckets[f]:
                    f -= 1
                bits = buckets[f]
                rbit = bits & -bits
                buckets[f] = bits ^ rbit
                v = order[rbit.bit_length() - 1]
            else:  # the lowest free position
                v = len(stack)
            free ^= 1 << v
            c = -1
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
            if not culprits:
                return None
            conflict[v] = 0
            if dsatur:
                buckets[forbidden[v].bit_count()] |= rank_bit[v]
            free |= vbit
            while True:
                h = stack.pop()
                hbit = 1 << h
                c = colors[h]
                members = classes[c] ^ hbit
                classes[c] = members
                if not members:  # h was the first of the highest color in use
                    used -= 1
                if culprits & hbit:
                    break
                conflict[h] = 0
                if dsatur:
                    buckets[forbidden[h].bit_count()] |= rank_bit[h]
                free |= hbit
            conflict[h] |= culprits ^ hbit
            v = h
            mark = mark_at[h]
        else:
            members = classes[c] | vbit
            classes[c] = members
            mark = len(trail)
            cbit = 1 << c
            outside = ~members
            for e in through[v]:
                left = e & outside
                if left & (left - 1) or not left & free:
                    continue  # e is not the class c plus one free position
                u = left.bit_length() - 1
                ban = forbidden[u]
                if ban & cbit:
                    continue
                ban |= cbit
                forbidden[u] = ban
                reason[u * k + c] = e ^ left
                trail.append(u)
                trail.append(c)
                if dsatur:
                    rbit = rank_bit[u]
                    cnt = ban.bit_count()
                    buckets[cnt - 1] ^= rbit
                    buckets[cnt] |= rbit
                if ban == full:  # u has no color left: try v's next color
                    wiped = 0
                    for r in reason[u * k:u * k + k]:
                        wiped |= r
                    classes[c] = members ^ vbit
                    conflict[v] |= wiped & ~vbit
                    break
            else:
                colors[v] = c
                stack.append(v)
                mark_at[v] = mark
                if c == used:
                    used += 1
                v = -1
                continue
        # Withdraw what the assignments since the trail mark forbade.
        while len(trail) > mark:
            b = trail.pop()
            u = trail.pop()
            forbidden[u] ^= 1 << b
            if dsatur:
                rbit = rank_bit[u]
                cnt = forbidden[u].bit_count()
                buckets[cnt + 1] ^= rbit
                buckets[cnt] |= rbit


def chromatic_number(hg: DirectedHypergraph, max_k: int = DEFAULT_MAX_K) -> ChromaticResult:
    """Smallest k <= max_k admitting a proper k-coloring, with a witness.

    The witness is ``find_proper_coloring(hg, chi)``, the lexicographically
    first proper chi-coloring.
    """
    if max_k < 1:
        raise ValueError("max_k must be at least 1")
    masks = hg.index.masks
    if all(mask & mask - 1 for mask in masks):  # else every k fails
        view = None
        for k in range(2 if masks else 1, max_k + 1):
            # Edges are non-empty, so k = 1 is proper only without edges.
            if k ** (hg.n - 1) > _SMALL_TREE:
                if view is None:
                    view = _dsatur_view(hg.index)
                if _search(k, *view) is None:
                    continue
            witness = find_proper_coloring(hg, k)
            if witness is not None:
                return ChromaticResult(k, max_k, witness)
    return ChromaticResult(None, max_k, None)
