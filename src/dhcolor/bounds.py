"""Edge-count bound for 3-uniform hypergraphs admitting a good coloring.

A good coloring colors the shadow graph (all vertex pairs covered by some
hyperedge) red/blue and orients the red edges so that every hyperedge looks
like an oriented apex: two red edges u->v, u->w and a blue edge vw.  Such a
coloring exists exactly when the hyperedges can be directed 2->1 avoiding the
R3 and E patterns (each hyperedge directed with its apex as the head), and it
caps the edge count at f(n) where

    f(0) = 1,   f(n) = max over k in 1..n-1 of C(k,2) * (n - k) + f(n - k).

f(1) is taken to be 1: the max ranges over an empty set there, and a
3-uniform hypergraph on one vertex has no edges, so the value keeps the bound
valid and the recursion total.

Cost.  ``induce_good_coloring`` runs the R3 and E checks, which walk only
the edge pairs sharing a vertex pair (see ``patterns``), then builds each
edge's three shadow pairs once and looks each up in the color table before
storing it: O(m) set and dict operations past the checks.
``verify_good_coloring`` builds each edge's three pairs once and decides the
apex shape from their three colors, reading the orientation of the red pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import DirectedHypergraph
from .patterns import contains_pattern

RED_PAIR = "red"
BLUE_PAIR = "blue"


class RoleConflictError(ValueError):
    """Two hyperedges demand incompatible colors/orientations of a shadow edge."""


_F_TABLE = [1, 1]  # f(0), f(1), ...: the values computed so far


def f_bound(n: int) -> int:
    """Evaluate the edge-count recurrence by dynamic programming, computing
    each f(m) once per process."""
    if n < 0:
        raise ValueError("n must be non-negative")
    table = _F_TABLE
    for m in range(len(table), n + 1):
        table.append(max(k * (k - 1) // 2 * (m - k) + table[m - k] for k in range(1, m)))
    return table[n]


@dataclass(frozen=True)
class GoodColoring:
    """Red/blue shadow-edge coloring with an orientation for the red edges."""

    hypergraph: DirectedHypergraph
    colors: Mapping[frozenset[str], str]
    orientation: Mapping[frozenset[str], tuple[str, str]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "colors", dict(self.colors))
        object.__setattr__(self, "orientation", dict(self.orientation))


def verify_good_coloring(gc: GoodColoring) -> bool:
    """True iff every hyperedge realizes the apex shape under the coloring.

    Raises on structural problems: a non-3-uniform edge, an uncolored shadow
    edge, or a red shadow edge without orientation.
    """
    colors = gc.colors
    orient = gc.orientation
    for e in gc.hypergraph.edges:
        verts = sorted(e.vertices)
        if len(verts) != 3:
            raise ValueError("good colorings are defined for 3-uniform hypergraphs")
        a, b, c = verts
        ab, ac, bc = pairs = (frozenset((a, b)), frozenset((a, c)), frozenset((b, c)))
        for pair in pairs:
            if pair not in colors:
                raise ValueError(f"shadow edge {set(pair)} is uncolored")
            if colors[pair] == RED_PAIR and pair not in orient:
                raise ValueError(f"red shadow edge {set(pair)} has no orientation")
        # An apex shape has exactly one blue pair, and the apex is the vertex
        # off it; its two red pairs must point away from the apex.
        cab, cac, cbc = colors[ab], colors[ac], colors[bc]
        if cbc == BLUE_PAIR:
            ok = (cab == cac == RED_PAIR and orient[ab] == (a, b) and orient[ac] == (a, c))
        elif cac == BLUE_PAIR:
            ok = (cab == cbc == RED_PAIR and orient[ab] == (b, a) and orient[bc] == (b, c))
        elif cab == BLUE_PAIR:
            ok = (cac == cbc == RED_PAIR and orient[ac] == (c, a) and orient[bc] == (c, b))
        else:
            ok = False
        if not ok:
            return False
    return True


def induce_good_coloring(hg: DirectedHypergraph) -> GoodColoring:
    """Read a good coloring off a 2->1 hypergraph avoiding R3 and E: each
    head-tail pair goes red oriented head to tail, each tail pair blue.

    A conflict on a shared shadow edge is impossible under the avoidance
    precondition and raises RoleConflictError if encountered anyway (for
    instance when two edges share a whole vertex set with different heads).
    """
    for pattern in ("R3", "E"):
        report = contains_pattern(hg, pattern)
        if not report.avoided:
            w = report.witnesses[0]
            raise ValueError(f"hypergraph contains {pattern} (edges {w.i},{w.j})")

    colors: dict[frozenset[str], str] = {}
    orientation: dict[frozenset[str], tuple[str, str]] = {}
    for e in hg.edges:
        head = min(e.head)
        t1, t2 = sorted(e.tail)
        # A pair met again must get its first color, and a red pair its first
        # arrow; a blue pair has no arrow.  (A membership test and a store
        # run faster here than one dict.setdefault call.)
        for t in (t1, t2):
            pair = frozenset((head, t))
            if pair not in colors:
                colors[pair] = RED_PAIR
                orientation[pair] = (head, t)
            elif colors[pair] != RED_PAIR or orientation[pair] != (head, t):
                raise _conflict(pair, colors[pair])
        pair = frozenset((t1, t2))
        if pair not in colors:
            colors[pair] = BLUE_PAIR
        elif colors[pair] != BLUE_PAIR:
            raise _conflict(pair, colors[pair])
    return GoodColoring(hg, colors, orientation)


def _conflict(pair: frozenset[str], old: str) -> RoleConflictError:
    return RoleConflictError(f"shadow edge {set(pair)} already {old}, conflicting assignment")
