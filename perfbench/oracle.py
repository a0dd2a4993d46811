"""Independent output checks for the benchmark.

Nothing here calls into dhcolor: properness, pair conditions, pattern
matching and the edge bound are restated from their definitions, so a fault
in a timed layer cannot hide itself by also breaking the check.  An edge is a
pair ``(tail, head)`` of frozensets of vertex names.
"""

from __future__ import annotations

import random
from functools import cache
from itertools import permutations

Edge = tuple[frozenset[str], frozenset[str]]

# Two-edge 2->1 patterns as (tails, head) templates over placeholders, taken
# from the pattern table in the paper summary.
PATTERNS = {
    "H2": ((("a", "b"), "c"), (("a", "b"), "d")),
    "I1": ((("a", "b"), "c"), (("a", "d"), "c")),
    "R3": ((("a", "b"), "c"), (("b", "c"), "d")),
    "E": ((("a", "b"), "c"), (("d", "c"), "b")),
    "I0": ((("a", "b"), "e"), (("c", "d"), "e")),
    "H1": ((("a", "b"), "c"), (("a", "d"), "e")),
    "R4": ((("a", "b"), "c"), (("c", "d"), "e")),
}


def parse_coloring_text(text: str) -> dict[str, int]:
    """Read ``<name> <index>`` lines; raises ValueError on anything else."""
    out: dict[str, int] = {}
    for line in text.splitlines():
        name, idx = line.split()
        if name in out:
            raise ValueError(f"{name} colored twice")
        out[name] = int(idx)
    return out


def coloring_errors(vertices: tuple[str, ...], edges: list[Edge],
                    colors: dict[str, int], k: int) -> list[str]:
    """Reasons the coloring is not a proper k-coloring of every vertex."""
    errors = []
    if set(colors) != set(vertices):
        errors.append("coloring does not cover exactly the input vertices")
        return errors
    if any(not 0 <= c < k for c in colors.values()):
        errors.append(f"color index outside 0..{k - 1}")
    for i, (tail, head) in enumerate(edges):
        if len({colors[v] for v in tail | head}) == 1:
            errors.append(f"edge {i} is monochromatic")
            break
    return errors


def _single_shared(e1: Edge, e2: Edge) -> str | None:
    common = (e1[0] | e1[1]) & (e2[0] | e2[1])
    return next(iter(common)) if len(common) == 1 else None


def pair_violates(cond: str, e1: Edge, e2: Edge) -> bool:
    """Whether the pair breaks the named intersection condition."""
    if cond in ("h2-two-intersect", "tails-only-2-intersect"):
        common = (e1[0] | e1[1]) & (e2[0] | e2[1])
        if len(common) != 2:
            return False
        if cond == "h2-two-intersect":
            return not (common & (e1[1] | e2[1]))
        return not (e1[0] == common and e2[0] == common)
    v = _single_shared(e1, e2)
    if v is None:
        return False
    head1, head2 = v in e1[1], v in e2[1]
    ok = {
        "onehead-h1": head1 or head2,
        "i0-free": not (head1 and head2),
        "r4-free": head1 == head2,
        "i0r4-free": not head1 and not head2,
        "lovasz": False,
    }[cond]
    return not ok


def pair_matches(pattern: str, e1: Edge, e2: Edge) -> bool:
    """Whether the 2->1 pair realizes the pattern under an injective map."""
    (tails1, head1), (tails2, head2) = PATTERNS[pattern]
    for f1, f2 in ((e1, e2), (e2, e1)):
        (h,) = f1[1]
        for t0, t1 in permutations(f1[0]):
            mp = {tails1[0]: t0, tails1[1]: t1, head1: h}
            fresh = [p for p in (*tails2, head2) if p not in mp]
            free = sorted((f2[0] | f2[1]) - set(mp.values()))
            for image in permutations(free, len(fresh)):
                full = {**mp, **dict(zip(fresh, image))}
                if (f2[1] == frozenset((full[head2],))
                        and f2[0] == frozenset(full[p] for p in tails2)):
                    return True
    return False


def count_violations(check: str, edges: list[Edge]) -> int:
    """Number of edge pairs failing a condition or matching a pattern."""
    test = (lambda a, b: pair_matches(check, a, b)) if check in PATTERNS else (
        lambda a, b: pair_violates(check, a, b))
    m = len(edges)
    return sum(test(edges[i], edges[j]) for i in range(m) for j in range(i + 1, m))


def witness_ok(check: str, edges: list[Edge], i: int, j: int) -> bool:
    """Whether the reported pair (i, j) really is a witness for the check."""
    if not 0 <= i < j < len(edges):
        return False
    if check in PATTERNS:
        return pair_matches(check, edges[i], edges[j])
    return pair_violates(check, edges[i], edges[j])


def useful_pairs(edges: list[Edge]) -> int:
    """Edge pairs sharing at least one vertex, counted through incidence masks."""
    incident: dict[str, int] = {}
    for i, (tail, head) in enumerate(edges):
        for v in tail | head:
            incident[v] = incident.get(v, 0) | (1 << i)
    total = 0
    for i, (tail, head) in enumerate(edges):
        mask = 0
        for v in tail | head:
            mask |= incident[v]
        total += (mask >> (i + 1)).bit_count()
    return total


@cache
def f_bound(n: int) -> int:
    """The good-coloring edge bound, by memoized top-down recursion."""
    if n <= 1:
        return 1
    return max(k * (k - 1) // 2 * (n - k) + f_bound(n - k) for k in range(1, n))


class SpeedKernel:
    """The speed reference: a plain backtracking search for a proper
    3-coloring of a fixed random 3-uniform hypergraph (12 vertices, 120
    edges), the same work on every call.  Of the kernels tried, this one's
    time tracked the benchmark's ops best across the host's fast and slow
    spells (within 4% for solver, check and fuzz ops; a pair-scan kernel was
    off by 8-13%)."""

    def __init__(self, n: int = 12, m: int = 120, seed: int = 1) -> None:
        rng = random.Random(seed)
        edges = [tuple(rng.sample(range(n), 3)) for _ in range(m)]
        self.incident = [[e for e in edges if v in e] for v in range(n)]

    def __call__(self, k: int = 3) -> bool:
        incident, colors = self.incident, [-1] * len(self.incident)

        def fits(v: int) -> bool:
            return not any(all(colors[u] == colors[v] for u in e) for e in incident[v])

        def extend(v: int) -> bool:
            if v == len(colors):
                return True
            for c in range(k):
                colors[v] = c
                if fits(v) and extend(v + 1):
                    return True
            colors[v] = -1
            return False

        return extend(0)
