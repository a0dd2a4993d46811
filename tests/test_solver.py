import hashlib
import random
import time
import tracemalloc

import pytest

from dhcolor import (
    CONDITION_IDS,
    Coloring,
    DirectedEdge,
    DirectedHypergraph,
    chromatic_number,
    find_proper_coloring,
    gen_h2_tower,
    gen_perm_tower,
    gen_random,
    is_proper,
    paper_i,
    paper_r,
    parse,
)
from dhcolor import solver
from dhcolor.solver import _dsatur_view, _search
from oracles import naive_first_proper


class TestFindProperColoring:
    def test_paper_i_needs_three(self):
        hg = paper_i()
        assert find_proper_coloring(hg, 2) is None
        witness = find_proper_coloring(hg, 3)
        assert witness is not None and is_proper(hg, witness)

    def test_edgeless_one_color(self):
        hg = parse("v a\nv b")
        witness = find_proper_coloring(hg, 1)
        assert witness == Coloring({"a": 0, "b": 0}, 1)

    def test_k_below_one(self):
        with pytest.raises(ValueError):
            find_proper_coloring(parse("v a"), 0)

    def test_single_vertex_edge_never_colorable(self):
        hg = parse("e a >")
        assert find_proper_coloring(hg, 5) is None

    def test_empty_hypergraph(self):
        hg = DirectedHypergraph((), ())
        assert find_proper_coloring(hg, 1) == Coloring({}, 1)
        assert find_proper_coloring(hg, 3) == Coloring({}, 3)

    def test_search_depth_is_not_bounded_by_recursion_limit(self):
        # 5,000 vertices on a chain of 2->1 edges, each sharing its head with
        # the next edge's tail: one search level per vertex.
        hg = parse("".join(f"e v{i} v{i + 1} > v{i + 2}\n" for i in range(0, 4998, 2)) + "v v4999")
        assert hg.n == 5000
        assert find_proper_coloring(hg, 1) is None
        witness = find_proper_coloring(hg, 2)
        assert witness is not None and is_proper(hg, witness)
        result = chromatic_number(hg)
        assert result.chi == 2 and result.witness == witness

    def test_memory_does_not_grow_with_k_past_n(self):
        # The search never opens a color from n on, so a palette of a
        # million costs what one of n does and gives the same witness.
        hg = paper_i()
        expected = find_proper_coloring(hg, 5)
        tracemalloc.start()
        try:
            witness = find_proper_coloring(hg, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert witness.k == 10**6 and dict(witness.assignment) == dict(expected.assignment)


class TestChromaticNumber:
    def test_example_hypergraphs(self):
        assert chromatic_number(paper_i()).chi == 3
        assert chromatic_number(paper_r()).chi == 3

    def test_single_edge(self):
        assert chromatic_number(parse("e a b > c")).chi == 2

    def test_edgeless_one_color(self):
        for names in ((), ("a",), tuple(f"v{i}" for i in range(12))):
            result = chromatic_number(DirectedHypergraph(names, ()))
            assert result.chi == 1
            assert result.witness == Coloring(dict.fromkeys(names, 0), 1)

    def test_witness_uses_exactly_chi_colors(self):
        for hg in (paper_i(), paper_r(), parse("e a b > c")):
            result = chromatic_number(hg)
            assert result.witness.k == result.chi
            assert result.witness.colors_used() == result.chi
            assert is_proper(hg, result.witness)

    def test_exceeded_marker(self):
        result = chromatic_number(parse("e a b > c"), max_k=1)
        assert result.chi is None and result.exceeded
        assert str(result) == ">1"

    def test_str(self):
        assert str(chromatic_number(paper_i())) == "3"

    def test_rejects_max_k_below_1(self):
        for max_k in (0, -1):
            with pytest.raises(ValueError) as err:
                chromatic_number(parse("e a b > c"), max_k=max_k)
            assert str(err.value) == "max_k must be at least 1"

    def test_long_odd_cycle(self):
        # 5,001 vertices: the verdict search refutes k = 2 along the whole
        # cycle, so each vertex pick must not scan the free vertices.
        hg = parse("".join(f"e v{i} > v{(i + 1) % 5001}\n" for i in range(5001)))
        start = time.perf_counter()
        result = chromatic_number(hg)
        elapsed = time.perf_counter() - start
        assert result.chi == 3 and is_proper(hg, result.witness)
        assert result.witness == find_proper_coloring(hg, 3)
        assert elapsed < 1.0, elapsed

    def test_sparse_random_witness_does_not_thrash(self):
        # A chronological fixed-order search took over 50 s here: it kept
        # re-solving the positions between a dead end and its cause.
        hg = gen_random(200, 200, seed=1)
        start = time.perf_counter()
        result = chromatic_number(hg)
        elapsed = time.perf_counter() - start
        assert result.chi == 2 and is_proper(hg, result.witness)
        assert result.witness == find_proper_coloring(hg, 2)
        assert elapsed < 2.0, elapsed


def small_instances():
    instances = [
        parse("v a"),
        parse("e a b > c"),
        parse("e a b > c\ne c d > a"),
        parse("e a b c > d\ne b > c d"),  # non-uniform, multi-head
        paper_i().with_vertex_order(("v3", "v1", "v5", "v2", "v4")),
    ]
    for seed in range(40):
        instances.append(gen_random(n=3 + seed % 4, m=seed % 8, cond="none", seed=seed))
    return instances


def test_agreement_with_naive_enumeration():
    # The backtracking search must return the lexicographically first proper
    # assignment, which is exactly what full k^n enumeration finds first,
    # also with more colors than vertices.
    for hg in small_instances():
        assert hg.n <= 6
        for k in (1, 2, 3, hg.n + 2):
            naive = naive_first_proper(hg, k)
            mine = find_proper_coloring(hg, k)
            if naive is None:
                assert mine is None, (hg, k)
            else:
                assert mine is not None and dict(mine.assignment) == naive, (hg, k)


def general_instances():
    # Edges of 2 to 5 vertices with any split into tail and head, so
    # multi-head, headless, tailless and two-vertex edges all occur, under a
    # shuffled vertex order.
    rng = random.Random(2024)
    instances = []
    for _ in range(150):
        n = rng.randint(2, 8)
        names = [f"x{i}" for i in range(n)]
        edges = []
        for _ in range(rng.randint(0, 3 * n)):
            vs = rng.sample(names, rng.randint(2, min(n, 5)))
            cut = rng.randint(0, len(vs))
            edges.append(DirectedEdge(frozenset(vs[:cut]), frozenset(vs[cut:])))
        rng.shuffle(names)
        instances.append(DirectedHypergraph(tuple(names), tuple(edges)))
    return instances


def test_agreement_with_naive_enumeration_on_general_edges():
    for hg in general_instances():
        for k in (1, 2, 3, 4):
            naive = naive_first_proper(hg, k)
            mine = find_proper_coloring(hg, k)
            if naive is None:
                assert mine is None, (hg, k)
            else:
                assert mine is not None and dict(mine.assignment) == naive, (hg, k)


def _witness_digest(instances):
    digest = hashlib.sha256()
    for hg in instances:
        for k in (2, 3, 4):
            w = find_proper_coloring(hg, k)
            row = "-" if w is None else " ".join(str(w.assignment[v]) for v in hg.vertices)
            digest.update(f"{k}: {row}\n".encode())
    return digest.hexdigest()[:16]


# sha256 (first 16 hex digits) of the witnesses, or their absence, for
# k = 2..4, recorded with the plain backtracking search that forward
# checking replaced.
PINNED_WITNESSES = {
    "random-18": ("2ce1a50702b752aa",
                  lambda: [gen_random(18, 14 * 18, seed=s) for s in range(16)]),
    "random-10-14": ("507d0fb5c1fe0fce",
                     lambda: [gen_random(n, 4 * n, cond=c, seed=n, tail_range=(2, 2 + n % 3))
                              for n in range(10, 15) for c in ("none", *CONDITION_IDS)]),
    "examples": ("e30fb7b155a5f1e7",
                 lambda: [paper_i(), paper_r(), gen_h2_tower(3), gen_h2_tower(4), gen_perm_tower(3)]),
}


@pytest.mark.parametrize("group", sorted(PINNED_WITNESSES))
def test_pinned_witnesses(group):
    expected, instances = PINNED_WITNESSES[group]
    assert _witness_digest(instances()) == expected


def _chromatic_digest(instances):
    digest = hashlib.sha256()
    for hg in instances:
        result = chromatic_number(hg)
        w = result.witness
        row = "-" if w is None else " ".join(str(w.assignment[v]) for v in hg.vertices)
        digest.update(f"{result.chi}: {row}\n".encode())
    return digest.hexdigest()[:16]


# sha256 (first 16 hex digits) of chromatic_number's chi and witness on the
# PINNED_WITNESSES groups, recorded when it ran the fixed-order search at
# every k.
PINNED_CHROMATIC = {
    "random-18": "87c8c710d0476ac2",
    "random-10-14": "f6a319c85930ea99",
    "examples": "85f8cb5d8aade0dc",
}


# chromatic_number takes the witness search's own verdict at k when that
# search has at most _SMALL_TREE leaves; a cut of 0 sends every k >= 2
# through the verdict search instead.  Both routes must give the same result.
BOTH_ROUTES = pytest.mark.parametrize("cut", [0, solver._SMALL_TREE], ids=["verdict", "default"])


@BOTH_ROUTES
@pytest.mark.parametrize("group", sorted(PINNED_CHROMATIC))
def test_pinned_chromatic_numbers(group, cut, monkeypatch):
    monkeypatch.setattr(solver, "_SMALL_TREE", cut)
    _, instances = PINNED_WITNESSES[group]
    assert _chromatic_digest(instances()) == PINNED_CHROMATIC[group]


# Colorable inputs (k = 2 and k = 3) on which the verdict search wrongly
# answers "no" if a wiped-out vertex's reasons are left out of the conflict
# set, and the first also if a backjump replaces its target's conflict set
# instead of extending it.  Found by searching small planted instances, then
# shrunk edge by edge.
BACKJUMP_TRAPS = (
    "e x2 x4 x7 > | e x0 x7 > | e x0 x1 x2 x8 > | e x4 > x0 x6 | e x2 x6 > | e x6 > x0 x1 x3"
    " | e x0 x1 x7 > x8 | e > x6 x8 | e x8 > x0 x1 x5 | e x4 > x2 x3 x7",
    "e > x3 x8 | e x2 x6 > x3 | e x1 > x4 | e x2 x8 > | e > x3 x4 | e x2 > x3 x5 x8 | e x1 x6 >"
    " | e x6 > x4 | e x3 > x1 | e > x2 x5 x8",
)


def verdict_instances():
    # gen_random draws with n 4..12 and tails 1..3, then general edges.
    instances = []
    for seed in range(400):
        rng = random.Random(seed)
        n, tails = rng.randint(4, 12), rng.randint(1, 3)
        instances.append(gen_random(n, rng.randint(0, 4 * n), cond="none", seed=seed,
                                    tail_range=(tails, tails)))
    traps = [parse("".join(f"v x{i}\n" for i in range(9)) + text.replace(" | ", "\n"))
             for text in BACKJUMP_TRAPS]
    return instances + general_instances() + traps


def test_verdict_search_agrees_with_witness_search():
    verdicts = set()
    for hg in verdict_instances():
        # A single-vertex edge fails every k before any search runs.
        searched = all(mask & mask - 1 for mask in hg.index.masks)
        view = _dsatur_view(hg.index)
        for k in (1, 2, 3, 4):
            expected = find_proper_coloring(hg, k) is not None
            assert (searched and _search(k, *view) is not None) == expected, (hg, k)
            verdicts.add((k, expected))
    assert verdicts == {(k, v) for k in (1, 2, 3, 4) for v in (False, True)}


# sha256 (first 16 hex digits) of the DSATUR order's own colorings, or
# their absence, for k = 2..5: 320 searches, 199 of them feasible.  Its
# coloring is not the first one, so this pins the order it picks vertices in.
PINNED_DSATUR_COLORINGS = "b996e7fa91ee7ac4"


def test_pinned_dsatur_colorings():
    instances = ([paper_i(), paper_r(), gen_h2_tower(3), gen_h2_tower(4), gen_perm_tower(3)]
                 + [gen_random(18, 14 * 18, seed=s) for s in range(40)]
                 + [gen_random(n, 3 * n, seed=n) for n in range(5, 40)])
    digest = hashlib.sha256()
    for hg in instances:
        view = _dsatur_view(hg.index)
        for k in (2, 3, 4, 5):
            digest.update(repr(_search(k, *view)).encode())
    assert digest.hexdigest()[:16] == PINNED_DSATUR_COLORINGS


@BOTH_ROUTES
def test_chromatic_number_is_first_k_with_a_witness(cut, monkeypatch):
    monkeypatch.setattr(solver, "_SMALL_TREE", cut)
    for hg in verdict_instances():
        result = chromatic_number(hg, max_k=4)
        witnesses = [find_proper_coloring(hg, k) for k in (1, 2, 3, 4)]
        first = next((k for k, w in zip((1, 2, 3, 4), witnesses) if w is not None), None)
        assert result.chi == first, hg
        assert result.witness == (None if first is None else witnesses[first - 1]), hg


def test_colorability_is_monotone_in_k():
    for hg in small_instances():
        for k in (1, 2, 3):
            if find_proper_coloring(hg, k) is not None:
                assert find_proper_coloring(hg, k + 1) is not None


def test_chi_monotone_under_edge_changes():
    rng = random.Random(5)
    for seed in range(25):
        hg = gen_random(n=5, m=6, cond="none", seed=seed)
        if not hg.edges:
            continue
        base = chromatic_number(hg).chi
        smaller = DirectedHypergraph(
            hg.vertices, tuple(e for i, e in enumerate(hg.edges) if i != rng.randrange(len(hg.edges)))
        )
        assert chromatic_number(smaller).chi <= base
