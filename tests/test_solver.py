import hashlib
import random

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


class TestChromaticNumber:
    def test_example_hypergraphs(self):
        assert chromatic_number(paper_i()).chi == 3
        assert chromatic_number(paper_r()).chi == 3

    def test_single_edge(self):
        assert chromatic_number(parse("e a b > c")).chi == 2

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
    # assignment, which is exactly what full k^n enumeration finds first.
    for hg in small_instances():
        assert hg.n <= 6
        for k in (1, 2, 3):
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
