import hashlib
import json
import pickle
import random
from dataclasses import dataclass
from itertools import combinations, product

import pytest

from dhcolor import (
    CONDITION_IDS,
    PATTERN_EDGES,
    PATTERN_IDS,
    DirectedHypergraph,
    check_condition,
    classify_intersection,
    classify_pair,
    contains_pattern,
    edge,
    gen_h2_tower,
    gen_perm_tower,
    gen_random,
    is_two_to_one,
    normalize,
    paper_i,
    paper_r,
    parse,
    serialize,
)
from dhcolor import cli, core, patterns
from dhcolor.patterns import (
    _PATTERN_CODES,
    ALL_ROLES,
    HEAD_HEAD,
    HEAD_TAIL,
    TAIL_TAIL,
    VIOLATING_CODES,
    IntersectionProfile,
    PatternReport,
    matching_partners,
    pair_code,
    pair_roles_of,
    roles_of,
)
from oracles import (
    ALL_CLASSES,
    CANDIDATE_KEYS,
    all_two_one_edges,
    naive_candidates,
    naive_condition_witnesses,
    naive_normalized_edges,
    naive_pair_contains,
    naive_pair_violates,
    naive_pattern_witnesses,
)


def pattern_instance(pattern):
    """The pattern itself as a concrete hypergraph."""
    (t1, h1), (t2, h2) = PATTERN_EDGES[pattern]
    verts = tuple(sorted({*t1, h1, *t2, h2}))
    return DirectedHypergraph(verts, (edge(t1, [h1]), edge(t2, [h2])))


class TestClassifyIntersection:
    def test_single_tail_tail(self):
        hg = parse("e a b > c\ne a d > e")
        prof = classify_intersection(hg, 0, 1)
        assert prof.common == (("a", "tail", "tail"),)

    def test_crossed_roles(self):
        hg = parse("e a b > c\ne d c > b")
        prof = classify_intersection(hg, 0, 1)
        assert prof.common == (("b", "tail", "head"), ("c", "head", "tail"))

    def test_disjoint(self):
        hg = parse("e a b > c\ne d e > f")
        assert classify_intersection(hg, 0, 1).common == ()

    def test_symmetric_under_edge_swap(self):
        hg = parse("e a b > c\ne d c > b")
        swapped = DirectedHypergraph(hg.vertices, (hg.edges[1], hg.edges[0]))
        left = classify_intersection(hg, 0, 1)
        right = classify_intersection(swapped, 0, 1)
        assert left.common == tuple((v, r2, r1) for v, r1, r2 in right.common)

    def test_index_errors(self):
        hg = parse("e a b > c")
        for pair in ((0, 0), (1, 0), (0, 5)):
            with pytest.raises(IndexError):
                classify_intersection(hg, *pair)

    def test_pair_out_of_order_names_the_rule(self):
        # Both indices are in range here; the pair must still ascend.
        hg = parse("e a b > c\ne a d > e")
        for pair in ((1, 0), (0, 0)):
            with pytest.raises(IndexError, match=rf"^edge pair \({pair[0]}, {pair[1]}\) "
                                                 r"needs 0 <= i < j < 2$"):
                classify_intersection(hg, *pair)


class TestContainsPattern:
    def test_each_pattern_recognizes_itself(self):
        for pattern in PATTERN_IDS:
            hg = pattern_instance(pattern)
            for other in PATTERN_IDS:
                report = contains_pattern(hg, other)
                assert report.avoided == (other != pattern), (pattern, other)

    def test_h2_witness(self):
        hg = parse("e a b > c\ne a b > d")
        report = contains_pattern(hg, "H2")
        assert not report.avoided
        assert [(w.i, w.j) for w in report.witnesses] == [(0, 1)]

    def test_single_edge_avoids_all(self):
        hg = parse("e a b > c")
        assert all(contains_pattern(hg, p).avoided for p in PATTERN_IDS)

    def test_paper_i_avoids_i0(self):
        assert contains_pattern(paper_i(), "I0").avoided

    def test_rejects_non_two_one(self):
        hg = parse("e a b c > d")
        with pytest.raises(ValueError):
            contains_pattern(hg, "H2")

    def test_rejects_unknown_pattern(self):
        with pytest.raises(ValueError):
            contains_pattern(parse("e a b > c"), "X9")

    def test_classify_pair_rejects_non_two_one(self):
        # Shared as in H2 (tails a, b) and as in I0 (head c), but not 2->1 edges.
        for e1, e2 in ((edge("abx", "c"), edge("aby", "d")), (edge("a", "bc"), edge("d", "ce"))):
            with pytest.raises(ValueError, match="2->1 edges only"):
                classify_pair(e1, e2)

    def test_identical_vertex_sets_match_nothing(self):
        # A shared 3-vertex set is a 3-intersection, outside all seven shapes.
        hg = parse("e a b > c\ne a c > b")
        assert all(contains_pattern(hg, p).avoided for p in PATTERN_IDS)


class TestCheckCondition:
    def test_h1_violates_onehead(self):
        hg = pattern_instance("H1")
        report = check_condition(hg, "onehead-h1")
        assert not report.avoided
        assert report.witnesses[0].common == (("a", "tail", "tail"),)

    def test_paper_r_is_r4_free(self):
        assert check_condition(paper_r(), "r4-free").avoided

    def test_disjoint_edges_satisfy_everything(self):
        hg = parse("e a b > c\ne d e > f")
        assert all(check_condition(hg, cond).avoided for cond in CONDITION_IDS)

    def test_lovasz(self):
        assert not check_condition(pattern_instance("H1"), "lovasz").avoided
        assert check_condition(pattern_instance("H2"), "lovasz").avoided

    def test_accepts_non_uniform(self):
        hg = parse("e a b c > d\ne d e > f g")
        report = check_condition(hg, "r4-free")
        assert not report.avoided  # d is head of one, tail of the other

    def test_rejects_unknown_condition(self):
        with pytest.raises(ValueError):
            check_condition(parse("e a b > c"), "no-such-cond")


def test_report_refuses_an_avoided_flag_that_disagrees_with_its_witnesses():
    witness = check_condition(pattern_instance("H1"), "onehead-h1").witnesses[0]
    for avoided, witnesses in ((True, (witness,)), (False, ())):
        with pytest.raises(ValueError) as err:
            PatternReport("onehead-h1", avoided, witnesses)
        assert str(err.value) == "avoided flag inconsistent with witness list"


CONDITION_PATTERN_EQUIV = {
    "onehead-h1": {"H1"},
    "i0-free": {"I0"},
    "r4-free": {"R4"},
    "i0r4-free": {"I0", "R4"},
    "h2-two-intersect": {"H2"},
    "tails-only-2-intersect": {"I1", "R3", "E"},
}


def test_condition_pattern_equivalences_on_random_two_one_instances():
    # For 2->1 hypergraphs each condition is exactly avoidance of its patterns.
    for seed in range(120):
        hg = gen_random(n=4 + seed % 5, m=2 + seed % 9, cond="none", seed=seed)
        for cond, patterns in CONDITION_PATTERN_EQUIV.items():
            expected = all(contains_pattern(hg, p).avoided for p in patterns)
            assert check_condition(hg, cond).avoided == expected, (seed, cond)


class TestAgainstNaiveOracle:
    def test_all_edge_pairs_on_five_vertices(self):
        # classify_pair against full injective-map containment, every pair.
        edges = all_two_one_edges(tuple("abcde"))
        assert len(edges) == 30
        for e1, e2 in combinations(edges, 2):
            mine = classify_pair(e1, e2)
            naive = {p for p in PATTERN_IDS if naive_pair_contains(e1, e2, p)}
            assert naive == ({mine} if mine else set()), (e1, e2)

    def test_exhaustive_instances_five_vertices_four_edges(self):
        # contains_pattern on every <=4-edge instance over 5 vertices, checked
        # against the pair tables built by the naive oracle above.  Isolated
        # vertices cannot affect containment, so n=5 subsumes smaller n.
        names = tuple("abcde")
        edges = all_two_one_edges(names)
        table = {}
        for i, j in combinations(range(len(edges)), 2):
            found = frozenset(
                p for p in PATTERN_IDS if naive_pair_contains(edges[i], edges[j], p)
            )
            table[(i, j)] = found
        checked = 0
        for m in range(5):
            for subset in combinations(range(len(edges)), m):
                hg = DirectedHypergraph(names, tuple(edges[i] for i in subset))
                naive_found = frozenset().union(
                    *(table[pair] for pair in combinations(subset, 2))
                ) if m >= 2 else frozenset()
                for pattern in PATTERN_IDS:
                    report = contains_pattern(hg, pattern)
                    assert report.avoided == (pattern not in naive_found), (subset, pattern)
                    assert report.avoided == (not report.witnesses)
                checked += 1
        assert checked == 1 + 30 + 435 + 4060 + 27405


def general_instance(seed):
    """Seeded hypergraph mixing the shapes the pair kernel must handle: tails
    of 2..5, multi-head and empty-side edges, edges repeating another edge's
    vertex set under other roles, and edges disjoint from the rest."""
    rng = random.Random(seed)
    n = rng.randint(3, 14)
    names = [f"x{i}" for i in range(n)]
    edges = []
    for _ in range(rng.randint(0, 3 * n)):
        roll = rng.random()
        if edges and roll < 0.15:
            vs = sorted(edges[rng.randrange(len(edges))].vertices)
            cut = rng.randint(0, len(vs))
            rng.shuffle(vs)
            edges.append(edge(vs[:cut], vs[cut:]))
            continue
        tails = rng.randint(2, min(5, n - 1))
        heads = 1 if roll < 0.7 else rng.randint(0, n - tails)
        vs = rng.sample(names, max(tails + heads, 1))
        edges.append(edge(vs[:tails], vs[tails:]))
    rng.shuffle(names)
    return DirectedHypergraph(tuple(names), tuple(edges))


def _role(v, e1, e2):
    """Role class of a vertex shared by two edges."""
    h1, h2 = v in e1.head, v in e2.head
    return HEAD_HEAD if h1 and h2 else HEAD_TAIL if h1 or h2 else TAIL_TAIL


def walked_pairs(keys, roles):
    """The pairs i < j that the crossings for `roles` meet at some key, in
    ascending order, each once: the pairs _witnesses tests."""
    met = set()
    for rows, lists, _, _ in patterns._crossings(keys, roles):
        for i, row in enumerate(rows):
            for key in row:
                met.update((i, j) for j in lists[key] if j > i)
    return sorted(met)


KERNEL_INSTANCES = (
    [general_instance(seed) for seed in range(150)]
    + [gen_random(n=12, m=30, cond=cond, seed=seed, tail_range=(2, 5))
       for cond in ("none",) + CONDITION_IDS for seed in range(4)]
    + [paper_i(), paper_r(), gen_h2_tower(4), gen_perm_tower(3)]
)


class TestPairKernelAgainstAllPairs:
    """check_condition and normalize against all-pairs scans over vertex sets."""

    def test_condition_witness_rows_and_order(self):
        for idx, hg in enumerate(KERNEL_INSTANCES):
            for cond in CONDITION_IDS:
                report = check_condition(hg, cond)
                rows = [(w.i, w.j, w.common) for w in report.witnesses]
                assert rows == naive_condition_witnesses(hg, cond), (idx, cond)
                assert report.avoided == (not rows)

    def test_normalize_kept_edges(self):
        for idx, hg in enumerate(KERNEL_INSTANCES):
            out = normalize(hg)
            assert out.edges == naive_normalized_edges(hg), idx
            assert out.vertices == hg.vertices

    def test_every_code_guarantees_its_role_class(self):
        seen = set()
        for hg in KERNEL_INSTANCES:
            masks = list(zip(hg.index.head_masks, hg.index.tail_masks))
            for (i, e1), (j, e2) in combinations(enumerate(hg.edges), 2):
                code = pair_code(*masks[i], *masks[j])
                seen.add(code)
                classes = {_role(v, e1, e2) for v in e1.vertices & e2.vertices}
                assert roles_of(1 << code) in (classes if code else {0}), (i, j, code)
        assert seen == set(range(9))

    def test_role_filtered_walk(self):
        for idx, hg in enumerate(KERNEL_INSTANCES):
            classes = {
                (i, j): {_role(v, e1, e2) for v in e1.vertices & e2.vertices}
                for (i, e1), (j, e2) in combinations(enumerate(hg.edges), 2)
            }
            for roles in range(1, ALL_ROLES + 1):  # ALL_ROLES: every vertex-sharing pair
                walked = walked_pairs(hg.index, roles)
                assert walked == [p for p, c in classes.items() if any(r & roles for r in c)], (
                    idx, roles)

    def test_violating_codes_need_their_role_classes(self):
        assert roles_of(VIOLATING_CODES["i0-free"]) == HEAD_HEAD
        assert roles_of(VIOLATING_CODES["r4-free"]) == HEAD_TAIL
        assert roles_of(VIOLATING_CODES["onehead-h1"]) == TAIL_TAIL
        assert roles_of(VIOLATING_CODES["i0r4-free"]) == HEAD_HEAD | HEAD_TAIL
        assert roles_of(VIOLATING_CODES["lovasz"]) == ALL_ROLES

    def test_instances_cover_the_shapes(self):
        edges = [e for hg in KERNEL_INSTANCES for e in hg.edges]
        assert {len(e.tail) for e in edges} >= {2, 3, 4, 5}
        assert any(len(e.head) > 1 for e in edges)
        assert any(not e.head for e in edges)
        assert any(len({e.vertices for e in hg.edges}) < len(hg.edges)
                   for hg in KERNEL_INSTANCES)
        assert any(not (e1.vertices & e2.vertices)
                   for hg in KERNEL_INSTANCES for e1, e2 in combinations(hg.edges, 2))


PATTERN_INSTANCES = (
    [hg for hg in KERNEL_INSTANCES if is_two_to_one(hg)]
    + [gen_h2_tower(5)]
    + [gen_random(n=12, m=30, cond=cond, seed=seed)
       for cond in ("none",) + CONDITION_IDS for seed in range(4)]
)


class TestPatternWitnessesAgainstInjectiveMaps:
    """contains_pattern's witness rows against an all-pairs injective-map scan."""

    def test_witness_rows_and_order(self):
        for idx, hg in enumerate(PATTERN_INSTANCES):
            for pattern in PATTERN_IDS:
                report = contains_pattern(hg, pattern)
                rows = [(w.i, w.j, w.common) for w in report.witnesses]
                assert rows == naive_pattern_witnesses(hg, pattern), (idx, pattern)

    def test_instances_realize_every_pattern(self):
        found = {p for hg in PATTERN_INSTANCES for p in PATTERN_IDS
                 if not contains_pattern(hg, p).avoided}
        assert found == set(PATTERN_IDS)


def shared_count_instance():
    """Three base edges (2->1, 3->1 and 2->2) each followed by partners that
    share 0..4 of its vertices, every shared vertex a head or a tail of the
    partner, topped up with fresh tails (and a fresh head when none is
    shared)."""
    names = tuple("abcdwxyz")
    base = (edge("ab", "c"), edge("abc", "d"), edge("ab", "cd"))
    edges = []
    for b in base:
        edges.append(b)
        vs = sorted(b.vertices)
        for k in range(len(vs) + 1):
            for shared in combinations(vs, k):
                for as_head in product((False, True), repeat=k):
                    heads = [v for v, h in zip(shared, as_head) if h] or ["z"]
                    tails = [v for v, h in zip(shared, as_head) if not h]
                    tails += ["w", "x"][:max(0, 3 - k)]
                    edges.append(edge(tails, heads))
    return DirectedHypergraph(names, tuple(edges))


CODE_MASKS = {**VIOLATING_CODES, **_PATTERN_CODES}


class TestMatchingPartners:
    """The kernel against pair_code, one pair at a time, and against the
    naive per-pair condition oracle."""

    INSTANCES = KERNEL_INSTANCES + [shared_count_instance()]

    def test_yields_exactly_the_partners_in_the_mask(self):
        rng = random.Random(8)
        for idx, hg in enumerate(self.INSTANCES):
            heads, tails = hg.index.head_masks, hg.index.tail_masks
            masks = list(zip(heads, tails))
            m = len(masks)
            codes = [[pair_code(*masks[i], *masks[j]) for j in range(m)] for i in range(m)]
            for i in range(m):
                h1, t1 = masks[i]
                partners = [j for j in range(m) if j != i]
                rng.shuffle(partners)  # any order, kept as given
                for name, mask in CODE_MASKS.items():
                    got = list(matching_partners(h1, t1, partners, heads, tails, mask))
                    want = [(j, codes[i][j]) for j in partners if mask >> codes[i][j] & 1]
                    assert got == want, (idx, i, name)

    def test_condition_verdicts_match_the_naive_oracle(self):
        for idx, hg in enumerate(self.INSTANCES):
            heads, tails = hg.index.head_masks, hg.index.tail_masks
            masks = list(zip(heads, tails))
            for i, e1 in enumerate(hg.edges):
                for cond in CONDITION_IDS:
                    hits = {j for j, _ in matching_partners(
                        *masks[i], range(len(masks)), heads, tails, VIOLATING_CODES[cond])}
                    want = {j for j, e2 in enumerate(hg.edges)
                            if j != i and naive_pair_violates(e1, e2, cond)}
                    assert hits - {i} == want, (idx, i, cond)

    def test_pattern_verdicts_match_injective_maps(self):
        edges = all_two_one_edges(tuple("abcde"))
        pos = {v: p for p, v in enumerate("abcde")}
        heads = [sum(1 << pos[v] for v in e.head) for e in edges]
        tails = [sum(1 << pos[v] for v in e.tail) for e in edges]
        for i, e1 in enumerate(edges):
            for pattern in PATTERN_IDS:
                hits = [j for j, _ in matching_partners(
                    heads[i], tails[i], range(len(edges)), heads, tails, _PATTERN_CODES[pattern])]
                want = [j for j, e2 in enumerate(edges)
                        if j != i and naive_pair_contains(e1, e2, pattern)]
                assert hits == want, (i, pattern)

    def test_shared_counts_covered(self):
        hg = shared_count_instance()
        sizes = {len(e1.vertices & e2.vertices) for e1, e2 in combinations(hg.edges, 2)}
        assert sizes >= {0, 1, 2, 3, 4}
        assert any(len(e.head) > 1 for e in hg.edges)

    def test_stops_where_the_caller_stops(self):
        hg = pattern_instance("I0")
        heads, tails = hg.index.head_masks, hg.index.tail_masks
        masks = list(zip(heads, tails))
        found = matching_partners(*masks[0], [1, 1, 1], heads, tails, VIOLATING_CODES["i0-free"])
        assert next(found)[0] == 1
        assert len(list(found)) == 2
        assert list(matching_partners(*masks[0], [], heads, tails, VIOLATING_CODES["lovasz"])) == []


@dataclass(frozen=True)
class DataclassProfile:
    """The witness record as it was defined before it became a named tuple."""

    i: int
    j: int
    common: tuple[tuple[str, str, str], ...]


class TestIntersectionProfile:
    SAMPLES = [w for cond in ("lovasz", "tails-only-2-intersect")
               for w in check_condition(gen_h2_tower(4), cond).witnesses[:40]]

    def test_fields_and_unpacking(self):
        w = check_condition(pattern_instance("H1"), "onehead-h1").witnesses[0]
        assert (w.i, w.j, w.common) == (0, 1, (("a", "tail", "tail"),))
        i, j, common = w
        assert (i, j, common) == (w.i, w.j, w.common)
        assert w == (0, 1, (("a", "tail", "tail"),))
        assert w._fields == ("i", "j", "common")

    def test_repr_equality_and_hash_as_the_dataclass(self):
        assert len(self.SAMPLES) == 80
        old = [DataclassProfile(*w) for w in self.SAMPLES]
        for w, o in zip(self.SAMPLES, old):
            assert repr(w) == repr(o).replace("DataclassProfile", "IntersectionProfile")
            assert hash(w) == hash(o)
        for (a, oa), (b, ob) in combinations(zip(self.SAMPLES, old), 2):
            assert (a == b) == (oa == ob)
            assert (a != b) == (oa != ob)

    def test_immutable(self):
        w = self.SAMPLES[0]
        for field in ("i", "j", "common"):
            with pytest.raises(AttributeError):
                setattr(w, field, 0)
        with pytest.raises(AttributeError):
            w.extra = 1

    def test_pickles(self):
        for w in self.SAMPLES[:5]:
            back = pickle.loads(pickle.dumps(w))
            assert back == w and type(back) is IntersectionProfile

    def test_equal_rows_share_one_object(self):
        for hg, cond in ((gen_h2_tower(5), "lovasz"), (gen_h2_tower(4), "tails-only-2-intersect"),
                         (paper_i(), "onehead-h1")):
            witnesses = check_condition(hg, cond).witnesses
            assert witnesses
            assert len({id(w.common) for w in witnesses}) == len({w.common for w in witnesses})
        report = contains_pattern(gen_h2_tower(5), "I0")
        assert len({id(w.common) for w in report.witnesses}) < len(report.witnesses)


TWO_VERTEX_PATTERNS = ("H2", "I1", "R3", "E")
TWO_VERTEX_CONDITIONS = ("h2-two-intersect", "tails-only-2-intersect")
TWO_VERTEX_CHECKS = TWO_VERTEX_PATTERNS + TWO_VERTEX_CONDITIONS
# The seven inputs of the ladder-sparse benchmark at seed 1: (cond, n, m, seed).
LADDER_DRAWS = (
    ("onehead-h1", 100, 200, 1000), ("r4-free", 100, 400, 1001), ("r4-free", 200, 800, 1002),
    ("i0r4-free", 100, 200, 1003), ("i0-free", 24, 96, 1004),
    ("tails-only-2-intersect", 100, 400, 1100), ("tails-only-2-intersect", 200, 800, 1101),
)


def run_check(hg, check):
    """The report of a pattern or a condition check."""
    if check in PATTERN_IDS:
        return contains_pattern(hg, check)
    return check_condition(hg, check)


def two_vertex_instance(seed):
    """Seeded hypergraph on few vertices, so that many pairs share two or
    more: edges of 1..6 vertices with any split into heads and tails, edges
    repeating an earlier edge's vertex set under other roles, and edges
    holding an earlier edge's vertex set and more."""
    rng = random.Random(seed)
    n = rng.randint(3, 9)
    names = [f"v{i}" for i in range(n)]
    edges = []
    for _ in range(rng.randint(0, 2 * n)):
        roll = rng.random()
        if edges and roll < 0.2:
            vs = list(rng.choice(edges).vertices)
        elif edges and roll < 0.35 and len(base := rng.choice(edges).vertices) < min(6, n):
            rest = [v for v in names if v not in base]
            vs = list(base) + rng.sample(rest, rng.randint(1, min(len(rest), 6 - len(base))))
        else:
            vs = rng.sample(names, rng.randint(1, min(6, n)))
        rng.shuffle(vs)
        cut = rng.randint(0, len(vs))
        edges.append(edge(vs[:cut], vs[cut:]))
    rng.shuffle(names)
    return DirectedHypergraph(tuple(names), tuple(edges))


def two_one_instance(seed):
    """Seeded 2->1 hypergraph drawn from every 2->1 edge on 4..7 vertices, so
    that one triple often comes with two or three heads."""
    rng = random.Random(seed)
    names = tuple(f"w{i}" for i in range(rng.randint(4, 7)))
    pool = all_two_one_edges(names)
    return DirectedHypergraph(names, tuple(rng.sample(pool, rng.randint(2, min(14, len(pool))))))


def _pair_role(pair, e1, e2):
    """Role class of a vertex pair shared by two edges: a pair of two tails
    counts as a tail, a pair holding a head as a head."""
    t1, t2 = pair <= e1.tail, pair <= e2.tail
    return TAIL_TAIL if t1 and t2 else HEAD_TAIL if t1 or t2 else HEAD_HEAD


GENERAL_TWO_VERTEX = [two_vertex_instance(seed) for seed in range(600)]
TWO_ONE_TWO_VERTEX = (
    [gen_h2_tower(k) for k in (3, 4, 5)] + [gen_perm_tower(3), paper_i(), paper_r()]
    + [two_one_instance(seed) for seed in range(300)]
)


class TestPairWalk:
    """The six checks that need two shared vertices walk shared vertex pairs;
    their witnesses must equal the all-pairs oracles', in order."""

    def test_only_the_two_vertex_checks_take_the_pair_walk(self):
        assert {p: pair_roles_of(_PATTERN_CODES[p]) for p in PATTERN_IDS} == {
            "H2": TAIL_TAIL, "I1": HEAD_HEAD, "R3": HEAD_TAIL, "E": HEAD_HEAD,
            "I0": 0, "H1": 0, "R4": 0}
        assert {c: pair_roles_of(VIOLATING_CODES[c]) for c in CONDITION_IDS} == {
            "h2-two-intersect": TAIL_TAIL, "tails-only-2-intersect": ALL_ROLES,
            "onehead-h1": 0, "i0-free": 0, "r4-free": 0, "i0r4-free": 0, "lovasz": 0}

    def test_conditions_on_general_instances(self):
        for idx, hg in enumerate(GENERAL_TWO_VERTEX + TWO_ONE_TWO_VERTEX):
            for cond in TWO_VERTEX_CONDITIONS:
                rows = list(check_condition(hg, cond).witnesses)
                assert rows == naive_condition_witnesses(hg, cond), (idx, cond)

    def test_patterns_on_two_one_instances(self):
        for idx, hg in enumerate(TWO_ONE_TWO_VERTEX):
            for pattern in TWO_VERTEX_PATTERNS:
                rows = list(contains_pattern(hg, pattern).witnesses)
                assert rows == naive_pattern_witnesses(hg, pattern), (idx, pattern)

    def test_ladder_draws(self):
        for cond, n, m, seed in LADDER_DRAWS:
            hg = gen_random(n, m, cond=cond, seed=seed)
            for check in TWO_VERTEX_CONDITIONS:
                rows = list(check_condition(hg, check).witnesses)
                assert rows == naive_condition_witnesses(hg, check), (n, seed, check)
            for pattern in TWO_VERTEX_PATTERNS:
                rows = list(contains_pattern(hg, pattern).witnesses)
                assert rows == naive_pattern_witnesses(hg, pattern), (n, seed, pattern)

    def test_no_check_calls_the_kernel(self, monkeypatch):
        # the crossing that meets a pair names its code; matching_partners
        # is left to pair_code and the generator
        inputs = (gen_h2_tower(5), gen_random(200, 800, cond="tails-only-2-intersect", seed=1101))
        want = [{c: len(run_check(hg, c).columns[0]) for c in TWO_VERTEX_CHECKS} for hg in inputs]
        assert want == [
            {"H2": 0, "I1": 3810, "R3": 0, "E": 0, "h2-two-intersect": 0,
             "tails-only-2-intersect": 3810},
            {"H2": 15, "I1": 0, "R3": 0, "E": 0, "h2-two-intersect": 15,
             "tails-only-2-intersect": 0}]

        def kernel(*args):
            raise AssertionError("matching_partners called")

        monkeypatch.setattr(patterns, "matching_partners", kernel)
        got = [{c: len(run_check(hg, c).columns[0]) for c in TWO_VERTEX_CHECKS} for hg in inputs]
        assert got == want

    def test_walk_meets_the_pairs_sharing_a_vertex_pair_in_its_classes(self):
        for idx, hg in enumerate(GENERAL_TWO_VERTEX[:200] + TWO_ONE_TWO_VERTEX[:20]):
            classes = {
                (i, j): {_pair_role(frozenset(q), e1, e2)
                         for q in combinations(e1.vertices & e2.vertices, 2)}
                for (i, e1), (j, e2) in combinations(enumerate(hg.edges), 2)
            }
            for roles in range(1, ALL_ROLES + 1):
                walked = walked_pairs(hg.index.pairs, roles)
                assert walked == [p for p, c in classes.items() if any(r & roles for r in c)], (
                    idx, roles)

    def test_every_two_vertex_code_guarantees_its_pair_class(self):
        seen = set()
        for hg in GENERAL_TWO_VERTEX + TWO_ONE_TWO_VERTEX:
            masks = list(zip(hg.index.head_masks, hg.index.tail_masks))
            for (i, e1), (j, e2) in combinations(enumerate(hg.edges), 2):
                shared = e1.vertices & e2.vertices
                code = pair_code(*masks[i], *masks[j])
                if len(shared) == 2:
                    seen.add(code)
                    assert pair_roles_of(1 << code) == _pair_role(shared, e1, e2), (i, j, code)
        assert seen == {4, 5, 6, 7, 8}

    def test_instances_cover_the_shapes(self):
        edges = [e for hg in GENERAL_TWO_VERTEX for e in hg.edges]
        assert {len(e.vertices) for e in edges} == {1, 2, 3, 4, 5, 6}
        assert any(len(e.head) > 1 for e in edges) and any(not e.head for e in edges)
        shared = {len(e1.vertices & e2.vertices)
                  for hg in GENERAL_TWO_VERTEX for e1, e2 in combinations(hg.edges, 2)}
        assert shared >= {0, 1, 2, 3, 4, 5}
        assert any(e1.vertices == e2.vertices and e1 != e2
                   for hg in TWO_ONE_TWO_VERTEX for e1, e2 in combinations(hg.edges, 2))
        assert any(e1.vertices < e2.vertices
                   for hg in GENERAL_TWO_VERTEX for e1, e2 in combinations(hg.edges, 2))
        for check in TWO_VERTEX_CONDITIONS:
            assert any(check_condition(hg, check).witnesses for hg in GENERAL_TWO_VERTEX)
        for pattern in TWO_VERTEX_PATTERNS:
            assert any(contains_pattern(hg, pattern).witnesses for hg in TWO_ONE_TWO_VERTEX)


ONE_VERTEX_CONDITIONS = ("onehead-h1", "i0-free", "r4-free", "i0r4-free", "lovasz")
ONE_VERTEX_CODES = _PATTERN_CODES["I0"] | _PATTERN_CODES["H1"] | _PATTERN_CODES["R4"]


class TestOneVertexWalk:
    """The five one-vertex checks name each pair's code from the key list
    that found it, with no kernel call; their witnesses must equal the
    all-pairs oracle's, in order."""

    INSTANCES = (gen_h2_tower(5), shared_count_instance())

    def test_no_check_mixes_one_and_two_vertex_codes(self):
        # A mask holding a one-vertex code takes the vertex walk, which finds
        # no pair sharing two vertices.
        for name, mask in CODE_MASKS.items():
            assert mask & ONE_VERTEX_CODES in (0, mask), name
        assert {c for c in CONDITION_IDS if VIOLATING_CODES[c] & ONE_VERTEX_CODES} == set(
            ONE_VERTEX_CONDITIONS)

    def test_conditions_against_the_oracle(self):
        for idx, hg in enumerate(self.INSTANCES):
            for cond in ONE_VERTEX_CONDITIONS:
                rows = list(check_condition(hg, cond).witnesses)
                assert rows == naive_condition_witnesses(hg, cond), (idx, cond)
                assert rows, (idx, cond)

    def test_equal_rows_share_one_object(self):
        for idx, hg in enumerate(self.INSTANCES):
            for cond in CONDITION_IDS:
                first = {}
                for w in check_condition(hg, cond).witnesses:
                    assert first.setdefault(w.common, w.common) is w.common, (idx, cond, w)


class TestPairsExamined:
    """PatternReport.pairs_examined counts the candidates a check's
    exact-share test saw: a pair once under each key it shares (a vertex,
    or a vertex pair on the two-vertex checks) in a role class the check
    needs."""

    def test_equals_the_naive_candidate_count(self):
        instances = KERNEL_INSTANCES + GENERAL_TWO_VERTEX[:200] + TWO_ONE_TWO_VERTEX[:20]
        for idx, hg in enumerate(instances):
            for check in (*PATTERN_IDS, *CONDITION_IDS) if is_two_to_one(hg) else CONDITION_IDS:
                want = len(naive_candidates(hg, *CANDIDATE_KEYS[check]))
                assert run_check(hg, check).pairs_examined == want, (idx, check)

    def test_goodcheck_input(self):
        # ladder-sparse's n=200 goodcheck input: every pair sharing two
        # vertices shares them as both edges' tails, so R3 (tail pair of one
        # edge, headed pair of the other) and E (headed in both) meet none,
        # where a walk over vertices in R3's class would meet 6,383.
        hg = gen_random(200, 800, cond="tails-only-2-intersect", seed=1101)
        assert len(naive_candidates(hg, 1, CANDIDATE_KEYS["R3"][1])) == 6383
        assert contains_pattern(hg, "R3").pairs_examined == 0
        assert contains_pattern(hg, "E").pairs_examined == 0
        assert contains_pattern(hg, "H2").pairs_examined == 15
        assert check_condition(hg, "tails-only-2-intersect").pairs_examined == 15

    def test_h2_tower_5(self):
        hg = gen_h2_tower(5)
        report = check_condition(hg, "tails-only-2-intersect")
        assert report.pairs_examined == len(report.witnesses) == 3810
        assert contains_pattern(hg, "R3").pairs_examined == 0
        # lovasz needs every role class, so the walk meets each pair of edges
        # through a vertex at that vertex: a pair sharing two vertices twice,
        # and the 35,082 vertex-sharing pairs 38,892 times.
        at_vertices = naive_candidates(hg, 1, ALL_CLASSES)
        assert len(set(at_vertices)) == 35082
        pairs_at = sum(len(es) * (len(es) - 1) // 2 for es in hg.index.edges_at)
        assert check_condition(hg, "lovasz").pairs_examined == pairs_at == len(at_vertices) == 38892

    def test_left_out_of_equality_and_repr(self):
        report = contains_pattern(gen_h2_tower(4), "I1")
        assert report.pairs_examined > 0
        bare = PatternReport(report.pattern, report.avoided, report.witnesses)
        assert bare.pairs_examined == 0
        assert report == bare and repr(report) == repr(bare)


GOODCHECK_INPUT = dict(n=200, m=800, cond="tails-only-2-intersect", seed=1101)
CLASS_NAMES = {HEAD_HEAD: "hh", TAIL_TAIL: "tt", HEAD_TAIL: "ht"}
# Inputs in which exactly one pair of edges shares a vertex pair, in exactly
# one class, with edges around it sharing one vertex or none: (class, text).
ONE_SHARED_PAIR = (
    (TAIL_TAIL, "e a b > c\ne a b > d\ne c d > f"),           # H2
    (TAIL_TAIL, "e a b x > c\ne a b > d\ne d f > g"),         # H2, a wider tail
    (HEAD_TAIL, "e a b > c\ne b c > d\ne d f > g"),           # R3
    (HEAD_TAIL, "e a > b c\ne b c x > d"),                     # a pair of heads, tails
    (HEAD_HEAD, "e a b > c\ne a d > c\ne f g > b"),           # I1
    (HEAD_HEAD, "e a b > c\ne d c > b\ne f g > a"),           # E
    (HEAD_HEAD, "e a > b c\ne d > b c"),                       # a pair of heads in both
)


def meeting_classes(hg):
    """The classes in which some pair of edges shares a vertex pair, from
    the all-pairs scan."""
    return sum(cls for cls, name in CLASS_NAMES.items() if naive_candidates(hg, 2, {name}))


class TestPairView:
    """The six two-vertex checks read one pair view per hypergraph
    (``hg.index.pairs``) and walk only the classes in which two edges hold
    one vertex pair."""

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []

        class Counted(core.PairKeys):
            def __init__(self, index):
                built.append(index)
                super().__init__(index)

        monkeypatch.setattr(core, "PairKeys", Counted)
        return built

    def test_built_once_per_hypergraph(self, builds):
        for hg in (gen_random(**GOODCHECK_INPUT), gen_h2_tower(4)):
            contains_pattern(hg, "R3")
            contains_pattern(hg, "E")
            contains_pattern(hg, "H2")
            check_condition(hg, "tails-only-2-intersect")
            assert hg.index.pairs is hg.index.pairs
        assert len(builds) == 2 and builds[0] is not builds[1]

    def test_built_once_by_goodcheck(self, builds, tmp_path, capsys):
        path = tmp_path / "good.dhg"
        path.write_text(serialize(gen_random(**GOODCHECK_INPUT)))
        assert cli.main(["goodcheck", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["valid"] is True
        assert len(builds) == 1

    def test_goodcheck_input_builds_no_key_list_for_r3_and_e(self):
        hg = gen_random(**GOODCHECK_INPUT)
        keys = hg.index.pairs
        for pattern in ("R3", "E"):
            report = contains_pattern(hg, pattern)
            assert report.avoided and report.pairs_examined == 0
        assert not {"heads_at", "tails_at"} & vars(keys).keys()
        report = contains_pattern(hg, "H2")
        assert len(report.witnesses) == report.pairs_examined == 15
        assert "tails_at" in vars(keys) and "heads_at" not in vars(keys)

    def test_a_check_builds_only_the_key_lists_its_classes_walk(self):
        hg = gen_h2_tower(5)
        keys = hg.index.pairs
        assert len(contains_pattern(hg, "I1").witnesses) == 3810
        assert "heads_at" in vars(keys) and "tails_at" not in vars(keys)

    def test_meets_is_held_not_cached(self):
        # the towers' edges share vertex pairs as headed pairs only
        assert vars(gen_h2_tower(3).index.pairs)["meets"] == HEAD_HEAD
        for name in ("meets", "_head_keys", "heads_repeat", "tails_repeat", "heads_meet_tails"):
            assert not hasattr(core.PairKeys, name), name

    def test_the_classes_that_meet(self):
        instances = KERNEL_INSTANCES + GENERAL_TWO_VERTEX + TWO_ONE_TWO_VERTEX
        seen = set()
        for idx, hg in enumerate(instances):
            want = meeting_classes(hg)
            for roles in range(ALL_ROLES + 1):
                assert hg.index.pairs.meets & roles == want & roles, (idx, roles)
            seen.add(want)
        assert seen == set(range(ALL_ROLES + 1))

    @pytest.mark.parametrize("cls, text", ONE_SHARED_PAIR, ids=(
        "H2", "H2-wide", "R3", "heads-x-tails", "I1", "E", "heads-x-heads"))
    def test_one_shared_pair_against_the_oracles(self, cls, text):
        hg = parse(text)
        assert meeting_classes(hg) == cls
        assert hg.index.pairs.meets & ALL_ROLES == cls
        checks = TWO_VERTEX_CHECKS if is_two_to_one(hg) else TWO_VERTEX_CONDITIONS
        found = 0
        for check in checks:
            report = run_check(hg, check)
            naive = (naive_pattern_witnesses if check in PATTERN_IDS
                     else naive_condition_witnesses)(hg, check)
            assert list(report.witnesses) == naive, check
            assert report.pairs_examined == len(naive_candidates(hg, *CANDIDATE_KEYS[check])), check
            found += report.pairs_examined
        assert found  # some check needs the class


class TestReportValueSemantics:
    """A report equals, hashes, prints and pickles like a copy rebuilt
    through the public constructor from its own witnesses, whatever it
    stores inside."""

    # sha256 of repr(contains_pattern(gen_h2_tower(4), "I1")): 330 witnesses.
    I1_REPR_DIGEST = "a57e81ae42e041ffc4666d1842e5b145708979a8376942d082b8ae4c085b3568"

    @pytest.mark.parametrize("make, expected_repr", [
        (lambda: contains_pattern(gen_h2_tower(4), "I1"), None),
        (lambda: check_condition(paper_r(), "r4-free"),
         "PatternReport(pattern='r4-free', avoided=True, witnesses=())"),
    ], ids=["witnesses", "none"])
    def test_against_a_rebuilt_copy(self, make, expected_repr):
        report = make()
        assert report.pairs_examined > 0
        copy = PatternReport(report.pattern, report.avoided, report.witnesses)
        assert report == copy and hash(report) == hash(copy)
        assert not report != copy
        assert repr(report) == repr(copy)
        if expected_repr is None:
            assert len(report.witnesses) == 330
            assert hashlib.sha256(repr(report).encode()).hexdigest() == self.I1_REPR_DIGEST
        else:
            assert repr(report) == expected_repr
        for r in (report, copy):
            with pytest.raises(AttributeError):
                r.avoided = not r.avoided
            assert type(r.witnesses) is tuple
            assert all(type(w) is IntersectionProfile for w in r.witnesses)
        for r in (make(), copy):  # witnesses unread, and read
            back = pickle.loads(pickle.dumps(r))
            assert back == r and back.witnesses == r.witnesses
            assert back.pairs_examined == r.pairs_examined
            assert hash(back) == hash(r) and repr(back) == repr(r)

    def test_other_checks_differ(self):
        i1 = contains_pattern(gen_h2_tower(4), "I1")
        h1 = contains_pattern(gen_h2_tower(4), "H1")
        assert i1 != h1 and i1 != contains_pattern(gen_h2_tower(3), "I1")
        assert i1 != (i1.pattern, i1.avoided, i1.witnesses)
        empty = check_condition(paper_r(), "r4-free")
        assert empty == PatternReport("r4-free", True, ())
        assert empty != PatternReport("i0-free", True, ())
