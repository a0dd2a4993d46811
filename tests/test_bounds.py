import random
from itertools import product

import pytest

from dhcolor import bounds
from dhcolor import (
    GoodColoring,
    PatternReport,
    RoleConflictError,
    DirectedHypergraph,
    edge,
    f_bound,
    gen_perm_tower,
    gen_random,
    contains_pattern,
    induce_good_coloring,
    parse,
    verify_good_coloring,
)
from oracles import all_two_one_edges, f_recursive


class TestFBound:
    def test_small_values(self):
        assert f_bound(0) == 1
        assert f_bound(1) == 1
        assert f_bound(2) == 1
        assert f_bound(3) == 2  # best split: a pair against one vertex
        assert f_bound(4) == 4  # best split: a triple against one vertex

    def test_matches_plain_recursion(self, monkeypatch):
        # f_bound keeps its table between calls: on a fresh table, one large
        # call read downwards, then reads upwards that extend it one value at
        # a time past its end.
        monkeypatch.setattr(bounds, "_F_TABLE", [1, 1])
        for n in range(60, -1, -1):
            assert f_bound(n) == f_recursive(n), n
        for n in range(90):
            assert f_bound(n) == f_recursive(n), n
        assert len(bounds._F_TABLE) == 90

    def test_nondecreasing(self):
        values = [f_bound(n) for n in range(1, 40)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_negative(self):
        with pytest.raises(ValueError, match="^n must be non-negative$"):
            f_bound(-1)


class TestVerifyGoodColoring:
    def test_apex_shape_accepted(self):
        hg = parse("e a b > c")
        gc = GoodColoring(
            hg,
            {frozenset("ca"): "red", frozenset("cb"): "red", frozenset("ab"): "blue"},
            {frozenset("ca"): ("c", "a"), frozenset("cb"): ("c", "b")},
        )
        assert verify_good_coloring(gc)

    def test_red_base_rejected(self):
        hg = parse("e a b > c")
        gc = GoodColoring(
            hg,
            {frozenset("ca"): "red", frozenset("cb"): "red", frozenset("ab"): "red"},
            {
                frozenset("ca"): ("c", "a"),
                frozenset("cb"): ("c", "b"),
                frozenset("ab"): ("a", "b"),
            },
        )
        assert not verify_good_coloring(gc)

    def test_wrong_orientation_rejected(self):
        hg = parse("e a b > c")
        gc = GoodColoring(
            hg,
            {frozenset("ca"): "red", frozenset("cb"): "red", frozenset("ab"): "blue"},
            {frozenset("ca"): ("a", "c"), frozenset("cb"): ("c", "b")},
        )
        assert not verify_good_coloring(gc)

    def test_uncolored_shadow_edge(self):
        hg = parse("e a b > c")
        gc = GoodColoring(hg, {frozenset("ca"): "red"}, {frozenset("ca"): ("c", "a")})
        with pytest.raises(ValueError):
            verify_good_coloring(gc)

    def test_non_three_uniform(self):
        hg = DirectedHypergraph(("a", "b"), (edge(["a"], ["b"]),))
        with pytest.raises(ValueError):
            verify_good_coloring(GoodColoring(hg, {}, {}))


class TestInduceGoodColoring:
    def test_single_edge(self):
        gc = induce_good_coloring(parse("e a b > c"))
        assert gc.colors[frozenset("ab")] == "blue"
        assert gc.orientation[frozenset("ac")] == ("c", "a")
        assert gc.orientation[frozenset("bc")] == ("c", "b")
        assert verify_good_coloring(gc)

    def test_r3_rejected_up_front(self):
        with pytest.raises(ValueError):
            induce_good_coloring(parse("e a b > c\ne b c > d"))

    def test_e_rejected_up_front(self):
        with pytest.raises(ValueError):
            induce_good_coloring(parse("e a b > c\ne d c > b"))

    def test_shared_vertex_set_conflicts(self):
        # Same triple directed two ways dodges the pattern check (it is a
        # 3-intersection) but still clashes on the shadow edges.
        hg = parse("e a b > c\ne a c > b")
        assert contains_pattern(hg, "R3").avoided
        assert contains_pattern(hg, "E").avoided
        with pytest.raises(RoleConflictError):
            induce_good_coloring(hg)

    def test_perm_tower_within_bound(self):
        hg = gen_perm_tower(3)
        gc = induce_good_coloring(hg)
        assert verify_good_coloring(gc)
        assert len(hg.edges) <= f_bound(hg.n)

    def test_fuzzed_instances_within_bound(self):
        for seed in range(40):
            hg = gen_random(n=5 + seed % 5, m=12, cond="tails-only-2-intersect", seed=seed)
            if not (contains_pattern(hg, "R3").avoided and contains_pattern(hg, "E").avoided):
                continue
            gc = induce_good_coloring(hg)
            assert verify_good_coloring(gc)
            assert len(hg.edges) <= f_bound(hg.n)


def pair_text(pair):
    """A shadow edge as messages name it: a set with its names sorted."""
    return "{" + ", ".join(repr(v) for v in sorted(pair)) + "}"


def reference_verify(gc):
    """verify_good_coloring as first written: for each edge, the three shadow
    pairs in sorted-vertex order, then each vertex tried as the apex."""
    colors, orient = gc.colors, gc.orientation
    for e in gc.hypergraph.edges:
        verts = sorted(e.vertices)
        if len(verts) != 3:
            raise ValueError("good colorings are defined for 3-uniform hypergraphs")
        for x, y in ((0, 1), (0, 2), (1, 2)):
            pair = frozenset((verts[x], verts[y]))
            if pair not in colors:
                raise ValueError(f"shadow edge {pair_text(pair)} is uncolored")
            if colors[pair] == "red" and pair not in orient:
                raise ValueError(f"red shadow edge {pair_text(pair)} has no orientation")

        def is_apex(apex):
            others = [v for v in verts if v != apex]
            for v in others:
                pair = frozenset((apex, v))
                if colors[pair] != "red" or orient[pair] != (apex, v):
                    return False
            return colors[frozenset(others)] == "blue"

        if not any(is_apex(apex) for apex in verts):
            return False
    return True


def reference_induce(hg):
    """induce_good_coloring as first written: the R3 and E checks, then one
    put per shadow pair, which raises on any differing color or arrow."""
    for pattern in ("R3", "E"):
        report = contains_pattern(hg, pattern)
        if not report.avoided:
            w = report.witnesses[0]
            raise ValueError(f"hypergraph contains {pattern} (edges {w.i},{w.j})")
    return reference_put(hg)


def reference_put(hg):
    colors, orientation = {}, {}

    def put(pair, color, arrow):
        if pair in colors and (colors[pair] != color or orientation.get(pair) != arrow):
            raise RoleConflictError(
                f"shadow edge {pair_text(pair)} already {colors[pair]}, conflicting assignment")
        colors[pair] = color
        if arrow is not None:
            orientation[pair] = arrow

    for e in hg.edges:
        head = min(e.head)
        t1, t2 = sorted(e.tail)
        put(frozenset((head, t1)), "red", (head, t1))
        put(frozenset((head, t2)), "red", (head, t2))
        put(frozenset((t1, t2)), "blue", None)
    return colors, orientation


def outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def induce_outcome(hg):
    kind, got = outcome(induce_good_coloring, hg)
    if kind != "ok":
        return kind, got
    return kind, (list(got.colors.items()), list(got.orientation.items()))


def reference_induce_outcome(hg):
    kind, got = outcome(reference_induce, hg)
    return (kind, got) if kind != "ok" else (kind, tuple(list(d.items()) for d in got))


def induce_grid_instance(seed):
    """A few edges on 3..6 vertices: 2->1 edges, often the same triple under
    another head, and now and then an off-shape edge (2->2, 3->1, 1->1)."""
    rng = random.Random(seed)
    names = tuple("qazmbx"[:rng.randint(3, 6)])
    pool = all_two_one_edges(names)
    edges = []
    for _ in range(rng.randint(1, 5)):
        roll = rng.random()
        if edges and roll < 0.25:  # an earlier triple with another head
            vs = sorted(rng.choice(edges).vertices)
            head = rng.choice(vs)
            edges.append(edge([v for v in vs if v != head], [head]))
        elif 0.25 <= roll < 0.3:
            vs = rng.sample(names, 2 if roll < 0.28 else 3)
            cut = rng.randint(1, len(vs) - 1)
            edges.append(edge(vs[:cut], vs[cut:]))
        else:
            edges.append(rng.choice(pool))
    return DirectedHypergraph(names, tuple(edges))


class TestInduceAgainstReference:
    def test_put_rule_without_the_pattern_checks(self, monkeypatch):
        # With the checks passed over, the put rule meets every clash there
        # is, a blue pair landing on a red one among them.
        monkeypatch.setattr(bounds, "contains_pattern", lambda hg, p: PatternReport(p, True, ()))
        hgs = [induce_grid_instance(seed) for seed in range(3200)]
        hgs += [parse("e b d > a\ne a b > c"),  # {a,b} red, then blue
                parse("e b d > a\ne a d > b")]  # {a,b} red, then red the other way
        for idx, hg in enumerate(hgs):
            kind, want = outcome(reference_put, hg)
            if kind == "ok":
                want = tuple(list(d.items()) for d in want)
            assert induce_outcome(hg) == (kind, want), idx
        for hg in hgs[-2:]:
            kind, message = induce_outcome(hg)
            assert kind is RoleConflictError and "already red" in message

    def test_seeded_grid(self):
        kinds = {}
        for seed in range(3200):
            hg = induce_grid_instance(seed)
            got = induce_outcome(hg)
            assert got == reference_induce_outcome(hg), seed
            key = got[0] if got[0] == "ok" else got[1].split(" (")[0].split(" {")[0]
            kinds[key] = kinds.get(key, 0) + 1
        # every way out is taken many times
        assert set(kinds) == {"ok", "hypergraph contains R3", "hypergraph contains E", "shadow edge",
                              "pattern containment is defined for 2->1 hypergraphs only"}
        assert min(kinds.values()) >= 100, kinds


# uncolored, blue, red unoriented, red either way, and a color neither red nor blue
SHADES = (None, "blue", "red", "red>", "red<", "green")


def coloring(hg, shades):
    """A GoodColoring giving each sorted shadow pair of hg its shade in turn."""
    pairs = sorted({tuple(sorted(p)) for e in hg.edges
                    for p in ((a, b) for a in e.vertices for b in e.vertices if a < b)})
    colors, orient = {}, {}
    for (x, y), shade in zip(pairs, shades):
        if shade is None:
            continue
        colors[frozenset((x, y))] = shade[:-1] if shade[-1] in "<>" else shade
        if shade[-1] in "<>":
            orient[frozenset((x, y))] = (x, y) if shade == "red>" else (y, x)
    return GoodColoring(hg, colors, orient)


class TestVerifyAgainstReference:
    def test_every_shade_of_one_triple(self):
        # names out of alphabetical order: the apex is found by sorted position
        for text in ("e a b > c", "e z m > a", "e m a > z"):
            hg = parse(text)
            verdicts = set()
            for shades in product(SHADES, repeat=3):
                gc = coloring(hg, shades)
                got = outcome(verify_good_coloring, gc)
                assert got == outcome(reference_verify, gc), (text, shades)
                verdicts.add(got[1] if got[0] == "ok" else got[1].split(" {")[0])
            assert verdicts == {True, False, "shadow edge", "red shadow edge"}

    def test_each_apex_position(self):
        for apex in "abc":
            others = [v for v in "abc" if v != apex]
            colors = {frozenset((apex, v)): "red" for v in others}
            colors[frozenset(others)] = "blue"
            orient = {frozenset((apex, v)): (apex, v) for v in others}
            hg = parse(f"e {' '.join(others)} > {apex}")
            assert verify_good_coloring(GoodColoring(hg, colors, orient))
            flipped = {**orient, frozenset((apex, others[0])): (others[0], apex)}
            assert not verify_good_coloring(GoodColoring(hg, colors, flipped))

    def test_first_problem_reported_across_edges(self):
        rng = random.Random(9)
        hgs = [parse("e a b > c\ne b c > d"), parse("e a b > c\ne a b > d\ne c d > a"),
               parse("e x y > z\ne y z > w\ne w x > y")]
        for _ in range(2000):
            hg = rng.choice(hgs)
            gc = coloring(hg, [rng.choice(SHADES) for _ in range(9)])
            assert outcome(verify_good_coloring, gc) == outcome(reference_verify, gc)

    def test_induced_colorings_verify(self):
        for seed in range(3200):
            hg = induce_grid_instance(seed)
            kind, got = outcome(induce_good_coloring, hg)
            if kind == "ok":
                assert verify_good_coloring(got) and reference_verify(got)
