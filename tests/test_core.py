import gc
import json
import os
import pickle
import random
import subprocess
import sys
import weakref
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from dhcolor import (
    Coloring,
    DirectedEdge,
    DirectedHypergraph,
    ParseError,
    PatternReport,
    ValidationError,
    augment_i0,
    check_condition,
    chromatic_number,
    color_head_tail_3,
    edge,
    gen_h2_tower,
    gen_perm_tower,
    gen_random,
    is_proper,
    is_two_to_one,
    normalize,
    paper_i,
    paper_r,
    parse,
    parse_coloring,
    serialize,
    serialize_coloring,
)
from dhcolor.core import FrozenInstanceError, _check_name
from oracles import naive_normalized_edges, naive_parse
from test_algorithms import _pin_corpus
from test_solver import general_instances
from test_values import CASES as VALUE_CASES

PAPER_I_TEXT = """\
e v1 v2 > v3
e v2 v3 > v4
e v3 v4 > v5
e v4 v5 > v1
e v1 v5 > v2
e v1 v3 > v4
e v2 v4 > v5
e v3 v5 > v1
e v1 v4 > v2
e v2 v5 > v3
"""


class TestParse:
    def test_bare_edge_line(self):
        hg = parse("a b > c")
        assert hg.vertices == ("a", "b", "c")
        assert hg.edges == (edge(["a", "b"], ["c"]),)

    def test_ten_line_file_matches_builtin(self):
        assert parse(PAPER_I_TEXT) == paper_i()

    def test_head_tail_overlap_rejected(self):
        with pytest.raises(ParseError):
            parse("a > a")

    def test_declared_vertices_come_first(self):
        hg = parse("e a b > c\nv z\n")
        assert hg.vertices == ("z", "a", "b", "c")

    def test_comments_and_blanks(self):
        hg = parse("# intro\n\nv a  # trailing\ne a b > c\n")
        assert hg.vertices == ("a", "b", "c")

    def test_bare_edge_line_with_first_tail_v(self):
        # '>' is never a name, so a line holding it is an edge line.
        hg = parse("v b > c\nv > a\nv d\n")
        assert hg.vertices == ("d", "v", "b", "c", "a")
        assert hg.edges == (edge(["v", "b"], ["c"]), edge(["v"], ["a"]))
        assert parse(serialize(hg)) == hg

    def test_leading_e_is_the_keyword(self):
        assert parse("e b > c").edges == (edge(["b"], ["c"]),)

    def test_empty_side(self):
        hg = parse("e a b >\ne > c d\n")
        assert hg.edges[0].head == frozenset()
        assert hg.edges[1].tail == frozenset()

    @pytest.mark.parametrize(
        "text",
        ["e >", "e a > b > c", "v", "v a b", "v a\nv a", "what is this", "e a ## > b"],
    )
    def test_malformed(self, text):
        with pytest.raises(ParseError):
            parse(text)


class TestSerialize:
    def test_canonical_single_edge(self):
        hg = parse("a b > c")
        assert serialize(hg) == "v a\nv b\nv c\ne a b > c\n"

    def test_empty_hypergraph(self):
        assert serialize(DirectedHypergraph((), ())) == ""

    def test_sides_follow_vertex_order(self):
        hg = DirectedHypergraph(("y", "x", "z"), (edge(["x", "y"], ["z"]),))
        assert "e y x > z" in serialize(hg)

    def test_roundtrip_paper_i(self):
        hg = paper_i()
        assert parse(serialize(hg)) == hg

    def test_rows_out_of_position_order(self):
        # parse lists an edge line's names as written, so the tail row is (2, 0).
        hg = parse("v a\nv b\nv c\ne c a > b\n")
        assert hg.index.tail_rows == [(2, 0)]
        record_built = DirectedHypergraph(hg.vertices, hg.edges)
        assert serialize(hg) == serialize(record_built) == "v a\nv b\nv c\ne a c > b\n"

    def test_bytes_do_not_follow_the_string_hash(self):
        # A hypergraph built from edge records gets its rows in its
        # frozensets' iteration order, which the string hash sets; the text
        # must not follow it.  Hash seeds are tried until two runs list a
        # row in different orders.
        probe = ("import json\nfrom dhcolor import DirectedHypergraph, edge, serialize\n"
                 "hg = DirectedHypergraph('abcdefgh', [edge('bdfhc', 'a'), edge('gc', 'eh')])\n"
                 "print(json.dumps([serialize(hg), hg.index.tail_rows]))")
        src = str(Path(__file__).resolve().parents[1] / "src")
        texts, rows = set(), set()
        for seed in range(1, 11):
            env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
            out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                                 text=True, timeout=60, check=True).stdout
            text, tail_rows = json.loads(out)
            texts.add(text)
            rows.add(str(tail_rows))
            if len(rows) == 2:
                break
        assert len(rows) == 2
        assert texts == {"v a\nv b\nv c\nv d\nv e\nv f\nv g\nv h\ne b c d f h > a\ne c g > e h\n"}


# Adversarial .dhg text: the format's own tokens as names, '#' inside and
# around tokens, separators that split() honours but a plain space test does
# not ('\t', '\xa0'), line breaks that splitlines() honours inside a line
# ('\x1c', '\x0b', '\u2028'), CRLF, duplicate declarations and vertices
# declared after the edges that use them.
_NAMES = ("a", "b", "c", "d", "v", "e")
_ODD_TOKENS = ("a#b", "x>", ">y", "#", ">", "a\xa0b", "#v a")
_SEPARATORS = (" ",) * 12 + ("  ", "\t", "\xa0", "\x1c", "\x0b", "\u2028")
_LINE_ENDS = ("\n", "\n", "\r\n", "\r", "\x1c", "\u2028")


def _token(rng: random.Random) -> str:
    return rng.choice(_ODD_TOKENS if rng.random() < 0.08 else _NAMES)


def _adversarial_line(rng: random.Random) -> list[str]:
    kind = rng.random()
    if kind < 0.3:
        return ["v"] + [_token(rng) for _ in range(rng.choice((0, 1, 1, 1, 1, 1, 1, 2)))]
    if kind < 0.95:
        tails = [_token(rng) for _ in range(rng.randint(0, 3))]
        heads = [_token(rng) for _ in range(rng.randint(0, 2))]
        cuts = [">"] * rng.choice((0, 1, 1, 1, 1, 1, 1, 1, 2))
        return (["e"] if rng.random() < 0.7 else []) + tails + cuts + heads
    return [_token(rng) for _ in range(rng.randint(0, 3))]


def _adversarial_text(rng: random.Random) -> str:
    return "".join(
        rng.choice(("", "", " ", "\t"))
        + "".join(t + rng.choice(_SEPARATORS) for t in _adversarial_line(rng))
        + rng.choice(("", "", "", "# note", "#"))
        + rng.choice(_LINE_ENDS)
        for _ in range(rng.randint(0, 4))
    )


def _parse_outcome(reader, text):
    try:
        return reader(text)
    except Exception as exc:  # the exception type and message must match too
        return type(exc), str(exc)


class TestParseAgainstNaiveReader:
    def test_adversarial_grid(self):
        outcomes = {}
        for seed in range(3000):
            text = _adversarial_text(random.Random(seed))
            got = _parse_outcome(parse, text)
            assert got == _parse_outcome(naive_parse, text), (seed, text)
            if isinstance(got, DirectedHypergraph):  # equal vertex order included
                kind = "parsed"
            else:  # "line N: <first two words> ..."
                kind = " ".join(got[1].split(": ", 1)[-1].split()[:2])
            outcomes[kind] = outcomes.get(kind, 0) + 1
        # The grid reaches every outcome the reader has.  No text holds an
        # invalid name: a '>' token makes its line an edge line, where it is
        # the cut.
        assert set(outcomes) == {
            "parsed", "vertex line", "duplicate declaration",
            "edge line", "edge has", "head and", "unrecognized line",
        }, outcomes
        assert min(outcomes.values()) >= 10, outcomes

    def test_named_cases(self):
        for text in (
            "e a b > c\r\nv d\r\nv a\n",  # declared after use, CRLF
            "v b\nv b\n",  # duplicate declaration
            "v >\n",  # an edge line, not the cut token as a name
            "v b > c\n",  # an edge whose first tail is v
            "v > a\n",
            "e a#b > c\n",  # the comment cuts the '>' away
            "e a b#> c\n",
            "e a\x1cb > c\n",  # \x1c ends a line
            "e a\xa0b > c\n",  # \xa0 separates tokens
            "v\ta\ne\ta\t>\tb\n",
            "e a > b > c\n",
            "e e > v\nv e\n",
            "e >\n",
        ):
            assert _parse_outcome(parse, text) == _parse_outcome(naive_parse, text), text

    def test_name_check_uses_the_isspace_predicate(self):
        # A name with any one code point inside is refused exactly when that
        # code point is whitespace (str.isspace) or '#'.
        for cp in range(0x110000):
            ch = chr(cp)
            try:
                _check_name("a" + ch + "b")
                refused = False
            except ValidationError:
                refused = True
            assert refused == (ch.isspace() or ch == "#"), hex(cp)


class TestNormalize:
    def test_nothing_dropped_returns_the_input(self):
        for hg in (paper_i(), gen_h2_tower(4), parse("e a b > c\nv d\n"), parse("")):
            positions = hg.positions
            index = hg.index
            out = normalize(hg)
            assert out is hg and out.positions is positions
            assert out.index is index

    def test_superset_dropped(self):
        hg = parse("e a b > c\ne a b > c d\n")
        out = normalize(hg)
        assert out.edges == (edge(["a", "b"], ["c"]),)
        assert out.vertices == hg.vertices

    def test_duplicate_vertex_sets_keep_first(self):
        hg = parse("e a b > c\ne a c > b\n")
        out = normalize(hg)
        assert out.edges == (edge(["a", "b"], ["c"]),)

    def test_paper_i_unchanged(self):
        hg = paper_i()
        # All ten edges are distinct triples, so no pair is contained in another.
        sets = [e.vertices for e in hg.edges]
        assert not any(a <= b for i, a in enumerate(sets) for j, b in enumerate(sets) if i != j)
        assert normalize(hg) == hg


def _roles(vertices, rng):
    """An edge on exactly these vertices with a random head/tail split."""
    vs = list(vertices)
    rng.shuffle(vs)
    cut = rng.randint(0, len(vs))
    return edge(vs[:cut], vs[cut:])


def nested_instance(seed):
    """Seeded input of 70..200 edges, so the incidence bitsets span several
    machine words, full of nesting: chains A < B < C, copies of earlier vertex
    sets under other roles, subsets and supersets of earlier edges, and
    single-vertex edges, in shuffled order."""
    rng = random.Random(seed)
    names = [f"u{i}" for i in range(rng.randint(8, 30))]
    sets = []
    while len(sets) < rng.randint(70, 200):
        roll = rng.random()
        if sets and roll < 0.25:  # same vertex set as an earlier edge
            sets.append(rng.choice(sets))
        elif sets and roll < 0.4:  # a superset of an earlier edge
            extra = rng.sample(names, rng.randint(1, 3))
            sets.append(rng.choice(sets) | frozenset(extra))
        elif sets and roll < 0.5:  # a non-empty subset of an earlier edge
            base = sorted(rng.choice(sets))
            sets.append(frozenset(rng.sample(base, rng.randint(1, len(base)))))
        elif roll < 0.55:
            sets.append(frozenset([rng.choice(names)]))
        elif roll < 0.65:  # a chain A < B < C
            chain = rng.sample(names, 5)
            sets += [frozenset(chain[:k]) for k in (2, 3, 5)]
        else:
            sets.append(frozenset(rng.sample(names, rng.randint(2, 6))))
    rng.shuffle(sets)
    return DirectedHypergraph(tuple(names), tuple(_roles(s, rng) for s in sets))


class TestHypergraphIndex:
    """hg.index against builds from vertex names, and its place in the value."""

    # Every way a hypergraph is made: (build, whether it is built from rows).
    # normalize's input has an edge holding another's vertex set, so an edge
    # is dropped and the result is built anew.
    BUILDS = {
        "records": (lambda: DirectedHypergraph("abc", (edge("ab", "c"), edge("c", "a"))), False),
        "parse": (lambda: parse("v a\ne a b > c\ne c d > a\n"), True),
        "normalize": (lambda: normalize(parse("e a b > c\ne a b d > c\ne c d > a")), True),
        "augment_i0": (lambda: augment_i0(paper_i()), True),
        "paper_i": (paper_i, True),
        "paper_r": (paper_r, True),
        "gen_h2_tower": (lambda: gen_h2_tower(3), True),
        "gen_perm_tower": (lambda: gen_perm_tower(3), True),
        "gen_random": (lambda: gen_random(9, 18, cond="i0-free", seed=3), True),
        "with_vertex_order": (lambda: parse("e a b > c\ne c d > a").with_vertex_order("dcba"),
                              False),
    }

    @pytest.mark.parametrize("name", BUILDS)
    def test_held_from_construction(self, name):
        build, from_rows = self.BUILDS[name]
        hg = build()
        assert "positions" in vars(hg) and "index" in vars(hg)
        assert ("edges" in vars(hg)) is not from_rows
        assert hg.positions == {v: p for p, v in enumerate(hg.vertices)}
        assert hg.index.n == hg.n == len(hg.positions)
        # The views stay lazy; reading edges builds the records from the rows.
        assert not {"masks", "heads_at", "edges_at"} & vars(hg.index).keys()
        assert DirectedHypergraph(hg.vertices, hg.edges).index.masks == hg.index.masks

    def test_index_is_held_not_cached(self):
        assert "index" not in vars(DirectedHypergraph)  # no cached_property
        # The normalize build drops its second edge, so _of builds the result.
        assert len(self.BUILDS["normalize"][0]().index.head_rows) == 2

    def test_views_match_a_naive_build(self):
        for hg in (*_pin_corpus(), *general_instances()):
            index = hg.index
            pos = {v: p for p, v in enumerate(hg.vertices)}
            heads = [{pos[v] for v in e.head} for e in hg.edges]
            tails = [{pos[v] for v in e.tail} for e in hg.edges]
            assert index.n == hg.n
            assert [sorted(row) for row in index.head_rows] == [sorted(s) for s in heads]
            assert [sorted(row) for row in index.tail_rows] == [sorted(s) for s in tails]
            assert index.head_masks == [sum(1 << p for p in s) for s in heads]
            assert index.tail_masks == [sum(1 << p for p in s) for s in tails]
            assert index.masks == [sum(1 << pos[v] for v in e.vertices) for e in hg.edges]
            ks = range(len(hg.edges))
            assert index.heads_at == [[k for k in ks if v in hg.edges[k].head]
                                      for v in hg.vertices]
            assert index.tails_at == [[k for k in ks if v in hg.edges[k].tail]
                                      for v in hg.vertices]
            assert index.edges_at == [[k for k in ks if v in hg.edges[k].vertices]
                                      for v in hg.vertices]

    def test_not_part_of_the_value(self):
        for hg in (paper_i(), parse("e a b > c\nv d\n"), parse("")):
            fresh = parse(serialize(hg))
            hg.index.edges_at
            assert hg == fresh and hash(hg) == hash(fresh) and repr(hg) == repr(fresh)
            assert "index" not in repr(hg)
            back = pickle.loads(pickle.dumps(hg))
            assert back == hg and back.index.masks == hg.index.masks

    def test_with_vertex_order_gets_a_fresh_index(self):
        hg = parse("e a b > c\ne c d > a")
        index = hg.index
        other = hg.with_vertex_order(("d", "c", "b", "a"))
        assert other.index is not index
        assert other.index.masks == [0b1110, 0b1011]

    def test_freed_by_reference_counting(self):
        # The index refers to no hypergraph, so no cycle is left for the
        # cyclic collector, however many modules have read the index.
        hg = gen_random(30, 60, cond="r4-free", seed=3)
        color_head_tail_3(hg)
        check_condition(hg, "lovasz")
        check_condition(hg, "tails-only-2-intersect")
        chromatic_number(hg)
        assert normalize(hg) is hg and hg.index.edges_at
        ref = weakref.ref(hg)
        gc.disable()
        try:
            del hg
            assert ref() is None
        finally:
            gc.enable()


class TestNormalizeAgainstNaive:
    """normalize against the all-pairs subset rule on inputs with m > 64."""

    def test_seeded_nested_inputs(self):
        dropped = 0
        for seed in range(60):
            hg = nested_instance(seed)
            assert len(hg.edges) > 64
            out = normalize(hg)
            assert out.edges == naive_normalized_edges(hg), seed
            assert out.vertices == hg.vertices
            dropped += len(hg.edges) - len(out.edges)
        assert dropped > 0

    def test_chains_and_role_copies(self):
        rng = random.Random(5)
        # 30 chains A < B < C on their own vertices, each set also repeated
        # under other roles; the copies come before and after the original.
        edges = []
        for c in range(30):
            vs = [f"c{c}_{k}" for k in range(4)]
            for k in (4, 3, 2):
                edges += [_roles(vs[:k], rng), _roles(vs[:k], rng)]
        rng.shuffle(edges)
        hg = DirectedHypergraph(tuple(sorted({v for e in edges for v in e.vertices})),
                                tuple(edges))
        out = normalize(hg)
        assert len(hg.edges) == 180
        assert out.edges == naive_normalized_edges(hg)
        assert len(out.edges) == 30 and all(len(e) == 2 for e in out.edges)

    def test_earlier_copy_is_superset_of_a_third_edge(self):
        # Edge 0 and edge 80 share a vertex set; edge 100 lies inside both,
        # so both go, and edge 0 must not save 80 by being first.
        filler = [edge([f"f{i}", f"g{i}"], [f"h{i}"]) for i in range(1, 100)]
        edges = [edge(["a", "b"], ["c", "d"])] + filler
        edges[80] = edge(["c"], ["a", "b", "d"])
        edges.append(edge(["a"], ["b"]))
        hg = DirectedHypergraph(
            tuple(sorted({v for e in edges for v in e.vertices})), tuple(edges))
        out = normalize(hg)
        assert out.edges == naive_normalized_edges(hg)
        assert edges[0] not in out.edges and edges[80] not in out.edges
        assert out.edges[-1] == edge(["a"], ["b"]) and len(out.edges) == 99

    def test_single_vertex_edges(self):
        # A one-vertex edge drops every other edge through its vertex,
        # including a later one-vertex edge on the same vertex.
        names = tuple(f"s{i}" for i in range(12))
        edges = [edge(t, [h]) for t, h in zip(
            [(names[i], names[(i + 1) % 12]) for i in range(12)] * 6,
            [names[(i + 5) % 12] for i in range(12)] * 6)]
        edges.insert(40, edge([], ["s3"]))
        edges.insert(70, edge(["s3"], []))
        hg = DirectedHypergraph(names, tuple(edges))
        out = normalize(hg)
        assert len(hg.edges) == 74
        assert out.edges == naive_normalized_edges(hg)
        assert edge([], ["s3"]) in out.edges and edge(["s3"], []) not in out.edges
        assert all(e == edge([], ["s3"]) or "s3" not in e.vertices for e in out.edges)

    @staticmethod
    def _one_size_with_repeats(size, sets, copies, seed):
        """Each of sets vertex sets of the given size once, and copies more
        edges on earlier-drawn sets under other head/tail splits, shuffled, so
        a copy can come before or after the first edge of its set."""
        rng = random.Random(seed)
        names = [f"w{i}" for i in range(3 * size)]
        drawn = []
        while len(drawn) < sets:
            vs = frozenset(rng.sample(names, size))
            if vs not in drawn:
                drawn.append(vs)
        edges = [_roles(vs, rng) for vs in drawn]
        edges += [_roles(rng.choice(drawn), rng) for _ in range(copies)]
        rng.shuffle(edges)
        return DirectedHypergraph(tuple(names), tuple(edges)), len(drawn)

    def test_one_size_repeats_under_other_heads(self):
        rng = random.Random(8)
        names = tuple(f"t{i}" for i in range(10))
        triples = rng.sample(list(combinations(names, 3)), 40)
        # Each triple under one to three of its heads, twice over for some.
        edges = [edge(set(t) - {h}, [h]) for t in triples for h in t[:rng.randint(1, 3)]]
        edges += [edge(set(t) - {t[2]}, [t[2]]) for t in triples[:10]]
        rng.shuffle(edges)
        hg = DirectedHypergraph(names, tuple(edges))
        assert len(edges) > 64 and is_two_to_one(hg)
        out = normalize(hg)
        assert out.edges == naive_normalized_edges(hg)
        assert out.vertices == hg.vertices and len(out.edges) == 40
        # The first edge of each vertex set in input order is the one kept.
        firsts = {}
        for e in edges:
            firsts.setdefault(e.vertices, e)
        assert out.edges == tuple(firsts.values())

    def test_four_uniform_repeats(self):
        hg, sets = self._one_size_with_repeats(4, sets=50, copies=40, seed=3)
        out = normalize(hg)
        assert len(hg.edges) == 90 and len(out.edges) == sets
        assert out.edges == naive_normalized_edges(hg)

    def test_one_size_plus_one_other_size_takes_the_bitset_path(self):
        # The extra edge lies inside some 3-sets and holds none, so it drops
        # them; the 3-sets' own repeats go as well.
        hg, _ = self._one_size_with_repeats(3, sets=60, copies=20, seed=4)
        for extra in (edge(["w0"], ["w1"]), edge(["w0", "w1", "w2"], ["w3", "w4"])):
            mixed = DirectedHypergraph(hg.vertices, hg.edges + (extra,))
            out = normalize(mixed)
            assert out.edges == naive_normalized_edges(mixed)
            assert "edges_at" in vars(mixed.index)

    def test_one_size_without_repeats_returns_its_input(self):
        hg, _ = self._one_size_with_repeats(4, sets=70, copies=0, seed=5)
        for one_size in (hg, paper_i(), gen_random(40, 90, cond="i0-free", seed=2),
                         parse("e a > b\ne b > c\ne c > a\n"), parse("v a\n"), parse("")):
            assert normalize(one_size) is one_size
            assert naive_normalized_edges(one_size) == one_size.edges

    def test_one_size_path_builds_no_edges_at(self):
        hg, _ = self._one_size_with_repeats(3, sets=60, copies=20, seed=6)
        for one_size in (hg, gen_random(40, 90, cond="r4-free", seed=2)):
            normalize(one_size)
            assert "edges_at" not in vars(one_size.index)

    def test_nothing_dropped_with_many_edges(self):
        # All 84 3-sets of nine vertices: none holds another.
        names = tuple(f"t{i}" for i in range(9))
        hg = DirectedHypergraph(names, tuple(
            edge([a, b], [c]) for a, b, c in combinations(names, 3)))
        assert len(hg.edges) == 84
        assert normalize(hg) is hg


class TestIsProper:
    def test_two_classes(self):
        hg = parse("a b > c")
        assert is_proper(hg, Coloring({"a": 0, "b": 0, "c": 1}, 2))

    def test_monochromatic(self):
        hg = parse("a b > c")
        assert not is_proper(hg, Coloring({"a": 0, "b": 0, "c": 0}, 2))

    def test_paper_i_never_2_colorable(self):
        hg = paper_i()
        for bits in product((0, 1), repeat=5):
            coloring = Coloring(dict(zip(hg.vertices, bits)), 2)
            assert not is_proper(hg, coloring)

    def test_unassigned_vertex(self):
        hg = parse("a b > c")
        with pytest.raises(ValidationError):
            is_proper(hg, Coloring({"a": 0, "b": 1}, 2))


class TestValidation:
    def test_bad_names(self):
        for name in ("", ">", "#", "a b", "a#b"):
            with pytest.raises(ValidationError):
                DirectedHypergraph((name,), ())

    def test_duplicate_vertices(self):
        with pytest.raises(ValidationError):
            DirectedHypergraph(("a", "a"), ())

    def test_edge_outside_vertex_set(self):
        with pytest.raises(ValidationError):
            DirectedHypergraph(("a",), (edge(["a"], ["b"]),))

    def test_empty_edge(self):
        with pytest.raises(ValidationError):
            DirectedEdge(frozenset(), frozenset())

    def test_edge_constructor_semantics(self):
        # DirectedEdge writes its own __init__; it must keep the value
        # semantics: sides frozen from any iterable, vertices their union,
        # the overlap check before the empty check, and equality, hash and
        # repr over tail and head only.
        rng = random.Random(6)
        names = [f"x{i}" for i in range(6)]
        wraps = (list, tuple, set, frozenset, iter)
        refused = set()
        for _ in range(300):
            tail = rng.sample(names, rng.randint(0, 3))
            head = rng.sample(names, rng.randint(0, 3))
            tset, hset = frozenset(tail), frozenset(head)
            built = [DirectedEdge(wrap(tail), wrap(head)) for wrap in wraps
                     if not (tset & hset or not tset | hset)]
            if tset & hset:
                message = "head and tail overlap on {%s}" % ",".join(sorted(tset & hset))
            elif not tset | hset:
                message = "edge has no vertices"
            else:
                message = None
            if message is not None:
                for wrap in wraps:
                    with pytest.raises(ValidationError) as got:
                        DirectedEdge(wrap(tail), wrap(head))
                    assert str(got.value) == message
                refused.add(message.split(" on ")[0])
                continue
            for e in built:
                assert type(e.tail) is frozenset and type(e.head) is frozenset
                assert (e.tail, e.head, e.vertices) == (tset, hset, tset | hset)
                assert e == built[0] and hash(e) == hash(built[0])
                assert repr(e) == f"DirectedEdge(tail={e.tail!r}, head={e.head!r})"
                assert len(e) == len(tail) + len(head)
                assert e == DirectedEdge(e.tail, e.head) and pickle.loads(pickle.dumps(e)) == e
                assert pickle.loads(pickle.dumps(e)).vertices == e.vertices
                with pytest.raises(FrozenInstanceError):
                    e.tail = frozenset()
        assert refused == {"head and tail overlap", "edge has no vertices"}
        assert DirectedEdge._fields == ("tail", "head")

    def test_one_frozen_instance_error(self):
        # Every frozen value, the pattern report too, raises the one error
        # core defines, an AttributeError.
        assert issubclass(FrozenInstanceError, AttributeError)
        frozen = [value for value, *_, is_frozen in VALUE_CASES.values() if is_frozen]
        for value in (*frozen, PatternReport("I1", True, ())):
            with pytest.raises(FrozenInstanceError):
                value.x = 1
            with pytest.raises(FrozenInstanceError):
                del value.x

    def test_non_str_names(self):
        with pytest.raises(ValidationError, match="invalid vertex name: 1"):
            DirectedHypergraph((1, 2, 3), ())
        with pytest.raises(ValidationError, match="edge 0 uses undeclared vertices: 1"):
            DirectedHypergraph(("a",), (DirectedEdge([1], ["a"]),))

    def test_coloring_index_bound(self):
        with pytest.raises(ValidationError):
            Coloring({"a": 2}, 2)

    def test_vertex_order_is_part_of_the_value(self):
        a = parse("e a b > c")
        b = a.with_vertex_order(("c", "b", "a"))
        assert a != b
        assert parse(serialize(b)) == b

    def test_vertex_order_from_a_one_shot_iterator(self):
        for text in ("v a\nv b\nv c", "e a b > c"):
            hg = parse(text)
            back = hg.with_vertex_order(v for v in reversed(hg.vertices))
            assert back.vertices == ("c", "b", "a") and back.edges == hg.edges
        with pytest.raises(ValidationError, match="not a permutation"):
            parse("e a b > c").with_vertex_order(v for v in "ab")

    def test_vertex_order_of_non_names_is_refused(self):
        # Items that cannot be sorted with names, or hashed, are refused like
        # any other order that is not a permutation.
        hg = parse("e a b > c")
        for order in (["a", 1, "b"], [["a"], "b", "c"], ["a", "b", "c", "c"], ["a", "a", "b"]):
            with pytest.raises(ValidationError, match="not a permutation"):
                hg.with_vertex_order(order)


class TestColoringFile:
    def test_roundtrip(self):
        hg = parse("a b > c")
        coloring = Coloring({"a": 0, "b": 1, "c": 0}, 2)
        text = serialize_coloring(hg, coloring)
        assert text == "a 0\nb 1\nc 0\n"
        back = parse_coloring(text, k=2)
        assert back == coloring
        # Values the text form would not give back are refused up front.
        for assignment, k in (({"a": 1.0, "b": 0, "c": 0}, 2), ({"a": True, "b": 0, "c": 0}, 2),
                              ({"a": 0, "b": 1, "c": 0}, 2.5), ({"a": 0, "b": 0, "c": 0}, True)):
            with pytest.raises(ValidationError):
                Coloring(assignment, k)

    def test_bad_lines(self):
        for text in ("a", "a x", "a -1", "a 0\na 1"):
            with pytest.raises(ParseError):
                parse_coloring(text)
        # only ASCII decimal digits are a color index; int() alone reads
        # "1_0" as 10 and also takes "+1" and the Arabic-Indic three
        for token in ("1_0", "\u0663", "+1", "1.0", "-", "--1", "0x1"):
            with pytest.raises(ParseError, match="bad color index"):
                parse_coloring(f"a {token}")
        for token in ("-1", "-0", "-12"):
            with pytest.raises(ParseError, match="negative color index"):
                parse_coloring(f"a {token}")
        assert parse_coloring("a 007\nb 10") == Coloring({"a": 7, "b": 10}, 11)

    def test_an_invalid_vertex_name_is_reported_with_its_line(self):
        with pytest.raises(ParseError) as exc:
            parse_coloring("a 0\n> 1\n")
        assert str(exc.value) == "line 2: invalid vertex name: '>'"

    def test_k_defaults_past_the_largest_index_and_comments_are_skipped(self):
        text = "# a coloring\n\na 0  # blue\n   \nb 2\n"
        assert parse_coloring(text) == Coloring({"a": 0, "b": 2}, 3)
        assert parse_coloring("# nothing\n\n") == Coloring({}, 1)


NAMES = tuple(f"n{i}" for i in range(6))


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    verts = list(NAMES[:n])
    edges = []
    if n >= 1:
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            size = draw(st.integers(min_value=1, max_value=min(4, n)))
            support = draw(
                st.lists(st.sampled_from(verts), min_size=size, max_size=size, unique=True)
            )
            heads = draw(st.integers(min_value=0, max_value=size))
            edges.append(DirectedEdge(frozenset(support[heads:]), frozenset(support[:heads])))
    order = draw(st.permutations(verts))
    return DirectedHypergraph(tuple(order), tuple(edges))


@given(hypergraphs())
def test_roundtrip_property(hg):
    assert parse(serialize(hg)) == hg


# Names built from the format's own tokens and separators, plus any other
# non-whitespace character.  A name with '#' or equal to '>' must be refused
# at construction; every other one must survive serialize/parse unchanged.
ADVERSARIAL_NAMES = st.text(
    alphabet=st.sampled_from("ve>#-") | st.characters(blacklist_categories=("Cs", "Z", "Cc")),
    min_size=1,
    max_size=3,
)


@st.composite
def adversarial_hypergraphs(draw):
    names = draw(st.lists(ADVERSARIAL_NAMES, max_size=6, unique=True))
    edges = []
    for _ in range(draw(st.integers(min_value=0, max_value=5)) if names else 0):
        support = draw(st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True))
        heads = draw(st.integers(min_value=0, max_value=len(support)))
        edges.append(DirectedEdge(frozenset(support[heads:]), frozenset(support[:heads])))
    return names, draw(st.permutations(names)), edges


@given(adversarial_hypergraphs())
def test_roundtrip_adversarial_names(spec):
    names, order, edges = spec
    if any(name == ">" or "#" in name for name in names):
        with pytest.raises(ValidationError):
            DirectedHypergraph(tuple(order), tuple(edges))
        return
    hg = DirectedHypergraph(tuple(order), tuple(edges))
    assert parse(serialize(hg)) == hg
    coloring = Coloring({v: i % 3 for i, v in enumerate(order)}, 3)
    assert parse_coloring(serialize_coloring(hg, coloring), k=3) == coloring


@given(hypergraphs())
def test_normalize_idempotent(hg):
    once = normalize(hg)
    assert normalize(once) == once
    # No surviving pair may be contained in another, vertex-set-wise.
    sets = [e.vertices for e in once.edges]
    assert not any(a <= b for i, a in enumerate(sets) for j, b in enumerate(sets) if i != j)


@given(hypergraphs(), st.integers(min_value=0, max_value=2**30))
def test_properness_transfers_to_normalized(hg, seed):
    import random

    rng = random.Random(seed)
    coloring = Coloring({v: rng.randint(0, 2) for v in hg.vertices}, 3)
    if is_proper(hg, coloring):
        assert is_proper(normalize(hg), coloring)


@given(hypergraphs())
def test_properness_invariant_under_color_permutation(hg):
    import random

    rng = random.Random(7)
    coloring = Coloring({v: rng.randint(0, 2) for v in hg.vertices}, 3)
    swapped = Coloring({v: (c + 1) % 3 for v, c in coloring.assignment.items()}, 3)
    assert is_proper(hg, coloring) == is_proper(hg, swapped)
