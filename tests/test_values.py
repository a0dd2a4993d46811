"""Value semantics of the package's record classes: equality, hash, repr,
pickling, frozenness and construction, pinned class by class."""

import copy
import pickle

import pytest

from dhcolor import (
    ChromaticResult,
    Coloring,
    DirectedEdge,
    DirectedHypergraph,
    FuzzFailure,
    FuzzReport,
    GenSpec,
    GoodColoring,
    HeadStar,
    RunTrace,
    TraceEvent,
    augment_i0,
    edge,
    gen_h2_tower,
    gen_random,
    induce_good_coloring,
    normalize,
    paper_i,
    parse,
)

HG = DirectedHypergraph(("a", "b", "c"), (edge(["a"], ["c"]), edge(["b"], ["a"])))
HG_REPR = ("DirectedHypergraph(vertices=('a', 'b', 'c'), edges=("
           "DirectedEdge(tail=frozenset({'a'}), head=frozenset({'c'})), "
           "DirectedEdge(tail=frozenset({'b'}), head=frozenset({'a'}))))")
# HG as parse builds it: from position rows, its edges built when read.
HG_TEXT = "v a\nv b\nv c\ne a > c\ne b > a\n"
# Hypergraphs built from position rows: by the generators, by normalize when
# it drops an edge (here the second) and by augment_i0.  Their tails have
# two names, and the order in which a two-name frozenset prints follows the
# string hash, so their repr is built from the value's own fields.
ROW_BUILDS = {
    "gen_random": lambda: gen_random(9, 18, cond="i0-free", seed=3),
    "gen_h2_tower": lambda: gen_h2_tower(3),
    "normalize": lambda: normalize(parse("e a b > c\ne a b d > c\ne c d > a")),
    "augment_i0": lambda: augment_i0(paper_i()),
}
COLORING = Coloring({"a": 0, "b": 1, "c": 1}, 2)
COLORING_REPR = "Coloring(assignment={'a': 0, 'b': 1, 'c': 1}, k=2)"
GOOD = induce_good_coloring(parse("e a b > c"))


def _good_repr(gc):
    # The shadow edges are two-vertex frozensets.  The order in which a
    # frozenset of two names prints follows the process's string hashes and
    # can differ between a set and its copy, so the string is built from the
    # value's own fields.
    return (f"GoodColoring(hypergraph={gc.hypergraph!r}, colors={gc.colors!r}, "
            f"orientation={gc.orientation!r})")


def _hg_repr(hg):
    return f"DirectedHypergraph(vertices={hg.vertices!r}, edges={hg.edges!r})"


def _repr_of(value, expected):
    return expected(value) if callable(expected) else expected


# (instance, its field names in order, its exact repr or a function of the
# instance giving it, hashable, frozen)
CASES = {
    "DirectedEdge": (DirectedEdge(["a"], ["c"]), ("tail", "head"),
                     "DirectedEdge(tail=frozenset({'a'}), head=frozenset({'c'}))", True, True),
    "DirectedHypergraph": (HG, ("vertices", "edges"), HG_REPR, True, True),
    "DirectedHypergraph-parsed": (parse(HG_TEXT), ("vertices", "edges"), HG_REPR, True, True),
    **{f"DirectedHypergraph-{name}": (build(), ("vertices", "edges"), _hg_repr, True, True)
       for name, build in ROW_BUILDS.items()},
    "Coloring": (COLORING, ("assignment", "k"), COLORING_REPR, False, True),
    "TraceEvent": (TraceEvent(3, "b", "colored-red", 1, "c"),
                   ("step", "vertex", "action", "edge", "next_vertex"),
                   "TraceEvent(step=3, vertex='b', action='colored-red', edge=1, next_vertex='c')",
                   True, True),
    "RunTrace": (RunTrace([TraceEvent(1, "a", "kept")], ["edge 0 is monochromatic"]),
                 ("events", "violations"),
                 "RunTrace(events=[TraceEvent(step=1, vertex='a', action='kept', edge=None, "
                 "next_vertex=None)], violations=['edge 0 is monochromatic'])", False, False),
    "HeadStar": (HeadStar("triangle", ("a", "b", "c")), ("kind", "vertices"),
                 "HeadStar(kind='triangle', vertices=('a', 'b', 'c'))", True, True),
    "FuzzFailure": (FuzzFailure(7, 5, 4, "algorithm produced an improper coloring"),
                    ("seed", "n", "m", "reason"),
                    "FuzzFailure(seed=7, n=5, m=4, reason='algorithm produced an improper "
                    "coloring')", True, True),
    "FuzzReport": (FuzzReport("ht3", 9, [FuzzFailure(1, 3, 0, "x")]),
                   ("algorithm", "trials", "failures"),
                   "FuzzReport(algorithm='ht3', trials=9, failures=[FuzzFailure(seed=1, n=3, "
                   "m=0, reason='x')])", False, False),
    "GoodColoring": (GOOD, ("hypergraph", "colors", "orientation"), _good_repr, False, True),
    "GenSpec": (GenSpec("random", n=7, m=9, cond="i0-free", seed=3),
                ("kind", "k", "n", "m", "cond", "seed", "tail_range"),
                "GenSpec(kind='random', k=2, n=7, m=9, cond='i0-free', seed=3, tail_range=(2, 2))",
                True, True),
    "ChromaticResult": (ChromaticResult(None, 4, None), ("chi", "max_k", "witness"),
                        "ChromaticResult(chi=None, max_k=4, witness=None)", True, True),
    "ChromaticResult-witness": (ChromaticResult(2, 8, COLORING), ("chi", "max_k", "witness"),
                                f"ChromaticResult(chi=2, max_k=8, witness={COLORING_REPR})",
                                False, True),
}


def _rebuilt(value, fields):
    """A new instance of value's class, built by keyword from its fields."""
    return type(value)(**{f: copy.deepcopy(getattr(value, f)) for f in fields})


@pytest.mark.parametrize("name", CASES)
class TestValueSemantics:
    def test_equality(self, name):
        value, fields, _, _, _ = CASES[name]
        for other in (_rebuilt(value, fields), copy.copy(value), copy.deepcopy(value)):
            assert other is not value
            assert value == other and other == value and not value != other
        as_tuple = tuple(getattr(value, f) for f in fields)
        assert value != as_tuple and as_tuple != value
        assert value.__eq__(as_tuple) is NotImplemented
        assert value != object() and value != None  # noqa: E711 -- the operator is under test

    def test_other_classes_never_equal(self, name):
        value = CASES[name][0]
        for other_name, (other, *_) in CASES.items():
            if type(other) is not type(value):
                assert value != other and value.__eq__(other) is NotImplemented, other_name

    def test_hash(self, name):
        value, fields, _, hashable, _ = CASES[name]
        if hashable:
            assert hash(value) == hash(tuple(getattr(value, f) for f in fields))
            assert hash(value) == hash(_rebuilt(value, fields))
            assert {value, _rebuilt(value, fields)} == {value}
        else:
            with pytest.raises(TypeError):
                hash(value)

    def test_repr(self, name):
        value, fields, expected, _, _ = CASES[name]
        rebuilt = _rebuilt(value, fields)
        assert repr(value) == _repr_of(value, expected)
        assert repr(rebuilt) == _repr_of(rebuilt, expected)

    def test_pickle_round_trip(self, name):
        value, _, expected, _, _ = CASES[name]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(value, protocol))
            assert type(back) is type(value) and back == value
            assert repr(back) == _repr_of(back, expected)

    def test_frozenness(self, name):
        value, fields, expected, _, frozen = CASES[name]
        target = copy.deepcopy(value)
        for f in (*fields, "not_a_field"):
            if frozen:
                with pytest.raises(AttributeError) as got:
                    setattr(target, f, None)
                assert str(got.value) == f"cannot assign to field {f!r}"
                assert type(got.value) is not AttributeError  # a subclass of its own
                with pytest.raises(AttributeError) as got:
                    delattr(target, f)
                assert str(got.value) == f"cannot delete field {f!r}"
            else:
                setattr(target, f, "changed")
                assert getattr(target, f) == "changed"
        if frozen:
            assert repr(target) == _repr_of(target, expected)
        else:
            delattr(target, "not_a_field")
            assert target != value

    def test_keyword_construction(self, name):
        value, fields, _, _, _ = CASES[name]
        by_position = type(value)(*(getattr(value, f) for f in fields))
        assert by_position == value == _rebuilt(value, fields)


class TestNonFields:
    """Values computed at construction that take no part in ==, hash or repr."""

    def test_edge_vertices(self):
        e = edge(["a", "b"], ["c"])
        assert e.vertices == frozenset("abc")
        for back in (pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e)):
            assert back.vertices == e.vertices and back == e
        assert repr(e) == f"DirectedEdge(tail={e.tail!r}, head={e.head!r})"

    def test_hypergraph_positions_and_index(self):
        hg = parse("e a b > c\ne c d > a")
        hg.index.masks  # noqa: B018 -- a cached view, pickled with the value or not
        for back in (pickle.loads(pickle.dumps(hg)), copy.copy(hg), copy.deepcopy(hg)):
            assert back == hg and hash(back) == hash(hg)
            assert back.positions == hg.positions == {"a": 0, "b": 1, "c": 2, "d": 3}
            assert back.index.masks == hg.index.masks
        reordered = hg.with_vertex_order(("d", "c", "b", "a"))
        assert reordered != hg and reordered.positions != hg.positions

    @pytest.mark.parametrize("edges_read", (False, True))
    def test_parsed_hypergraph_is_the_value_built_from_edges(self, edges_read):
        assert repr(HG) == HG_REPR
        self._is_the_value(lambda: parse(HG_TEXT), edges_read, HG, HG_REPR)

    @pytest.mark.parametrize("edges_read", (False, True))
    @pytest.mark.parametrize("name", ROW_BUILDS)
    def test_generated_hypergraph_is_the_value_built_from_edges(self, name, edges_read):
        source = ROW_BUILDS[name]()
        self._is_the_value(ROW_BUILDS[name], edges_read,
                           DirectedHypergraph(source.vertices, source.edges), _hg_repr)

    @staticmethod
    def _is_the_value(build, edges_read, twin, expected):
        """Fresh hypergraphs from build, with edges unread or read, are the
        value twin, which is built from edge records: ==, hash, repr,
        pickling at every protocol, copying and with_vertex_order agree.
        A pickled copy's repr is expected's, as in ``CASES``: unpickling
        rebuilds each frozenset, and a two-name one can then print its names
        in the other order (see ``_good_repr``)."""
        def built():
            hg = build()
            if edges_read:
                hg.edges  # noqa: B018 -- built and kept on first read
            assert ("edges" in vars(hg)) == edges_read
            return hg

        assert built() == twin and twin == built() and hash(built()) == hash(twin)
        assert repr(built()) == repr(twin)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(built(), protocol))
            assert back == twin and hash(back) == hash(twin)
            assert repr(back) == _repr_of(back, expected)
            assert back.positions == twin.positions and back.index.masks == twin.index.masks
        for back in (copy.copy(built()), copy.deepcopy(built())):
            assert back == twin and hash(back) == hash(twin) and back.positions == twin.positions
        order = (*twin.vertices[2:], *twin.vertices[:2])
        reordered = built().with_vertex_order(order)
        assert reordered == twin.with_vertex_order(order) != twin
        assert reordered.index.masks == twin.with_vertex_order(order).index.masks

    def test_coloring_equality_reads_the_assignment_as_a_dict(self):
        assert Coloring({"a": 0, "b": 1}, 2) == Coloring({"b": 1, "a": 0}, 2)
        assert Coloring({"a": 0}, 2) != Coloring({"a": 0}, 3)


class TestDefaults:
    def test_gen_spec(self):
        with pytest.raises(TypeError):
            GenSpec()  # kind has no default
        spec = GenSpec("h2-tower")
        assert (spec.k, spec.n, spec.m, spec.cond, spec.seed, spec.tail_range) == (
            2, 5, 5, "none", 0, (2, 2))
        assert GenSpec(kind="h2-tower") == spec and GenSpec("h2-tower", k=3) != spec
        assert spec.build() == GenSpec(kind="h2-tower", k=2).build()

    def test_trace_event(self):
        ev = TraceEvent(step=1, vertex="a", action="kept")
        assert (ev.edge, ev.next_vertex) == (None, None)
        assert ev == TraceEvent(1, "a", "kept", None, None)
        assert ev.line() == "1 a kept - -"

    def test_run_trace_lists_are_not_shared(self):
        first, second = RunTrace(), RunTrace()
        assert first == second == RunTrace([], [])
        assert first.events is not second.events and first.violations is not second.violations
        first.add("a", "kept")
        first.violate("broken")
        assert second.events == [] and second.violations == []
        assert RunTrace().events == [] and first != second

    def test_fuzz_report_failures_are_not_shared(self):
        first, second = FuzzReport("ht3", 1), FuzzReport(algorithm="ht3", trials=1)
        assert first == second and first.failures is not second.failures
        first.failures.append(FuzzFailure(1, 3, 0, "x"))
        assert second.failures == [] and second.ok and not first.ok

    def test_a_given_list_is_kept_not_copied(self):
        events, failures = [], []
        assert RunTrace(events).events is events
        assert FuzzReport("ht3", 0, failures).failures is failures

