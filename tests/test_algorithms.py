import collections
import functools
import hashlib
import random

import pytest

from dhcolor import (
    ALGORITHMS,
    BLUE,
    COLOR_NAMES,
    CONDITION_IDS,
    GREEN,
    RED,
    DirectedEdge,
    DirectedHypergraph,
    HeadStar,
    InvariantViolationError,
    PreconditionError,
    applicable,
    augment_i0,
    check_condition,
    classify_head_star,
    color_head_tail_3,
    color_i0_4,
    color_i0_r4_2,
    color_one_head,
    gen_h2_tower,
    gen_perm_tower,
    gen_random,
    is_proper,
    normalize,
    paper_i,
    paper_r,
    parse,
    run_fuzz,
    serialize,
)
from dhcolor import algorithms
from dhcolor.algorithms import RUNNERS
from dhcolor.fuzzing import fuzz_instance

# Four one-head edges arranged so that processing runs x,y,c,d,e,z, the edge
# cd>e goes all red when e is processed, and the algorithm must flip d back.
RECOLOR_INSTANCE = """\
v x
v y
v c
v d
v e
v z
e x c > d
e y d > e
e y e > z
e c d > e
"""


class TestColorOneHead:
    def test_single_edge(self):
        hg = parse("e a b > c")
        coloring, trace, order = color_one_head(hg)
        assert dict(coloring.assignment) == {"a": 0, "b": 1, "c": 0}
        assert order == ("a", "b", "c")
        assert [e.action for e in trace.events] == ["kept", "colored-red", "kept"]
        assert trace.events[1].next_vertex == "c"

    def test_no_edges_all_blue(self):
        hg = parse("v a\nv b")
        coloring, trace, order = color_one_head(hg)
        assert set(coloring.assignment.values()) == {BLUE}
        assert order == ("a", "b")

    def test_recolor_path(self):
        hg = parse(RECOLOR_INSTANCE)
        coloring, trace, order = color_one_head(hg)
        assert order == ("x", "y", "c", "d", "e", "z")
        assert dict(coloring.assignment) == {
            "x": 0, "y": 0, "c": 1, "d": 0, "e": 1, "z": 0,
        }
        actions = [e.action for e in trace.events]
        assert actions.count("recolored-previous-blue") == 1
        assert trace.events[5].vertex == "d"
        assert not trace.violations
        assert is_proper(hg, coloring)

    def test_processing_order_is_permutation(self):
        hg = parse(RECOLOR_INSTANCE)
        _, _, order = color_one_head(hg)
        assert sorted(order) == sorted(hg.vertices)

    def test_steps_strictly_increase(self):
        _, trace, _ = color_one_head(parse(RECOLOR_INSTANCE))
        steps = [e.step for e in trace.events]
        assert steps == sorted(set(steps))

    def test_rejects_tail_tail_intersection(self):
        hg = parse("e a b > c\ne a d > e")  # shared a is a tail of both
        with pytest.raises(PreconditionError) as err:
            color_one_head(hg)
        assert err.value.report is not None
        assert not err.value.report.avoided

    def test_rejects_wrong_shape(self):
        with pytest.raises(PreconditionError):
            color_one_head(parse("e a > b"))  # single tail
        with pytest.raises(PreconditionError):
            color_one_head(parse("e a b > c d"))  # two heads

    def test_normalizes_first(self):
        # The contained edge makes the containing one redundant; the pair
        # would otherwise break the one-head shape check.
        hg = parse("e a b > c\ne a b c > d e")
        coloring, _, _ = color_one_head(hg)
        assert is_proper(hg, coloring)

    def test_non_uniform_tails(self):
        hg = parse("e a b c d > e\ne a b > f")
        coloring, trace, _ = color_one_head(hg)
        assert is_proper(hg, coloring)
        assert not trace.violations

    def test_unchecked_red_first_vertex_has_no_previous_vertex(self):
        # The one vertex of e's tail is processed first, goes red and makes
        # e all red, with no earlier vertex to flip back.
        coloring, trace, order = color_one_head(parse("e a >"), checked=False)
        assert order == ("a",)
        assert trace.to_text() == "1 a colored-red 0 -\n"
        assert trace.violations == [
            "monochromatic red edge 0 ends at a tail vertex",
            "monochromatic red edge with no previous vertex to recolor",
            "result is not a proper coloring of the input",
        ]

    def test_random_ties_stay_sound(self):
        hg = parse(RECOLOR_INSTANCE)
        for seed in range(20):
            coloring, trace, order = color_one_head(hg, tie_rng=random.Random(seed))
            assert is_proper(hg, coloring)
            assert not trace.violations
            assert sorted(order) == sorted(hg.vertices)


class TestColorHeadTail3:
    def test_paper_r(self):
        hg = paper_r()
        coloring, trace = color_head_tail_3(hg)
        assert is_proper(hg, coloring)
        assert coloring.k == 3 and coloring.colors_used() <= 3
        assert not trace.violations

    def test_edgeless(self):
        coloring, _ = color_head_tail_3(parse("v a\nv b"))
        assert set(coloring.assignment.values()) == {BLUE}

    def test_multi_head_edges(self):
        hg = parse("e a b > c d\ne c d > e f")
        coloring, trace = color_head_tail_3(hg)
        assert is_proper(hg, coloring)
        assert not trace.violations

    def test_red_vertex_can_replace_green(self):
        # The head-ending edge v3 v4 > v5 picks up red at v4 from the
        # tail-ending edge and is never monochromatic blue at its head, so the
        # run finishes with no green at all.
        hg = parse("v v1\nv v2\nv v3\nv v4\nv v5\ne v1 v4 > v2\ne v3 v4 > v5")
        coloring, trace = color_head_tail_3(hg)
        assert not trace.violations
        assert is_proper(hg, coloring)
        assert GREEN not in coloring.assignment.values()
        assert coloring.assignment["v4"] == RED

    def test_rejects_mixed_one_intersection(self):
        hg = parse("e a b > c\ne c d > e")  # R4 shape
        with pytest.raises(PreconditionError):
            color_head_tail_3(hg)

    def test_rejects_headless_edge(self):
        with pytest.raises(PreconditionError):
            color_head_tail_3(parse("e a b >"))


class TestClassifyHeadStar:
    def test_empty(self):
        hg = parse("v u\nv a\nv b")
        assert classify_head_star(hg, "u") == HeadStar("empty", ())

    def test_pivot_two_edges(self):
        hg = parse("e v w > u\ne v z > u")
        assert classify_head_star(hg, "u") == HeadStar("pivot", ("v",))

    def test_single_edge_prefers_smaller_pivot(self):
        hg = parse("e v w > u")
        assert classify_head_star(hg, "u") == HeadStar("pivot", ("v",))

    def test_triangle(self):
        hg = parse("e v w > u\ne w z > u\ne v z > u")
        assert classify_head_star(hg, "u") == HeadStar("triangle", ("v", "w", "z"))

    def test_rejects_non_i0_free(self):
        hg = parse("e a b > u\ne c d > u")  # I0 at u
        with pytest.raises(PreconditionError):
            classify_head_star(hg, "u")

    def test_unclassifiable_star_raises(self):
        hg = parse("e a b > u\ne b c > u\ne c d > u")
        with pytest.raises(InvariantViolationError):
            classify_head_star(hg, "u", checked=False)

    def test_unknown_vertex(self):
        with pytest.raises(ValueError):
            classify_head_star(parse("e a b > c"), "nope")


class TestAugmentI0:
    def test_fills_empty_star_around_smallest_other_vertex(self):
        hg = parse("v u\nv v\nv w")
        out = augment_i0(hg)
        star_u = [e for e in out.edges if "u" in e.head]
        assert [sorted(e.tail) for e in star_u] == [["v", "w"]]
        # v is the smallest-index vertex other than u, hence the pivot.
        star_w = [e for e in out.edges if "w" in e.head]
        assert all("u" in e.tail for e in star_w)  # pivot for w is u

    def test_full_pivot_star_is_fixpoint_for_that_vertex(self):
        hg = parse("v u\nv p\nv a\nv b\ne p a > u\ne p b > u")
        out = augment_i0(hg)
        star_u = {e.tail for e in out.edges if "u" in e.head}
        assert star_u == {frozenset(("p", "a")), frozenset(("p", "b"))}

    def test_triangle_untouched(self):
        hg = parse("e v w > u\ne w z > u\ne v z > u")
        out = augment_i0(hg)
        star_u = [e for e in out.edges if "u" in e.head]
        assert len(star_u) == 3

    def test_paper_i_stays_i0_free(self):
        out = augment_i0(paper_i())
        assert check_condition(out, "i0-free").avoided
        assert set(out.vertices) == set(paper_i().vertices)
        assert set(paper_i().edges) <= set(out.edges)

    def test_rejects_duplicate_vertex_sets(self):
        hg = parse("e a b > c\ne a c > b")
        with pytest.raises(PreconditionError):
            augment_i0(hg)

    def test_checked_rejections_name_what_is_broken(self):
        # The 2->1 shape, then i0-freeness (with its witness report), then
        # distinct vertex sets.  The last input breaks both of the latter:
        # edges 0 and 1 share a vertex set, and edges 0 and 2 meet only at
        # their common head c, so the I0 pair is named.
        for text, message in (("e a b > c\ne a b c > d", "edges [1] are not of 2->1 shape"),
                              ("e a b > c\ne x y > c", "condition i0-free violated by edge pairs (0,1)"),
                              ("e a b > c\ne a c > b", "two edges share a vertex set"),
                              ("e a b > c\ne a c > b\ne x y > c",
                               "condition i0-free violated by edge pairs (0,2)")):
            with pytest.raises(PreconditionError) as err:
                augment_i0(parse(text))
            assert str(err.value) == message
            assert (err.value.report is None) == ("condition" not in message)


class TestColorI04:
    def test_paper_i(self):
        hg = paper_i()
        coloring, trace = color_i0_4(hg)
        assert is_proper(hg, coloring)
        assert coloring.k == 4 and coloring.colors_used() <= 4
        assert not trace.violations

    def test_edgeless(self):
        coloring, _ = color_i0_4(parse("v a\nv b\nv c"))
        assert set(coloring.assignment.values()) == {BLUE}

    def test_duplicate_sets_normalized_away(self):
        hg = parse("e a b > c\ne a c > b\ne b c > a")
        coloring, trace = color_i0_4(hg)
        assert is_proper(hg, coloring)
        assert not trace.violations

    def test_rejects_i0(self):
        hg = parse("e a b > u\ne c d > u")
        with pytest.raises(PreconditionError):
            color_i0_4(hg)

    def test_unchecked_mode_reports_instead_of_raising(self):
        hg = parse("e a b > u\ne c d > u")
        coloring, trace = color_i0_4(hg, checked=False)
        # Precondition is skipped; the run may or may not be proper, but it
        # must not raise and must fill in every vertex.
        assert set(coloring.assignment) == set(hg.vertices)
        # The star around u has no pivot and no triangle shape, and the audit
        # machinery must say so.
        assert trace.violations

    def test_broken_augmentation_raises_audit_and_star_issue(self, monkeypatch):
        # An augmentation that gives c a second edge with a disjoint tail
        # makes an I0 pair and an unclassifiable star: both are reported.
        hg = parse("v a\nv b\nv c\nv d\nv e\ne a b > c\n")
        broken = DirectedEdge(frozenset(("d", "e")), frozenset(("c",)))
        monkeypatch.setattr("dhcolor.algorithms.augment_i0", lambda hn, checked=True: (
            DirectedHypergraph(hn.vertices, hn.edges + (broken,))))
        with pytest.raises(InvariantViolationError) as exc:
            color_i0_4(hg)
        violations = exc.value.violations
        assert violations[0] == "augmentation broke i0-freeness"
        assert ("head-star of c is neither empty, pivoted, nor a triangle; input not i0-free"
                in violations)

    def test_skipped_augmentation_reports_empty_stars(self, monkeypatch):
        # With no augmentation the empty head-stars of a and b stay empty.
        monkeypatch.setattr("dhcolor.algorithms.augment_i0", lambda hn, checked=True: hn)
        with pytest.raises(InvariantViolationError) as exc:
            color_i0_4(parse("e a b > c"))
        assert exc.value.violations == ["head-star of a still empty after augmentation",
                                         "head-star of b still empty after augmentation"]

    def test_short_augmentation_reports_partial_pivot_star(self, monkeypatch):
        # The last added edge, a c > d, completes d's pivot star around a;
        # without it d's star is pivoted but not full.
        real = augment_i0

        def short(hn, checked=True):
            out = real(hn, checked)
            return DirectedHypergraph(out.vertices, out.edges[:-1])

        monkeypatch.setattr("dhcolor.algorithms.augment_i0", short)
        with pytest.raises(InvariantViolationError) as exc:
            color_i0_4(parse("v a\nv b\nv c\nv d\ne a b > c"))
        assert exc.value.violations == [
            "head-star of d is neither a triangle nor a full pivot star"]

    def test_unchecked_mode_reports_edges_with_more_than_two_tails(self):
        for hg in (parse("e a b c > d"), gen_random(8, 10, seed=3, tail_range=(2, 4))):
            coloring, trace = color_i0_4(hg, checked=False)
            assert set(coloring.assignment) == set(hg.vertices)
            assert trace.violations


class TestColorI0R42:
    def test_single_edge(self):
        hg = parse("e a b > c")
        coloring, trace = color_i0_r4_2(hg)
        assert dict(coloring.assignment) == {"a": 0, "b": 0, "c": 1}
        assert not trace.violations

    def test_edgeless(self):
        coloring, _ = color_i0_r4_2(parse("v a"))
        assert set(coloring.assignment.values()) == {BLUE}

    def test_tail_tail_chain(self):
        hg = parse("e a b > c\ne a d > e\ne b d > f")
        coloring, trace = color_i0_r4_2(hg)
        assert is_proper(hg, coloring)
        assert coloring.k == 2

    def test_rejects_r4(self):
        with pytest.raises(PreconditionError):
            color_i0_r4_2(parse("e a b > c\ne c d > e"))

    def test_rejects_i0(self):
        with pytest.raises(PreconditionError):
            color_i0_r4_2(parse("e a b > u\ne c d > u"))

    def test_unchecked_improper_result_is_reported_not_raised(self):
        # A 3-chromatic input cannot have a proper 2-coloring, so the audit
        # must flag the outcome while unchecked mode still returns it.
        hg = paper_i()
        coloring, trace = color_i0_r4_2(hg, checked=False)
        assert not is_proper(hg, coloring)
        assert any("not a proper coloring" in v for v in trace.violations)


@pytest.mark.parametrize("algo", [color_i0_4, color_i0_r4_2])
def test_unchecked_headless_edge_is_reported_not_raised(algo):
    hg = parse("e a b >\ne b c > d")
    with pytest.raises(PreconditionError):
        algo(hg)
    coloring, trace = algo(parse("e a b >"), checked=False)
    assert dict(coloring.assignment) == {"a": BLUE, "b": BLUE}
    assert any("not a proper coloring" in v for v in trace.violations)
    coloring, _ = algo(hg, checked=False)
    assert set(coloring.assignment) == set(hg.vertices)


class TestAuditsFire:
    """Audits that no correct run trips, each driven by an injected fault: an
    unchecked run reports the message on its trace, a checked run raises it."""

    @staticmethod
    def _assert_reported(run, hg, message):
        assert message in run(hg, checked=False)[1].violations
        with pytest.raises(InvariantViolationError) as exc:
            run(hg)
        assert message in exc.value.violations

    @pytest.mark.parametrize("name, hg, skipped, message", [
        ("ht3", paper_r(), RED, "tail-ending edge 0 has no red vertex after pass 1"),
        ("i0-4", paper_i(), RED, "E3 edge 0 still all blue after step 1"),
        ("i0-4", paper_i(), RED, "E1/E3 edge 1 still all blue after step 2"),
        ("i0-4", paper_i(), GREEN, "E1 edge 3 has no green vertex after step 2"),
    ])
    def test_skipped_pass(self, monkeypatch, name, hg, skipped, message):
        # The pass that paints the skipped color leaves every vertex as it is.
        sweep = algorithms._Run.sweep

        def faulty(run, order, keys, c, gate=BLUE):
            if c != skipped:
                sweep(run, order, keys, c, gate)

        monkeypatch.setattr(algorithms._Run, "sweep", faulty)
        self._assert_reported(ALGORITHMS[name].run, hg, message)

    def test_report_order(self, monkeypatch):
        # The red pass paints d, e and f in place of its own rule, so edge 1
        # is all red and edges 0 and 2 all blue: edge 1 trips the second
        # check of the audit only, edges 0 and 2 both checks.  An audit
        # reports by edge index, and an edge's failures in check order.
        def faulty(run, order, keys, c, gate=BLUE):
            for p in (3, 4, 5):
                run.move(p, c)

        monkeypatch.setattr(algorithms._Run, "sweep", faulty)
        hg = parse("e a b > c\ne d e > f\ne g h > i\n")
        violations = [
            "edge 0 ended with no red vertex",
            "edge 0 monochromatic at termination",
            "edge 1 monochromatic at termination",
            "edge 2 ended with no red vertex",
            "edge 2 monochromatic at termination",
            "result is not a proper coloring of the input",
        ]
        assert ALGORITHMS["i0r4-2"].run(hg, checked=False)[1].violations == violations
        with pytest.raises(InvariantViolationError) as exc:
            ALGORITHMS["i0r4-2"].run(hg)
        assert exc.value.violations == violations

    def test_vertex_processed_twice(self, monkeypatch):
        # A bisect_left that points at the last unprocessed position removes
        # f in place of each forced head, so e is processed twice: red, blue
        # again as the previous vertex of d, then red.  No input that meets
        # the one-head hypothesis was seen to reach this audit under such a
        # fault, so the checked run skips the hypothesis check as well.
        monkeypatch.setattr(algorithms, "bisect_left", lambda a, x: len(a) - 1)
        monkeypatch.setattr(algorithms, "_require_hypothesis", lambda hn, spec: None)
        hg = parse("v a\nv b\nv c\nv d\nv e\nv f\ne b d > a\ne b e > a\ne a c > e\ne d e > c\n")
        self._assert_reported(ALGORITHMS["one-head"].run, hg, "vertex e changed color more than twice")


class TestOrderingRobustness:
    def test_paper_i_under_permutations(self):
        hg = paper_i()
        rng = random.Random(11)
        for _ in range(10):
            order = list(hg.vertices)
            rng.shuffle(order)
            permuted = hg.with_vertex_order(order)
            coloring, trace = color_i0_4(permuted)
            assert is_proper(permuted, coloring)
            assert not trace.violations

    def test_paper_r_under_permutations(self):
        hg = paper_r()
        rng = random.Random(12)
        for _ in range(10):
            order = list(hg.vertices)
            rng.shuffle(order)
            permuted = hg.with_vertex_order(order)
            coloring, trace = color_head_tail_3(permuted)
            assert is_proper(permuted, coloring)
            assert not trace.violations


@pytest.mark.parametrize("algo", ("one-head", "ht3", "i0-4", "i0r4-2"))
def test_fuzz_smoke(algo):
    report = run_fuzz(algo, trials=250, seed=99)
    assert report.ok, report.failures[:3]


def test_fuzz_smoke_mixed_tails():
    report = run_fuzz("one-head", trials=250, seed=98, tail_range=(2, 5))
    assert report.ok, report.failures[:3]


def test_fuzz_smoke_ht3_single_tail_edges():
    # ht3 only needs a head and a tail per edge, so tails of size 1 are fair game.
    report = run_fuzz("ht3", trials=250, seed=97, tail_range=(1, 4))
    assert report.ok, report.failures[:3]


def test_fuzz_rejects_bad_tail_range():
    for algo in ("i0-4", "i0r4-2"):
        for tails in ((2, 4), (1, 2), (3, 3)):
            with pytest.raises(ValueError) as err:
                run_fuzz(algo, trials=1, tail_range=tails)
            assert str(err.value) == f"{algo} requires 2->1 instances; tail_range must be (2, 2)"
    for tails in ((1, 2), (1, 5)):
        with pytest.raises(ValueError) as err:
            run_fuzz("one-head", trials=20, tail_range=tails)
        assert str(err.value) == (f"one-head requires tails of at least 2; "
                                  f"tail_range {tails} allows fewer")
    with pytest.raises(ValueError) as err:
        run_fuzz("nope", trials=1)
    assert str(err.value) == ("unknown algorithm 'nope'; "
                              "expected one of ('one-head', 'ht3', 'i0-4', 'i0r4-2')")


def test_fuzz_rejects_empty_n_range():
    with pytest.raises(ValueError, match=r"^empty n_range \(9, 3\)"):
        run_fuzz("ht3", trials=0, n_range=(9, 3))


def test_fuzz_rejects_n_range_below_3_before_any_trial():
    seen = []
    with pytest.raises(ValueError) as err:
        run_fuzz("ht3", trials=50, n_range=(2, 9), on_instance=seen.append)
    assert str(err.value) == "n_range (2, 9) allows fewer than 3 vertices, which gen_random cannot draw"
    assert seen == []


def test_fuzz_rejects_tail_range_some_n_cannot_draw_before_any_trial():
    cases = [("ht3", (3, 9), (5, 5)), ("one-head", (3, 9), (4, 6)),
             ("ht3", (3, 9), (3, 2)), ("ht3", (5, 9), (0, 3))]
    for algo, n_range, tails in cases:
        seen = []
        with pytest.raises(ValueError) as err:
            run_fuzz(algo, trials=50, n_range=n_range, tail_range=tails, on_instance=seen.append)
        assert str(err.value) == (f"tail_range {tails} is unusable for some n in n_range {n_range}; "
                                  "gen_random needs 1 <= tail_min <= min(tail_max, n - 1)")
        assert seen == []
    # The largest tail every n can draw is n_min - 1.
    assert run_fuzz("ht3", trials=20, n_range=(5, 9), tail_range=(4, 8)).ok


def test_fuzz_zero_trials():
    report = run_fuzz("ht3", trials=0)
    assert report.ok and report.trials == 0


def test_algorithms_see_normalized_input_but_color_everything():
    hg = parse("e a b > c\ne a b c > d\nv q")
    assert len(normalize(hg).edges) == 1
    coloring, _, _ = color_one_head(hg)
    assert set(coloring.assignment) == {"a", "b", "c", "d", "q"}
    assert is_proper(hg, coloring)


def _general_instance(seed):
    """A seeded instance with edge sizes 2..5 and any head/tail split,
    headless and tailless edges included."""
    rng = random.Random(seed)
    n = rng.randint(3, 9)
    names = [f"v{i}" for i in range(n)]
    rng.shuffle(names)
    edges = []
    for _ in range(rng.randint(0, 2 * n)):
        vs = rng.sample(names, rng.randint(2, min(5, n)))
        heads = rng.randint(0, len(vs))
        edges.append(DirectedEdge(vs[heads:], vs[:heads]))
    return DirectedHypergraph(names, edges)


@functools.cache
def _pin_corpus():
    return tuple(_pin_instances())


def _pin_instances():
    yield from (paper_i(), paper_r(), gen_h2_tower(3), gen_h2_tower(4), gen_h2_tower(5),
                gen_perm_tower(3))
    for algo, cond in (("one-head", "onehead-h1"), ("ht3", "r4-free"),
                       ("i0-4", "i0-free"), ("i0r4-2", "i0r4-free")):
        tails = (2, 5) if algo in ("one-head", "ht3") else (2, 2)
        for trial in range(200):
            yield fuzz_instance(algo, 1, trial, tail_range=tails)
        yield gen_random(24, 96, cond=cond, seed=1)
        yield gen_random(60, 240, cond=cond, seed=1)
    for seed in range(300):
        yield _general_instance(seed)
    for seed in range(100):
        yield gen_random(5 + seed % 8, 10 + seed % 13, cond="none", seed=seed, tail_range=(1, 4))


def _outcome(fn, hg, checked):
    """Text of one run: trace, violations and coloring, or the exception."""
    try:
        result = fn(hg, checked=checked)
    except Exception as exc:  # the pin covers every way a run can end
        report = getattr(exc, "report", None)
        witnesses = [] if report is None else [tuple(w) for w in report.witnesses]
        return f"{type(exc).__name__}\n{exc}\n{witnesses!r}\n"
    coloring, trace = result[:2]
    extra = f"{result[2]!r}\n" if len(result) == 3 else ""
    return (f"{trace.to_text()}{trace.violations!r}\n{coloring.k} "
            f"{sorted(coloring.assignment.items())!r}\n{extra}")


# sha256 of the outcomes of every run of the pin corpus, recorded before the
# algorithms shared one registry and one closing-vertex sweep.
PINNED_RUNS_DIGEST = "afd1214fe1d324eb72bc6bb1f62e7e1364db88675632250286af13671f4eeb9e"


def test_pinned_runs():
    digest = hashlib.sha256()
    runs = 0
    for hg in _pin_corpus():
        for fn in (color_one_head, color_head_tail_3, color_i0_4, color_i0_r4_2):
            for checked in (True, False):
                digest.update(_outcome(fn, hg, checked).encode())
                runs += 1
    assert runs == 8 * (6 + 4 * 202 + 300 + 100)
    assert digest.hexdigest() == PINNED_RUNS_DIGEST


# sha256 of the traces and colorings of one-head fuzz trials with random
# ties, recorded while the tie draws still rebuilt the unprocessed list.
PINNED_RANDOM_TIES_DIGEST = "2919eb886fab1f81970546baf811b3dd9ed8ec395a397309698e45a6219f42de"


def test_pinned_random_ties(monkeypatch):
    digest = hashlib.sha256()
    runs = []
    run = RUNNERS["one-head"]

    def recording(hg, **kwargs):
        coloring, trace = run(hg, **kwargs)
        runs.append(hg)
        digest.update(f"{trace.to_text()}{trace.violations!r}\n"
                      f"{sorted(coloring.assignment.items())!r}\n".encode())
        return coloring, trace

    monkeypatch.setitem(RUNNERS, "one-head", recording)
    for tails in ((2, 2), (2, 5)):
        for n_range in ((3, 9), (10, 30)):
            report = run_fuzz("one-head", 100, n_range=n_range, seed=5, tail_range=tails,
                              random_ties=True)
            assert report.ok, report.failures[:5]
    assert len(runs) == 400
    assert digest.hexdigest() == PINNED_RANDOM_TIES_DIGEST


# sha256 of the unchecked augmentation and of every vertex's unchecked
# head-star over the pin corpus, recorded while stars were built from names.
PINNED_STARS_DIGEST = "373552d5b85af92304e2eb5104e655eed5bbaffb2428aef2a1543949c3d22598"


def test_pinned_stars():
    def outcome(fn, *args):
        try:
            return fn(*args)
        except InvariantViolationError as exc:
            return f"{type(exc).__name__}\n{exc}\n"

    digest = hashlib.sha256()
    kinds = collections.Counter()
    for hg in _pin_corpus():
        digest.update(outcome(lambda: serialize(augment_i0(hg, checked=False))).encode())
        for u in hg.vertices:
            star = outcome(classify_head_star, hg, u, False)
            kinds[getattr(star, "kind", "raised")] += 1
            digest.update(f"{star!r}\n".encode() if isinstance(star, HeadStar) else star.encode())
    assert kinds == {"pivot": 4162, "empty": 2998, "raised": 872, "triangle": 46}
    assert digest.hexdigest() == PINNED_STARS_DIGEST


def test_traces_replay_to_the_coloring():
    """Replaying a trace's color events from all blue gives the returned
    coloring, for every run of the pin corpus that does not raise."""
    paints = {f"colored-{name}": c for c, name in enumerate(COLOR_NAMES)}
    paints["recolored-previous-blue"] = BLUE
    replayed = recolored = 0
    for hg in _pin_corpus():
        for fn in (color_one_head, color_head_tail_3, color_i0_4, color_i0_r4_2):
            for checked in (True, False):
                try:
                    coloring, trace = fn(hg, checked=checked)[:2]
                except (PreconditionError, InvariantViolationError):
                    continue
                color = dict.fromkeys(hg.vertices, BLUE)
                for ev in trace.events:
                    if ev.action != "kept":
                        color[ev.vertex] = paints[ev.action]
                assert color == coloring.assignment, (fn.__name__, checked, hg)
                replayed += 1
                if fn is color_i0_4 and any(
                    v.startswith("recolored non-blue vertex") for v in trace.violations
                ):
                    recolored += 1
    assert replayed == 7055
    # Unchecked i0-4 runs that paint a red vertex green: the one path on
    # which a vertex leaves a class other than blue.
    assert recolored == 39


def test_applicable_matches_the_checked_runs():
    for hg in _pin_corpus():
        accepted = []
        for name, spec in ALGORITHMS.items():
            try:
                spec.run(hg)
            except PreconditionError:
                continue
            accepted.append(name)
        assert applicable(hg) == accepted, hg


def test_registry_entries():
    assert tuple(ALGORITHMS) == ("one-head", "ht3", "i0-4", "i0r4-2")
    hg = parse("e a b > c")
    for name, spec in ALGORITHMS.items():
        assert spec.condition in CONDITION_IDS, name
        coloring, trace = spec.run(hg, True)
        assert coloring.k == spec.palette and not trace.violations, name
    assert applicable(hg) == list(ALGORITHMS)
    assert applicable(parse("e a > b")) == ["ht3"]
    assert applicable(parse("e a b >")) == []
