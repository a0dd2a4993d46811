"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The fuzz criteria share a
session fixture so the 40,000 seeded trials run once.
"""

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import combinations

import pytest

from dhcolor import (
    ALGORITHMS,
    applicable,
    check_condition,
    chromatic_number,
    color_head_tail_3,
    color_i0_4,
    contains_pattern,
    f_bound,
    find_proper_coloring,
    gen_h2_tower,
    gen_perm_tower,
    is_proper,
    paper_i,
    paper_r,
    DirectedHypergraph,
)
from dhcolor.fuzzing import run_fuzz
from oracles import all_two_one_edges, f_recursive, naive_contains

FUZZ_TRIALS = 10_000
FUZZ_SEEDS = {"one-head": 101, "ht3": 102, "i0-4": 103, "i0r4-2": 104}
MIXED_SEED = 107


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {number}: {description} ({elapsed:.1f}s)", flush=True)


@dataclass
class FuzzSuites:
    reports: dict = field(default_factory=dict)
    elapsed: float = 0.0
    # (n, edge count) of every generated instance avoiding both R3 and E.
    bound_samples: list = field(default_factory=list)


@pytest.fixture(scope="session")
def fuzz_suites():
    suites = FuzzSuites()

    def collect(hg):
        if contains_pattern(hg, "R3").avoided and contains_pattern(hg, "E").avoided:
            suites.bound_samples.append((hg.n, len(hg.edges)))

    start = time.perf_counter()
    for algo, seed in FUZZ_SEEDS.items():
        suites.reports[algo] = run_fuzz(algo, FUZZ_TRIALS, seed=seed, on_instance=collect)
    suites.elapsed = time.perf_counter() - start
    return suites


def test_criterion_01_paper_i_chromatic_and_i0_free():
    with criterion(1, "paper-I has chromatic number 3 and is i0-free"):
        start = time.perf_counter()
        hg = paper_i()
        assert chromatic_number(hg).chi == 3
        assert check_condition(hg, "i0-free").avoided
        assert time.perf_counter() - start < 1.0


def test_criterion_02_paper_r_chromatic_and_r4_avoided():
    with criterion(2, "paper-R has chromatic number 3 and avoids R4"):
        start = time.perf_counter()
        hg = paper_r()
        assert chromatic_number(hg).chi == 3
        assert contains_pattern(hg, "R4").avoided
        assert time.perf_counter() - start < 1.0


def test_criterion_03_constructive_colorings_of_the_examples():
    with criterion(3, "ht3 colors paper-R with <=3, i0-4 colors paper-I with <=4"):
        start = time.perf_counter()
        r = paper_r()
        coloring, trace = color_head_tail_3(r)
        assert is_proper(r, coloring) and coloring.colors_used() <= 3
        assert not trace.violations
        i = paper_i()
        coloring, trace = color_i0_4(i)
        assert is_proper(i, coloring) and coloring.colors_used() <= 4
        assert not trace.violations
        assert time.perf_counter() - start < 1.0


def test_criterion_04_h2_tower_sizes_and_lower_bounds():
    with criterion(4, "h2 towers: sizes 7/11, 15/71 and 31/367, chi >= 3, chi = 4 and chi = 5"):
        start = time.perf_counter()
        t3 = gen_h2_tower(3)
        t4 = gen_h2_tower(4)
        assert (t3.n, len(t3.edges)) == (7, 11)
        assert (t4.n, len(t4.edges)) == (15, 71)
        assert find_proper_coloring(t3, 2) is None
        assert find_proper_coloring(t4, 3) is None
        result = chromatic_number(t4)
        assert result.chi == 4 and is_proper(t4, result.witness)
        t5 = gen_h2_tower(5)
        assert (t5.n, len(t5.edges)) == (31, 367)
        result = chromatic_number(t5)
        assert result.chi == 5 and is_proper(t5, result.witness)
        assert time.perf_counter() - start < 120.0


def test_criterion_05_perm_tower():
    with criterion(5, "perm tower level 3: 12/20, chi >= 3, tails-only condition"):
        start = time.perf_counter()
        hg = gen_perm_tower(3)
        assert (hg.n, len(hg.edges)) == (12, 20)
        assert find_proper_coloring(hg, 2) is None
        assert check_condition(hg, "tails-only-2-intersect").avoided
        assert time.perf_counter() - start < 5.0


def test_criterion_06_fuzz_suites_zero_failures(fuzz_suites):
    with criterion(6, f"{FUZZ_TRIALS} fuzz trials per algorithm, zero failures "
                      f"(fuzz wall time {fuzz_suites.elapsed:.0f}s)"):
        for algo, report in fuzz_suites.reports.items():
            assert report.trials == FUZZ_TRIALS, algo
            assert report.ok, (algo, report.failures[:5])
        assert fuzz_suites.elapsed < 300.0, f"fuzz took {fuzz_suites.elapsed:.0f}s"


def test_criterion_07_non_uniform_one_head(fuzz_suites):
    with criterion(7, f"{FUZZ_TRIALS} mixed-size one-head trials (tails 2-5), zero failures"):
        report = run_fuzz("one-head", FUZZ_TRIALS, seed=MIXED_SEED, tail_range=(2, 5))
        assert report.trials == FUZZ_TRIALS
        assert report.ok, report.failures[:5]


def test_criterion_08_pattern_oracle_equivalence():
    with criterion(8, "exhaustive n=4 m<=3: pattern detector matches naive oracle"):
        start = time.perf_counter()
        names = ("a", "b", "c", "d")
        pool = all_two_one_edges(names)
        assert len(pool) == 12
        patterns = ("H2", "I1", "R3", "E", "I0", "H1", "R4")
        instances = 0
        for m in range(4):
            for subset in combinations(pool, m):
                hg = DirectedHypergraph(names, subset)
                for pattern in patterns:
                    mine = not contains_pattern(hg, pattern).avoided
                    assert mine == naive_contains(hg, pattern), (subset, pattern)
                instances += 1
        assert instances == 1 + 12 + 66 + 220
        assert time.perf_counter() - start < 60.0


def test_criterion_09_edge_bound(fuzz_suites):
    with criterion(9, "f matches top-down recursion to n=30; |E| <= f(n) holds"):
        assert f_bound(0) == 1
        for n in range(31):
            assert f_bound(n) == f_recursive(n), n
        perm = gen_perm_tower(3)
        assert len(perm.edges) <= f_bound(perm.n)
        assert fuzz_suites.bound_samples, "fuzz suites produced no R3/E-avoiding instances"
        for n, edges in fuzz_suites.bound_samples:
            assert edges <= f_bound(n), (n, edges)


def test_criterion_10_ordering_robustness():
    with criterion(10, "50 random vertex orders of paper-I/paper-R stay proper"):
        cases = {"paper-I": paper_i(), "paper-R": paper_r()}
        # Sanity: exactly one algorithm applies to each example hypergraph.
        assert applicable(cases["paper-I"]) == ["i0-4"]
        assert applicable(cases["paper-R"]) == ["ht3"]
        rng = random.Random(2024)
        for name, hg in cases.items():
            algos = applicable(hg)
            for _ in range(50):
                order = list(hg.vertices)
                rng.shuffle(order)
                permuted = hg.with_vertex_order(order)
                for algo in algos:
                    coloring, trace = ALGORITHMS[algo].run(permuted)
                    assert is_proper(permuted, coloring), (name, algo, order)
                    assert not trace.violations, (name, algo, order)
