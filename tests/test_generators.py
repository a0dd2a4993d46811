import hashlib
import random

import pytest

from dhcolor import (
    CONDITION_IDS,
    GenSpec,
    check_condition,
    contains_pattern,
    gen_h2_tower,
    gen_perm_tower,
    gen_random,
    is_two_to_one,
    paper_i,
    paper_r,
    parse,
    serialize,
)
from dhcolor import generators
from dhcolor.fuzzing import fuzz_instance


class TestGenSpec:
    def test_dispatch(self):
        assert GenSpec("paper-i").build() == paper_i()
        assert GenSpec("h2-tower", k=3).build() == gen_h2_tower(3)
        assert GenSpec("random", n=6, m=4, cond="i0-free", seed=3).build() == gen_random(
            6, 4, cond="i0-free", seed=3
        )

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            GenSpec("mystery").build()

    def test_invariants_enforced_by_builders(self):
        with pytest.raises(ValueError):
            GenSpec("perm-tower", k=1).build()
        with pytest.raises(ValueError):
            GenSpec("random", n=2).build()


class TestPaperHypergraphs:
    def test_i_shape(self):
        hg = paper_i()
        assert hg.vertices == ("v1", "v2", "v3", "v4", "v5")
        assert len(hg.edges) == 10
        assert is_two_to_one(hg)
        # Every one of the C(5,3) triples appears exactly once as a vertex set.
        assert len({e.vertices for e in hg.edges}) == 10

    def test_i_conditions(self):
        assert check_condition(paper_i(), "i0-free").avoided
        assert contains_pattern(paper_i(), "I0").avoided

    def test_r_shape(self):
        hg = paper_r()
        assert len(hg.edges) == 10
        assert is_two_to_one(hg)
        assert len({e.vertices for e in hg.edges}) == 10

    def test_r_avoids_r4(self):
        assert contains_pattern(paper_r(), "R4").avoided
        assert check_condition(paper_r(), "r4-free").avoided


class TestH2Tower:
    def test_sizes_follow_recurrences(self):
        # n(k+1) = 2 n(k) + 1 and e(k+1) = 2 e(k) + n(k)^2 from one apex over
        # two disjoint copies.
        n, e = 3, 1
        for k in range(2, 6):
            hg = gen_h2_tower(k)
            assert (hg.n, len(hg.edges)) == (n, e), k
            n, e = 2 * n + 1, 2 * e + n * n

    def test_explicit_small_sizes(self):
        assert (gen_h2_tower(2).n, len(gen_h2_tower(2).edges)) == (3, 1)
        assert (gen_h2_tower(3).n, len(gen_h2_tower(3).edges)) == (7, 11)
        assert (gen_h2_tower(4).n, len(gen_h2_tower(4).edges)) == (15, 71)

    def test_avoids_h2(self):
        for k in (2, 3, 4):
            assert contains_pattern(gen_h2_tower(k), "H2").avoided

    def test_guard(self, monkeypatch):
        with pytest.raises(ValueError):
            gen_h2_tower(7)
        with pytest.raises(ValueError):
            gen_h2_tower(1)
        monkeypatch.setattr(generators, "H2_TOWER_MAX_LEVEL", 7)
        assert gen_h2_tower(7).n == 127

    def test_chromatic_lower_bound_small_levels(self):
        from dhcolor import chromatic_number

        assert chromatic_number(gen_h2_tower(2)).chi == 2
        assert chromatic_number(gen_h2_tower(3)).chi == 3

    def test_roundtrip(self):
        hg = gen_h2_tower(4)
        assert parse(serialize(hg)) == hg


class TestPermTower:
    def test_base(self):
        assert (gen_perm_tower(2).n, len(gen_perm_tower(2).edges)) == (3, 1)

    def test_level_three_shape(self):
        hg = gen_perm_tower(3)
        assert (hg.n, len(hg.edges)) == (12, 20)
        assert is_two_to_one(hg)

    def test_tails_only_condition(self):
        assert check_condition(gen_perm_tower(3), "tails-only-2-intersect").avoided
        for p in ("I1", "R3", "E"):
            assert contains_pattern(gen_perm_tower(3), p).avoided

    def test_chromatic_lower_bound_small_levels(self):
        from dhcolor import chromatic_number

        assert chromatic_number(gen_perm_tower(2)).chi == 2
        assert chromatic_number(gen_perm_tower(3)).chi == 3

    def test_guard(self):
        with pytest.raises(ValueError):
            gen_perm_tower(4)


class TestGenRandom:
    def test_deterministic(self):
        a = gen_random(6, 8, cond="i0-free", seed=42)
        b = gen_random(6, 8, cond="i0-free", seed=42)
        assert a == b
        c = gen_random(6, 8, cond="i0-free", seed=43)
        assert a != c  # overwhelmingly likely for distinct seeds

    @pytest.mark.parametrize("cond", CONDITION_IDS)
    def test_output_satisfies_condition(self, cond):
        for seed in range(30):
            hg = gen_random(n=5 + seed % 4, m=10, cond=cond, seed=seed)
            assert check_condition(hg, cond).avoided, (cond, seed)

    def test_vertex_sets_distinct(self):
        hg = gen_random(5, 30, cond="none", seed=9)
        sets = [e.vertices for e in hg.edges]
        assert len(sets) == len(set(sets))

    def test_zero_edges(self):
        hg = gen_random(4, 0, cond="none", seed=0)
        assert hg.edges == () and hg.n == 4

    def test_two_one_by_default(self):
        assert is_two_to_one(gen_random(6, 10, cond="none", seed=1))

    def test_tail_range(self):
        hg = gen_random(8, 12, cond="onehead-h1", seed=3, tail_range=(2, 5))
        assert hg.edges
        for e in hg.edges:
            assert len(e.head) == 1 and 2 <= len(e.tail) <= 5
        assert check_condition(hg, "onehead-h1").avoided

    # sha256 (first 16 hex digits) of the serialized outputs on a seeded grid:
    # tails (2, 2) then (2, 5), n = 3..9, m in (3, 8, 20), seeds 0 and 1.  The
    # grid includes n too small to hold m vertex sets, where the sampler stops
    # early; the digests were recorded before that early stop existed.
    PINNED = {
        "none": "e9de6f8c33ba5167",
        "onehead-h1": "b33808202dd6918e",
        "i0-free": "74f7f86ea102d3ac",
        "r4-free": "d4414a61e16fa0a3",
        "i0r4-free": "02cc224cc54d5ebd",
        "lovasz": "c81ccc95a059a285",
        "h2-two-intersect": "1b33f57ff69250e0",
        "tails-only-2-intersect": "37594954a9e86d90",
    }

    @pytest.mark.parametrize("cond", ("none",) + CONDITION_IDS)
    def test_outputs_pinned(self, cond):
        digest = hashlib.sha256()
        for tails in ((2, 2), (2, 5)):
            for n in range(3, 10):
                for m in (3, 8, 20):
                    for seed in (0, 1):
                        hg = gen_random(n, m, cond=cond, seed=seed, tail_range=tails)
                        digest.update(serialize(hg).encode() + b"\0")
        assert digest.hexdigest()[:16] == self.PINNED[cond]

    # sha256 (first 16 hex digits) of single ladder-size draws, recorded
    # before gen_random tested draws through the pair kernel: (n, m, cond,
    # seed, tails) -> digest.  These requests have more vertex sets than
    # attempts, so they test draws against per-vertex lists of the accepted
    # edges; nearly all of the grid above scans every accepted edge instead.
    LARGE_PINNED = {
        (100, 200, "onehead-h1", 1000, (2, 2)): "2ca37d20d7cfad2a",
        (100, 400, "r4-free", 1001, (2, 2)): "b40174a081638069",
        (200, 800, "r4-free", 1002, (2, 2)): "0b55365352440989",
        (100, 200, "i0r4-free", 1003, (2, 2)): "cb2feeae86a51cb0",
        (200, 800, "tails-only-2-intersect", 1101, (2, 2)): "6476560dac8d1068",
        (100, 200, "onehead-h1", 1000, (2, 5)): "ee7e6db545f61cf4",
        (100, 400, "r4-free", 1001, (2, 5)): "7f1f49beeb5b39a3",
        (200, 800, "r4-free", 1002, (2, 5)): "7dc5fa858317a3c6",
        (100, 200, "i0r4-free", 1003, (2, 5)): "493b4cb83520075e",
        (200, 800, "tails-only-2-intersect", 1101, (2, 5)): "40135028093bbaa4",
    }

    @pytest.mark.parametrize("params", LARGE_PINNED)
    def test_large_outputs_pinned(self, params):
        n, m, cond, seed, tails = params
        hg = gen_random(n, m, cond=cond, seed=seed, tail_range=tails)
        assert hashlib.sha256(serialize(hg).encode()).hexdigest()[:16] == self.LARGE_PINNED[params]
        assert check_condition(hg, cond).avoided

    # sha256 of the serialized instances of the benchmark's five fuzz
    # configurations, 250 trials each at seeds 1 and 7919, recorded before
    # gen_random stopped drawing once no draw could be kept.
    FUZZ_PINNED = "368ffd31f588df54003ac2309bb19aae9a886ca1274f077e5047e88f9eb7dd15"

    def test_fuzz_instances_pinned(self):
        digest = hashlib.sha256()
        for algo, tails in (("one-head", (2, 2)), ("ht3", (2, 2)), ("i0-4", (2, 2)),
                            ("i0r4-2", (2, 2)), ("one-head", (2, 5))):
            for seed in (1, 7919):
                for trial in range(250):
                    hg = fuzz_instance(algo, seed, trial, (3, 9), tails)
                    digest.update(serialize(hg).encode() + b"\0")
        assert digest.hexdigest() == self.FUZZ_PINNED

    def test_saturated_vertex_sets(self, monkeypatch):
        # n=3 holds one 3-set and n=4 four; a larger budget changes nothing.
        assert len(gen_random(3, 5, seed=2).edges) == 1
        assert len(gen_random(4, 9, seed=2, tail_range=(2, 3)).edges) == 5
        default = gen_random(4, 9, seed=2)
        monkeypatch.setattr(generators, "REJECTION_ATTEMPTS_PER_EDGE", 10**6)
        assert default == gen_random(4, 9, seed=2)

    def test_stops_once_no_draw_can_be_kept(self, monkeypatch):
        # On 5 vertices these conditions refuse some draw of every free
        # vertex set before m edges are kept; a larger budget changes nothing.
        draws, real_draws = 0, generators._draws

        def counting_draws(*args):
            nonlocal draws
            for picks in real_draws(*args):
                draws += 1
                yield picks

        monkeypatch.setattr(generators, "_draws", counting_draws)
        for cond in ("r4-free", "onehead-h1", "i0r4-free"):
            for seed in range(3):
                default = gen_random(5, 10, cond=cond, seed=seed)
                draws = 0
                with monkeypatch.context() as patched:
                    patched.setattr(generators, "REJECTION_ATTEMPTS_PER_EDGE", 10**5)
                    hg = gen_random(5, 10, cond=cond, seed=seed)
                assert 0 < draws < 1000, (cond, seed, draws)
                assert len(hg.edges) < 10 and hg == default, (cond, seed)

    # n crosses both pool-size bounds of random.sample: 21 for k <= 5, and
    # 85 (k = 6) and 277 (k = 22) for larger k, which tails (1, n - 1) reach.
    @pytest.mark.parametrize("n", (3, 5, 9, 21, 22, 30, 85, 86, 100, 200, 277, 278))
    def test_draws_replay_randint_and_sample(self, n):
        for lo, hi in ((1, 1), (2, 2), (2, 5), (1, 4), (1, n - 1)):
            hi = min(hi, n - 1)
            for seed in range(5):
                ours, twin = random.Random(seed), random.Random(seed)
                draws = generators._draws(ours, n, lo, hi)
                for _ in range(200):
                    size = twin.randint(lo, hi)
                    assert next(draws) == twin.sample(range(n), size + 1), (lo, hi, seed)
                assert ours.getstate() == twin.getstate(), (lo, hi, seed)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            gen_random(2, 3)
        with pytest.raises(ValueError):
            gen_random(5, -1)
        with pytest.raises(ValueError):
            gen_random(5, 3, cond="bogus")
        with pytest.raises(ValueError):
            gen_random(5, 3, tail_range=(0, 0))
