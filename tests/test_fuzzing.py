"""The fuzz harness's verdict on each trial, its failure reports and its guards.

The real algorithms never fail a trial, so these tests swap a runner (or the
exact solver) for one that does one thing wrong and check the report the
harness writes about it.
"""

import json
import random
from types import SimpleNamespace

import pytest

from dhcolor import (
    ALGORITHMS,
    BLUE,
    Coloring,
    FuzzFailure,
    InvariantViolationError,
    PreconditionError,
    RunTrace,
    run_fuzz,
)
from dhcolor import fuzzing
from dhcolor.algorithms import RUNNERS
from dhcolor.cli import main
from dhcolor.fuzzing import EXACT_CHECK_MAX_N, fuzz_instance

SEED, TRIALS = 3, 12


def _rejects(hg, **kwargs):
    raise PreconditionError("edges [0] lack a head or a tail")


def _breaks(hg, **kwargs):
    raise InvariantViolationError(["a", "b"])


def _leaves_violations(algo):
    def run(hg, **kwargs):
        coloring, trace = ALGORITHMS[algo].run(hg, **kwargs)
        trace.violate("x")
        trace.violate("y")
        return coloring, trace
    return run


def _all_blue(algo):
    def run(hg, **kwargs):
        return Coloring(dict.fromkeys(hg.vertices, BLUE), ALGORITHMS[algo].palette), RunTrace()
    return run


# Each faulty runner, the reason the harness gives for it, and which
# instances it fails on (the all-blue coloring is proper without edges).
FAULTS = {
    "precondition": (lambda algo: _rejects,
                     "generated instance rejected by precondition check: "
                     "edges [0] lack a head or a tail",
                     lambda hg: True),
    "invariant": (lambda algo: _breaks, "invariant violation: a; b", lambda hg: True),
    "trace": (_leaves_violations, "unreported trace violations: x; y", lambda hg: True),
    "improper": (_all_blue, "algorithm produced an improper coloring", lambda hg: bool(hg.edges)),
}


def _expected(algo, reason, fails, n_range=(3, 9)):
    out = []
    for trial in range(TRIALS):
        hg = fuzz_instance(algo, SEED, trial, n_range=n_range)
        if fails(hg):
            out.append(FuzzFailure(SEED * 1_000_003 + trial, hg.n, len(hg.edges), reason))
    return out


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("algo", ALGORITHMS)
def test_faulty_runner_is_reported(algo, fault, monkeypatch):
    make, reason, fails = FAULTS[fault]
    monkeypatch.setitem(RUNNERS, algo, make(algo))
    report = run_fuzz(algo, TRIALS, seed=SEED, random_ties=True)
    expected = _expected(algo, reason, fails)
    assert expected  # every fault shows on this seed
    assert report.failures == expected
    assert not report.ok
    assert report.failing_seeds == [f.seed for f in expected]
    assert report.summary() == (f"fuzz {algo}: trials={TRIALS} failures={len(expected)} "
                                f"FAILED seeds={[f.seed for f in expected]}")


def test_a_trial_reports_only_its_first_failure(monkeypatch):
    asked = []

    def no_coloring(hg, max_k):
        asked.append(hg.n)
        return SimpleNamespace(chi=None)

    monkeypatch.setattr(fuzzing, "chromatic_number", no_coloring)
    # Trace violations come before properness, and the solver is not asked.
    def blue_with_violation(hg, **kwargs):
        coloring, trace = _all_blue("ht3")(hg)
        trace.violate("z")
        return coloring, trace
    monkeypatch.setitem(RUNNERS, "ht3", blue_with_violation)
    report = run_fuzz("ht3", TRIALS, seed=SEED)
    assert report.failures == _expected("ht3", "unreported trace violations: z", lambda hg: True)
    assert asked == []
    # Properness comes before the solver, which only sees the edgeless
    # instances (whose all-blue coloring is proper) of at most 8 vertices.
    monkeypatch.setitem(RUNNERS, "ht3", _all_blue("ht3"))
    report = run_fuzz("ht3", TRIALS, seed=SEED)
    improper = _expected("ht3", "algorithm produced an improper coloring", lambda hg: bool(hg.edges))
    unsolved = _expected("ht3", "exact solver found no proper coloring with <= 3 colors",
                         lambda hg: not hg.edges)
    assert unsolved and asked == [f.n for f in unsolved]
    assert report.failures == sorted(improper + unsolved, key=lambda f: f.seed)


def test_solver_finding_no_coloring_is_reported_up_to_n_8(monkeypatch):
    asked = []

    def no_coloring(hg, max_k):
        asked.append((hg.n, max_k))
        return SimpleNamespace(chi=None)

    monkeypatch.setattr(fuzzing, "chromatic_number", no_coloring)
    n_range = (8, 9)
    report = run_fuzz("ht3", TRIALS, n_range=n_range, seed=SEED)
    sizes = [fuzz_instance("ht3", SEED, t, n_range=n_range).n for t in range(TRIALS)]
    assert EXACT_CHECK_MAX_N == 8 and {8, 9} <= set(sizes)
    # ht3 colors with 3 colors, so the solver is asked for at most 3.
    assert asked == [(8, 3)] * sizes.count(8)
    assert report.failures == _expected(
        "ht3", "exact solver found no proper coloring with <= 3 colors",
        lambda hg: hg.n <= EXACT_CHECK_MAX_N, n_range)


def test_runner_gets_a_tie_rng_only_for_one_head_random_ties(monkeypatch):
    for algo in ALGORITHMS:
        for random_ties in (False, True):
            got = []
            monkeypatch.setitem(RUNNERS, algo, lambda hg, **kwargs: got.append(kwargs) or _breaks(hg))
            run_fuzz(algo, 3, seed=SEED, random_ties=random_ties)
            if algo == "one-head" and random_ties:
                want = [random.Random(random.Random(SEED * 1_000_003 + t).randrange(2**62)).getstate()
                        for t in range(3)]
                assert [kwargs["tie_rng"].getstate() for kwargs in got] == want
                assert all(set(kwargs) == {"tie_rng"} for kwargs in got)
            else:
                assert got == [{}] * 3


def test_on_instance_sees_each_trial_instance(monkeypatch):
    monkeypatch.setitem(RUNNERS, "i0-4", _breaks)
    seen = []
    report = run_fuzz("i0-4", TRIALS, n_range=(4, 7), seed=SEED, on_instance=seen.append)
    assert seen == [fuzz_instance("i0-4", SEED, t, n_range=(4, 7)) for t in range(TRIALS)]
    assert [(f.n, f.m) for f in report.failures] == [(hg.n, len(hg.edges)) for hg in seen]


# Fuzz runs that must build no DirectedEdge: each algorithm on 2->1
# instances, and one-head on tails of 2..5 with random ties.
RECORD_FREE_RUNS = [(algo, (2, 2), False) for algo in ALGORITHMS] + [("one-head", (2, 5), True)]


@pytest.mark.parametrize("algo, tails, random_ties", RECORD_FREE_RUNS)
def test_a_trial_builds_no_edge_records(algo, tails, random_ties, no_edge_records):
    report = run_fuzz(algo, 200, seed=1, tail_range=tails, random_ties=random_ties)
    assert report.ok and report.trials == 200


def test_a_failing_trial_builds_no_edge_records(monkeypatch, no_edge_records):
    monkeypatch.setitem(RUNNERS, "i0-4", _rejects)
    seen = []
    report = run_fuzz("i0-4", TRIALS, seed=SEED, on_instance=seen.append)
    assert [(f.n, f.m) for f in report.failures] == [(hg.n, len(hg.index.head_rows)) for hg in seen]
    assert len(seen) == TRIALS and any(f.m for f in report.failures)


def test_rejects_negative_trials():
    with pytest.raises(ValueError) as err:
        run_fuzz("ht3", trials=-1)
    assert str(err.value) == "trials must be non-negative"


def test_cli_fuzz_reports_failures(monkeypatch, capsys):
    monkeypatch.setitem(RUNNERS, "i0r4-2", _breaks)
    instances = [fuzz_instance("i0r4-2", 0, t) for t in range(4)]
    assert main(["fuzz", "--algo", "i0r4-2", "--trials", "4", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "algorithm": "i0r4-2",
        "trials": 4,
        "failures": 4,
        "failing_seeds": [0, 1, 2, 3],
        "details": [{"seed": t, "n": hg.n, "m": len(hg.edges), "reason": "invariant violation: a; b"}
                    for t, hg in enumerate(instances)],
    }
    assert main(["fuzz", "--algo", "i0r4-2", "--trials", "4"]) == 1
    assert capsys.readouterr().out == "".join(
        ["fuzz i0r4-2: trials=4 failures=4 FAILED seeds=[0, 1, 2, 3]\n"]
        + [f"seed={t} n={hg.n} m={len(hg.edges)}: invariant violation: a; b\n"
           for t, hg in enumerate(instances)])
