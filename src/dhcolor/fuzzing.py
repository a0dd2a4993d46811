"""Randomized soundness harness for the coloring algorithms.

Each trial generates a seeded instance satisfying the target algorithm's
hypothesis, runs the algorithm with invariant auditing on, independently
re-verifies properness, and cross-checks the exact solver on small instances.
A trial fails with the first of these reasons, tested in this order:

1. the run's precondition check rejects the generated instance;
2. the run raises an invariant violation;
3. the returned trace holds violations the run did not raise;
4. the coloring is not proper;
5. on at most ``EXACT_CHECK_MAX_N`` vertices, the exact solver finds no
   proper coloring with at most the run's palette of colors.

Inputs that satisfy the hypothesis are guaranteed a proper coloring, so the
expected failure count is exactly zero, not merely small; failing trials are
reproducible from their seed.
"""

from __future__ import annotations

import random
from typing import Callable

from .algorithms import (  # noqa: F401 -- the color_* names, see below
    ALGORITHMS,
    RUNNERS,
    InvariantViolationError,
    PreconditionError,
    color_head_tail_3,
    color_i0_4,
    color_i0_r4_2,
    color_one_head,
)
from .core import DirectedHypergraph, Value, _setattr, is_proper
from .generators import gen_random
from .solver import chromatic_number

# Trials run through RUNNERS.  The color_* names are unused here; they stay
# because the benchmark's span tracer (perfbench/tracing.py) patches them.

# Trials on at most this many vertices are cross-checked by the exact solver.
EXACT_CHECK_MAX_N = 8


class FuzzFailure(Value):
    _fields = ("seed", "n", "m", "reason")
    seed: int
    n: int
    m: int
    reason: str

    def __init__(self, seed: int, n: int, m: int, reason: str) -> None:
        _setattr(self, "seed", seed)
        _setattr(self, "n", n)
        _setattr(self, "m", m)
        _setattr(self, "reason", reason)


class FuzzReport(Value, frozen=False):
    _fields = ("algorithm", "trials", "failures")
    algorithm: str
    trials: int
    failures: list[FuzzFailure]

    def __init__(self, algorithm: str, trials: int,
                 failures: list[FuzzFailure] | None = None) -> None:
        self.algorithm = algorithm
        self.trials = trials
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failing_seeds(self) -> list[int]:
        return sorted({f.seed for f in self.failures})

    def summary(self) -> str:
        status = "ok" if self.ok else f"FAILED seeds={self.failing_seeds}"
        return f"fuzz {self.algorithm}: trials={self.trials} failures={len(self.failures)} {status}"


def _instance_seed(seed: int, trial: int) -> int:
    return seed * 1_000_003 + trial


def fuzz_instance(
    algo: str,
    seed: int,
    trial: int,
    n_range: tuple[int, int] = (3, 9),
    tail_range: tuple[int, int] = (2, 2),
) -> DirectedHypergraph:
    """Regenerate the exact instance one fuzz trial uses, for reproduction."""
    rng = random.Random(_instance_seed(seed, trial))
    n = rng.randint(*n_range)
    m = rng.randint(0, 2 * n)
    return gen_random(n, m, cond=ALGORITHMS[algo].condition, seed=rng.randrange(2**62),
                      tail_range=tail_range)


def run_fuzz(
    algo: str,
    trials: int,
    n_range: tuple[int, int] = (3, 9),
    seed: int = 0,
    tail_range: tuple[int, int] = (2, 2),
    random_ties: bool = False,
    on_instance: Callable[[DirectedHypergraph], None] | None = None,
) -> FuzzReport:
    """Run seeded trials of one algorithm; see the module docstring."""
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}; expected one of {tuple(ALGORITHMS)}")
    shape = ALGORITHMS[algo].shape
    if shape == "2->1" and tail_range != (2, 2):
        raise ValueError(f"{algo} requires 2->1 instances; tail_range must be (2, 2)")
    if shape == "one-head" and tail_range[0] < 2:
        raise ValueError(f"{algo} requires tails of at least 2; tail_range {tail_range} allows fewer")
    if trials < 0:
        raise ValueError("trials must be non-negative")
    if n_range[0] > n_range[1]:
        raise ValueError(f"empty n_range {n_range}: n_min exceeds n_max")
    if n_range[0] < 3:
        raise ValueError(f"n_range {n_range} allows fewer than 3 vertices, "
                         "which gen_random cannot draw")
    if not 1 <= tail_range[0] <= min(tail_range[1], n_range[0] - 1):
        raise ValueError(f"tail_range {tail_range} is unusable for some n in n_range {n_range}; "
                         "gen_random needs 1 <= tail_min <= min(tail_max, n - 1)")

    run = RUNNERS[algo]
    random_ties = random_ties and algo == "one-head"  # the only free choices
    report = FuzzReport(algo, trials)
    for trial in range(trials):
        inst_seed = _instance_seed(seed, trial)
        hg = fuzz_instance(algo, seed, trial, n_range=n_range, tail_range=tail_range)
        if on_instance is not None:
            on_instance(hg)
        tie_rng = random.Random(random.Random(inst_seed).randrange(2**62)) if random_ties else None
        reason = _trial_failure(run, hg, tie_rng)
        if reason is not None:
            report.failures.append(FuzzFailure(inst_seed, hg.n, len(hg.index.head_rows), reason))
    return report


def _trial_failure(run: Callable, hg: DirectedHypergraph, tie_rng: random.Random | None) -> str | None:
    """The reason of the first check one trial fails (see the module
    docstring), or None when it passes them all."""
    try:
        coloring, trace = run(hg) if tie_rng is None else run(hg, tie_rng=tie_rng)
    except PreconditionError as exc:
        return f"generated instance rejected by precondition check: {exc}"
    except InvariantViolationError as exc:
        return f"invariant violation: {exc}"
    if trace.violations:
        return "unreported trace violations: " + "; ".join(trace.violations)
    if not is_proper(hg, coloring):
        return "algorithm produced an improper coloring"
    if hg.n <= EXACT_CHECK_MAX_N and chromatic_number(hg, max_k=coloring.k).chi is None:
        return f"exact solver found no proper coloring with <= {coloring.k} colors"
    return None
