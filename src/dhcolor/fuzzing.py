"""Randomized soundness harness for the coloring algorithms.

Each trial generates a seeded instance satisfying the target algorithm's
hypothesis, runs the algorithm with invariant auditing on, independently
re-verifies properness, and cross-checks the exact solver on small instances.
Inputs that satisfy the hypothesis are guaranteed a proper coloring, so the
expected failure count is exactly zero, not merely small; failing trials are
reproducible from their seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
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
from .core import DirectedHypergraph, is_proper
from .generators import gen_random
from .solver import chromatic_number

# Trials run through RUNNERS.  The color_* names are unused here; they stay
# because the benchmark's span tracer (perfbench/tracing.py) patches them.


@dataclass(frozen=True)
class FuzzFailure:
    seed: int
    n: int
    m: int
    reason: str


@dataclass
class FuzzReport:
    algorithm: str
    trials: int
    failures: list[FuzzFailure] = field(default_factory=list)

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
    exact_check_max_n: int = 8,
    on_instance: Callable[[DirectedHypergraph], None] | None = None,
) -> FuzzReport:
    """Run seeded trials of one algorithm; see the module docstring."""
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}; expected one of {tuple(ALGORITHMS)}")
    if ALGORITHMS[algo].shape == "2->1" and tail_range != (2, 2):
        raise ValueError(f"{algo} requires 2->1 instances; tail_range must be (2, 2)")
    if trials < 0:
        raise ValueError("trials must be non-negative")
    if n_range[0] > n_range[1]:
        raise ValueError(f"empty n_range {n_range}: n_min exceeds n_max")

    run = RUNNERS[algo]
    random_ties = random_ties and algo == "one-head"  # the only free choices
    report = FuzzReport(algo, trials)
    for trial in range(trials):
        inst_seed = _instance_seed(seed, trial)
        hg = fuzz_instance(algo, seed, trial, n_range=n_range, tail_range=tail_range)
        n = hg.n
        if on_instance is not None:
            on_instance(hg)

        def fail(reason: str) -> None:
            report.failures.append(FuzzFailure(inst_seed, n, len(hg.edges), reason))

        try:
            if random_ties:
                tie_rng = random.Random(random.Random(inst_seed).randrange(2**62))
                coloring, trace = run(hg, tie_rng=tie_rng)
            else:
                coloring, trace = run(hg)
        except PreconditionError as exc:
            fail(f"generated instance rejected by precondition check: {exc}")
            continue
        except InvariantViolationError as exc:
            fail(f"invariant violation: {exc}")
            continue

        if trace.violations:
            fail("unreported trace violations: " + "; ".join(trace.violations))
            continue
        if not is_proper(hg, coloring):
            fail("algorithm produced an improper coloring")
            continue
        if n <= exact_check_max_n:
            result = chromatic_number(hg, max_k=coloring.k)
            if result.chi is None:
                fail(f"exact solver found no proper coloring with <= {coloring.k} colors")
    return report
