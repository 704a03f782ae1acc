"""Property: the CSR certificate check ≡ the per-request loop.

``check_complementary_slackness`` computes dual feasibility and the
three complementary-slackness conditions over the CSR columns; its
twin in ``tests/oracles/duality.py`` loops over each request's
candidates.  The two must give equal reports — every flag, every
violation string in order, and the gap bit for bit — at the solver's ε
and at a tolerance tight enough to flag the ε-slack the auction leaves,
on random problems (zero capacities included) and on the slot problems
of random scenarios, each solved cold and warm-started.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.auction import AuctionSolver
from repro.core.duality import check_complementary_slackness
from repro.core.problem import random_problem
from strategies import scenarios

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "oracles"))
from duality import check_complementary_slackness_reference  # noqa: E402

TIGHT = 1e-12


def assert_same_report(problem, result, tol: float) -> None:
    new = check_complementary_slackness(problem, result, tol=tol)
    ref = check_complementary_slackness_reference(problem, result, tol=tol)
    assert new.violations == ref.violations
    assert (new.dual_feasible, new.cs_capacity, new.cs_assignment, new.cs_request) == (
        ref.dual_feasible, ref.cs_capacity, ref.cs_assignment, ref.cs_request,
    )
    assert new.gap.hex() == ref.gap.hex()


@given(
    seed=st.integers(0, 50_000),
    n_requests=st.integers(1, 60),
    n_uploaders=st.integers(1, 12),
    epsilon=st.sampled_from([1e-9, 0.01, 0.3]),
    warm=st.booleans(),
)
def test_matches_reference_on_random_problems(
    seed, n_requests, n_uploaders, epsilon, warm
):
    rng = np.random.default_rng(seed)
    problem = random_problem(
        rng,
        n_requests=n_requests,
        n_uploaders=n_uploaders,
        capacity_range=(0, 3),
    )
    prices = None
    if warm:
        prices = {
            u: float(rng.uniform(-1.0, 4.0))
            for u in problem.uploaders()
            if rng.random() < 0.5
        }
    result = AuctionSolver(epsilon=epsilon).solve(problem, initial_prices=prices)
    for tol in (epsilon, TIGHT):
        assert_same_report(problem, result, tol)


@given(sc=scenarios)
def test_matches_reference_on_slot_problems(sc):
    """Halved budgets make supply scarce; random warm prices leave slack."""
    system = sc.build_system()
    _, caps = system.store.capacity_columns()
    problem = system.build_problem(system.now, capacity_array=caps // 2)
    rng = np.random.default_rng(sc.seed)
    prices = {
        u: float(rng.uniform(-1.0, 4.0))
        for u in problem.uploaders()
        if rng.random() < 0.5
    }
    cold = system.scheduler.schedule(problem)
    warm = system.scheduler.schedule(problem, initial_prices=prices)
    for result in (cold, warm):
        for tol in (system.config.epsilon, TIGHT):
            assert_same_report(problem, result, tol)
