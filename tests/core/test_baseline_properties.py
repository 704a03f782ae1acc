"""Property-based tests: every scheduler is feasible; the auction dominates.

Shared invariants across the whole scheduler registry on arbitrary
instances, plus dominance of the (optimal) auction over each baseline.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.auction import AuctionSolver
from repro.core.scheduler import available_schedulers, make_scheduler
from repro.core.problem import ProblemBuilder

EPS = 1e-6


@st.composite
def problems(draw):
    n_uploaders = draw(st.integers(1, 5))
    uploader_ids = [100 + i for i in range(n_uploaders)]
    builder = ProblemBuilder()
    for uid in uploader_ids:
        builder.set_capacity(uid, draw(st.integers(0, 3)))
    n_requests = draw(st.integers(1, 15))
    for r in range(n_requests):
        k = draw(st.integers(0, n_uploaders))
        chosen = uploader_ids[:k]
        candidates = {
            uid: round(draw(st.floats(0.0, 10.0, allow_nan=False)), 2)
            for uid in chosen
        }
        valuation = round(draw(st.floats(0.0, 12.0, allow_nan=False)), 2)
        builder.add_request(peer=r, chunk=f"c{r}", valuation=valuation, candidates=candidates)
    p = builder.build()
    return p


@settings(max_examples=25, deadline=None)
@given(problem=problems())
def test_every_scheduler_feasible(problem):
    rng = np.random.default_rng(0)
    for name in available_schedulers():
        result = make_scheduler(name, rng=rng).schedule(problem)
        result.check_feasible(problem)


@settings(max_examples=25, deadline=None)
@given(problem=problems())
def test_auction_dominates_every_baseline(problem):
    auction = AuctionSolver(epsilon=EPS).solve(problem).welfare(problem)
    rng = np.random.default_rng(1)
    for name in ("locality", "locality-retry", "agnostic", "greedy", "random"):
        baseline = make_scheduler(name, rng=rng).schedule(problem).welfare(problem)
        assert auction >= baseline - problem.n_requests * EPS - 1e-9, name


@settings(max_examples=25, deadline=None)
@given(problem=problems())
def test_welfare_oblivious_baselines_serve_everything_feasible(problem):
    """Locality serves any request whose first choice has room — it never
    leaves capacity idle at its chosen target while urgent demand waits."""
    result = make_scheduler("locality").schedule(problem)
    loads = result.uploader_loads()
    for r, uploader in result.assignment.items():
        if uploader is not None:
            continue
        candidates = problem.candidates_of(r)
        if len(candidates) == 0:
            continue
        costs = problem.costs_of(r)
        first_choice = int(candidates[int(np.argmin(costs))])
        # Unserved ⇒ its single shot at the cheapest neighbor was beaten:
        # that neighbor must be full (by more urgent requests).
        assert loads.get(first_choice, 0) == problem.capacity_of(first_choice)
