"""Property-based tests for the distributed auction protocol."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distributed import DistributedAuction
from repro.core.exact import solve_hungarian
from repro.core.problem import ProblemBuilder
from repro.sim.engine import Simulator
from repro.sim.network import ConstantLatency, SimNetwork

EPS = 1e-6


@st.composite
def small_problems(draw):
    n_uploaders = draw(st.integers(1, 4))
    uploader_ids = [100 + i for i in range(n_uploaders)]
    builder = ProblemBuilder()
    for uid in uploader_ids:
        builder.set_capacity(uid, draw(st.integers(0, 2)))
    n_requests = draw(st.integers(1, 12))
    for r in range(n_requests):
        k = draw(st.integers(0, n_uploaders))
        candidates = {
            uid: round(draw(st.floats(0.0, 10.0, allow_nan=False)), 2)
            for uid in uploader_ids[:k]
        }
        valuation = round(draw(st.floats(0.0, 12.0, allow_nan=False)), 2)
        builder.add_request(peer=r, chunk=f"c{r}", valuation=valuation, candidates=candidates)
    p = builder.build()
    return p


def run_distributed(problem, latency=0.01, jitter=0.0, seed=0):
    sim = Simulator()
    network = SimNetwork(
        sim,
        latency=ConstantLatency(latency),
        jitter=jitter,
        rng=np.random.default_rng(seed),
    )
    auction = DistributedAuction(sim, network, problem, epsilon=EPS)
    return auction, auction.run_to_convergence()


@settings(max_examples=30, deadline=None)
@given(problem=small_problems())
def test_distributed_matches_hungarian(problem):
    _, result = run_distributed(problem)
    result.check_feasible(problem)
    optimum = solve_hungarian(problem).welfare(problem)
    assert result.welfare(problem) >= optimum - problem.n_requests * EPS - 1e-9
    assert result.welfare(problem) <= optimum + 1e-9


@settings(max_examples=20, deadline=None)
@given(problem=small_problems(), jitter_seed=st.integers(0, 50))
def test_message_reordering_does_not_break_optimality(problem, jitter_seed):
    """Heavy jitter reorders deliveries; the outcome stays optimal."""
    _, result = run_distributed(problem, latency=0.1, jitter=0.9, seed=jitter_seed)
    result.check_feasible(problem)
    optimum = solve_hungarian(problem).welfare(problem)
    assert result.welfare(problem) >= optimum - problem.n_requests * EPS - 1e-9


@settings(max_examples=20, deadline=None)
@given(problem=small_problems())
def test_prices_monotone_per_uploader(problem):
    auction, _ = run_distributed(problem)
    series: dict = {}
    for event in auction.price_events:
        series.setdefault(event.uploader, []).append(event.price)
    for prices in series.values():
        assert prices == sorted(prices)
        assert all(p > 0 for p in prices)
