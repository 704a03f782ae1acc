"""Property: event-driven (frontier) jacobi ≡ ``jacobi-dense`` exactly.

The frontier solver re-evaluates only requests incident to repriced
uploaders (plus evicted requests); the dense reference re-scans every
pending request every round.  Both must produce byte-identical results —
assignment, final λ, η duals, every ``SolverStats`` counter and the
``on_price_update(round, uploader, price)`` stream, call for call — over
randomly generated problems covering the frontier's hard cases:

* zero-capacity uploaders (masked edges, rows retired up front);
* integer weights (exact bid ties → ε = 0 dormancy, contested
  evictions with min-bid ties where the price does *not* move);
* tight capacities (evictions / contested merges);
* warm-started prices (stale-dormancy from the very first round).

Runs under the deterministic ``repro-props`` Hypothesis profile.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.auction import AuctionNonConvergence, AuctionSolver
from repro.core.problem import SchedulingProblem


def build_problem(
    seed: int,
    n_requests: int,
    n_uploaders: int,
    max_candidates: int,
    zero_cap_prob: float,
    integer_weights: bool,
) -> SchedulingProblem:
    rng = np.random.default_rng(seed)
    problem = SchedulingProblem()
    uploader_ids = [10_000 + i for i in range(n_uploaders)]
    for u in uploader_ids:
        capacity = 0 if rng.random() < zero_cap_prob else int(rng.integers(1, 4))
        problem.set_capacity(u, capacity)
    for r in range(n_requests):
        k = int(rng.integers(1, max_candidates + 1))
        chosen = rng.choice(n_uploaders, size=min(k, n_uploaders), replace=False)
        if integer_weights:
            valuation = float(rng.integers(1, 9))
            costs = rng.integers(0, 9, size=len(chosen)).astype(float)
        else:
            valuation = float(rng.uniform(0.5, 9.0))
            costs = rng.uniform(0.0, 9.0, size=len(chosen))
        problem.add_request(
            peer=r,
            chunk=f"c{r}",
            valuation=valuation,
            candidates={uploader_ids[int(j)]: float(c) for j, c in zip(chosen, costs)},
        )
    return problem


def warm_prices(seed: int, problem: SchedulingProblem, fraction: float):
    if fraction <= 0.0:
        return None
    rng = np.random.default_rng(seed + 1)
    return {
        int(u): float(rng.uniform(-1.0, 4.0))
        for u in problem.uploaders()
        if rng.random() < fraction
    }


def assert_identical(problem, epsilon, initial_prices=None) -> None:
    results = []
    streams = []
    for mode in ("jacobi", "jacobi-dense"):
        calls = []
        solver = AuctionSolver(
            epsilon=epsilon,
            mode=mode,
            max_rounds=400,
            on_price_update=lambda *call, calls=calls: calls.append(call),
        )
        try:
            results.append(solver.solve(problem, initial_prices=initial_prices))
        except AuctionNonConvergence:
            results.append(None)
        streams.append(calls)
    frontier, dense = results
    assert (frontier is None) == (dense is None)
    if frontier is None:
        return
    assert frontier.assignment == dense.assignment
    assert frontier.prices == dense.prices
    assert frontier.etas == dense.etas  # exact float equality
    assert frontier.stats == dense.stats  # every counter, incl. evictions
    # Side effects too: every (round, uploader, price) callback, in order.
    assert streams[0] == streams[1]


problems = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 50_000),
        "n_requests": st.integers(1, 60),
        "n_uploaders": st.integers(1, 12),
        "max_candidates": st.integers(1, 6),
        "zero_cap_prob": st.sampled_from([0.0, 0.2, 0.6]),
        "integer_weights": st.booleans(),
    }
)


@given(
    spec=problems,
    epsilon=st.sampled_from([0.0, 1e-9, 0.01]),
)
def test_frontier_matches_dense(spec, epsilon):
    problem = build_problem(**spec)
    assert_identical(problem, epsilon)


@given(
    spec=problems,
    epsilon=st.sampled_from([0.0, 0.01]),
    warm_fraction=st.sampled_from([0.3, 1.0]),
)
def test_frontier_matches_dense_warm_started(spec, epsilon, warm_fraction):
    problem = build_problem(**spec)
    prices = warm_prices(spec["seed"], problem, warm_fraction)
    assert_identical(problem, epsilon, initial_prices=prices)


@given(seed=st.integers(0, 10_000))
def test_eviction_pressure(seed):
    """Capacity-1 uploaders + integer ties: maximal contested replays."""
    rng = np.random.default_rng(seed)
    problem = SchedulingProblem()
    n_uploaders = int(rng.integers(1, 5))
    uploader_ids = [10_000 + i for i in range(n_uploaders)]
    for u in uploader_ids:
        problem.set_capacity(u, 1)
    for r in range(int(rng.integers(2, 30))):
        k = int(rng.integers(1, n_uploaders + 1))
        chosen = rng.choice(n_uploaders, size=k, replace=False)
        problem.add_request(
            peer=r,
            chunk=f"c{r}",
            valuation=float(rng.integers(2, 8)),
            candidates={
                uploader_ids[int(j)]: float(rng.integers(0, 4)) for j in chosen
            },
        )
    assert_identical(problem, 0.01)
    assert_identical(problem, 0.0)


def test_zero_capacity_everywhere():
    """All-masked problem: every request retires up front, η = 0."""
    problem = SchedulingProblem()
    problem.set_capacity(1, 0)
    problem.set_capacity(2, 0)
    for r in range(4):
        problem.add_request(
            peer=100 + r, chunk=f"c{r}", valuation=5.0, candidates={1: 0.5, 2: 1.0}
        )
    assert_identical(problem, 0.01)
    result = AuctionSolver(epsilon=0.01, mode="jacobi").solve(problem)
    assert all(u is None for u in result.assignment.values())
    assert all(eta == 0.0 for eta in result.etas.values())
