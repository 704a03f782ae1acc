"""Property: the losers-bid-next jacobi ≡ the dense oracle exactly.

After round 1 the ``jacobi`` solver evaluates only the rows the round
before left unassigned (its rejected bidders and evicted members) and
the dormant ε = 0 ties that a reprice of one of their candidates woke;
the dense oracle (``solve_jacobi_dense`` in ``tests/oracles/auction.py``)
re-scans every pending request every round.  Both
must produce byte-identical results — assignment, final λ, η duals,
every ``SolverStats`` counter and the
``on_price_update(round, uploader, price)`` stream, call for call — over
randomly generated problems covering the rule's hard cases:

* zero-capacity uploaders (masked edges, rows retired up front);
* integer weights (exact bid ties → ε = 0 dormancy and wake-ups,
  contested evictions with min-bid ties where the price does *not*
  move);
* tight capacities (evictions / contested merges);
* warm-started prices (dormant rows from the very first round).

The rule also fixes how many rows a solve evaluates.  With ε > 0 every
pending row bids every round, so it evaluates exactly the dense
reference's rows; with ε = 0 it skips the dormant rows the dense
reference re-scans, so it evaluates at most as many.

The solver hands the rest of a solve to its tail loop at the first
round that is not bulk and has at most ``_SMALL_ROUND_ROWS`` rows, and
the handoff is one-way.  Every example is solved four times, with the
bound at 0 (every round on the vector path), at 2, at its default
(which at these sizes hands over at the first non-bulk round) and
above every round.  Only the bound of 2 reaches the case where a tail
round outgrows the bound: at ε = 0, cold or warm-started, the dormant
rows a tail reprice wakes join the next round, and the tail must stay
exact at any round size.  The random problems reach it rarely, so
:func:`crowd_problem` builds a crowd of dormant ties for a tail
reprice to wake.

Runs under the deterministic ``repro-props`` Hypothesis profile.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import auction
from repro.core.auction import AuctionNonConvergence, AuctionSolver
from repro.core.problem import ProblemBuilder, SchedulingProblem

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "oracles"))
from auction import solve_in_mode  # noqa: E402

#: ``_SMALL_ROUND_ROWS`` settings: vector only, a handoff at a round of
#: at most 2 rows, the default, a handoff at the first non-bulk round.
SMALL_ROUND_ROWS = (0, 2, auction._SMALL_ROUND_ROWS, 10**9)


def build_problem(
    seed: int,
    n_requests: int,
    n_uploaders: int,
    max_candidates: int,
    zero_cap_prob: float,
    integer_weights: bool,
) -> SchedulingProblem:
    rng = np.random.default_rng(seed)
    builder = ProblemBuilder()
    uploader_ids = [10_000 + i for i in range(n_uploaders)]
    for u in uploader_ids:
        capacity = 0 if rng.random() < zero_cap_prob else int(rng.integers(1, 4))
        builder.set_capacity(u, capacity)
    for r in range(n_requests):
        k = int(rng.integers(1, max_candidates + 1))
        chosen = rng.choice(n_uploaders, size=min(k, n_uploaders), replace=False)
        if integer_weights:
            valuation = float(rng.integers(1, 9))
            costs = rng.integers(0, 9, size=len(chosen)).astype(float)
        else:
            valuation = float(rng.uniform(0.5, 9.0))
            costs = rng.uniform(0.0, 9.0, size=len(chosen))
        builder.add_request(
            peer=r,
            chunk=f"c{r}",
            valuation=valuation,
            candidates={uploader_ids[int(j)]: float(c) for j, c in zip(chosen, costs)},
        )
    problem = builder.build()
    return problem


def crowd_problem(seed: int) -> SchedulingProblem:
    """A crowd of ε = 0 ties that sleeps until a tail reprice wakes it.

    Two or three rows fight over one uploader of capacity 1, each with
    a quiet uploader as its second choice.  Every crowd row values two
    quiet uploaders equally, so at ε = 0 its bid equals λ and it goes
    dormant in round 1.  The fight's losers move to the quiet uploaders
    in rounds of one or two rows, and a quiet uploader that fills and
    reprices wakes every crowd row that lists it at once: with the
    bound at 2, a tail round larger than the bound (about half the
    cold examples).
    """
    rng = np.random.default_rng(seed)
    builder = ProblemBuilder()
    quiet = [20_000 + i for i in range(int(rng.integers(2, 5)))]
    top = 30_000
    builder.set_capacity(top, 1)
    for u in quiet:
        builder.set_capacity(u, int(rng.integers(1, 3)))
    n_fight = int(rng.integers(2, 4))
    for r in range(n_fight):
        second = quiet[int(rng.integers(len(quiet)))]
        builder.add_request(
            peer=r,
            chunk=f"c{r}",
            valuation=float(rng.integers(10, 20)),
            candidates={
                top: float(rng.integers(0, 3)),
                second: float(rng.integers(3, 8)),
            },
        )
    for r in range(n_fight, n_fight + int(rng.integers(3, 21))):
        a, b = rng.choice(len(quiet), size=2, replace=False)
        cost = float(rng.integers(0, 5))
        builder.add_request(
            peer=r,
            chunk=f"c{r}",
            valuation=cost + float(rng.integers(1, 4)),
            candidates={quiet[int(a)]: cost, quiet[int(b)]: cost},
        )
    problem = builder.build()
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


def solve(problem, epsilon, mode, initial_prices):
    """The result (None if it does not converge) and its price-callback stream."""
    calls = []
    try:
        result = solve_in_mode(
            mode,
            problem,
            initial_prices,
            epsilon=epsilon,
            max_rounds=400,
            on_price_update=lambda *call: calls.append(call),
        )
        return result, calls
    except AuctionNonConvergence:
        return None, calls


def assert_identical(problem, epsilon, initial_prices=None) -> None:
    dense, dense_calls = solve(problem, epsilon, "jacobi-dense", initial_prices)
    for small in SMALL_ROUND_ROWS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(auction, "_SMALL_ROUND_ROWS", small)
            frontier, calls = solve(problem, epsilon, "jacobi", initial_prices)
        assert (frontier is None) == (dense is None)
        if frontier is None:
            continue
        assert frontier.assignment == dense.assignment
        assert frontier.prices == dense.prices
        assert frontier.etas == dense.etas  # exact float equality
        assert frontier.stats == dense.stats  # every counter, incl. evictions
        # Side effects too: every (round, uploader, price) callback, in order.
        assert calls == dense_calls
        if epsilon > 0:
            assert frontier.stats.rows_evaluated == dense.stats.rows_evaluated
        else:
            assert frontier.stats.rows_evaluated <= dense.stats.rows_evaluated


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


@given(seed=st.integers(0, 10_000), warm_fraction=st.sampled_from([0.0, 0.3]))
def test_tail_wakes_a_dormant_crowd(seed, warm_fraction):
    """ε = 0: a tail round outgrows the bound, and the tail stays exact."""
    problem = crowd_problem(seed)
    prices = warm_prices(seed, problem, warm_fraction)
    assert_identical(problem, 0.0, initial_prices=prices)


@given(seed=st.integers(0, 10_000))
def test_eviction_pressure(seed):
    """Capacity-1 uploaders + integer ties: maximal contested replays."""
    rng = np.random.default_rng(seed)
    builder = ProblemBuilder()
    n_uploaders = int(rng.integers(1, 5))
    uploader_ids = [10_000 + i for i in range(n_uploaders)]
    for u in uploader_ids:
        builder.set_capacity(u, 1)
    for r in range(int(rng.integers(2, 30))):
        k = int(rng.integers(1, n_uploaders + 1))
        chosen = rng.choice(n_uploaders, size=k, replace=False)
        builder.add_request(
            peer=r,
            chunk=f"c{r}",
            valuation=float(rng.integers(2, 8)),
            candidates={
                uploader_ids[int(j)]: float(rng.integers(0, 4)) for j in chosen
            },
        )
    problem = builder.build()
    assert_identical(problem, 0.01)
    assert_identical(problem, 0.0)


def test_zero_capacity_everywhere():
    """All-masked problem: every request retires up front, η = 0."""
    builder = ProblemBuilder()
    builder.set_capacity(1, 0)
    builder.set_capacity(2, 0)
    for r in range(4):
        builder.add_request(
            peer=100 + r, chunk=f"c{r}", valuation=5.0, candidates={1: 0.5, 2: 1.0}
        )
    problem = builder.build()
    assert_identical(problem, 0.01)
    result = AuctionSolver(epsilon=0.01, mode="jacobi").solve(problem)
    assert all(u is None for u in result.assignment.values())
    assert all(eta == 0.0 for eta in result.etas.values())
