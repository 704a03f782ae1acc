"""Property: welfare at the jacobi solve's served edges ≡ the pair lookup.

The CSR jacobi solver records the edge of every bid, and its result
keeps the edge of each served request, so ``ScheduleResult.welfare``
and ``served_values`` read ``v − w`` there instead of matching the
served pairs against every edge of the problem.  Over fuzzed solves —
masked uploaders, integer ties, ε = 0 dormancy and wake-ups, evictions,
warm starts — both must equal the pair lookup bit for bit:
``welfare`` equals ``SchedulingProblem.welfare_pairs`` and the served
values equal ``SchedulingProblem.edge_value_pairs``.  The edges come
from two places in the solver, so every example is solved with every
round on the vector path (``_SMALL_ROUND_ROWS = 0``), with the handoff
to the tail loop at a round of at most 2 rows (at ε = 0 later tail
rounds can outgrow that bound), and at the default bound (which at
these sizes hands over at the first non-bulk round).  The pair lookup is blocked while the result is scored, so the
solver's edges are what is being checked.

Runs under the deterministic ``repro-props`` Hypothesis profile.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import auction
from repro.core.auction import AuctionNonConvergence, AuctionSolver
from repro.core.problem import SchedulingProblem
from test_jacobi_frontier_equiv import build_problem, problems, warm_prices


def _no_pair_lookup(*_):
    raise AssertionError("scored by pair lookup, not at the solver's edges")


def assert_edge_welfare(problem, epsilon, initial_prices=None) -> None:
    for small in (0, 2, auction._SMALL_ROUND_ROWS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(auction, "_SMALL_ROUND_ROWS", small)
            solver = AuctionSolver(epsilon=epsilon, mode="jacobi", max_rounds=400)
            try:
                result = solver.solve(problem, initial_prices=initial_prices)
            except AuctionNonConvergence:
                return
            mp.setattr(SchedulingProblem, "_matched_edge_mask", _no_pair_lookup)
            welfare = result.welfare(problem)
            values = result.served_values(problem)
        pairs = result.served_pairs()
        assert welfare == problem.welfare_pairs(*pairs)  # bit for bit
        assert values.dtype == float
        assert np.array_equal(values, problem.edge_value_pairs(*pairs))


@given(spec=problems, epsilon=st.sampled_from([0.0, 1e-9, 0.01]))
def test_edge_welfare_matches_pair_lookup(spec, epsilon):
    assert_edge_welfare(build_problem(**spec), epsilon)


@given(
    spec=problems,
    epsilon=st.sampled_from([0.0, 0.01]),
    warm_fraction=st.sampled_from([0.3, 1.0]),
)
def test_edge_welfare_matches_pair_lookup_warm_started(spec, epsilon, warm_fraction):
    problem = build_problem(**spec)
    prices = warm_prices(spec["seed"], problem, warm_fraction)
    assert_edge_welfare(problem, epsilon, initial_prices=prices)
