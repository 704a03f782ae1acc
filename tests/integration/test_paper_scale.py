"""Integration at the paper's full Section V scale (one slot).

500 peers, 100 videos of 2560 × 8 KB chunks, 100-chunk windows, 30
neighbors, 2 seeds per ISP per video — the slot ILP has ~50 000 requests
and ~700 000 edges.  The vectorized auction must solve it in a few
rounds and match the LP-relaxation optimum (integral by total
unimodularity) within n·ε.

This is the slowest test in the suite (≈1 min); it guards the scaling
claim that the harness can run the paper's actual configuration.
"""

from __future__ import annotations

import pytest

from repro.core.auction import AuctionSolver
from repro.core.exact import solve_lp_relaxation
from repro.p2p.config import SystemConfig
from repro.p2p.system import P2PSystem

EPSILON = 0.01


@pytest.fixture(scope="module")
def paper_slot():
    config = SystemConfig.paper(seed=0, bid_rounds_per_slot=1)
    system = P2PSystem(config)
    system.populate_static(500)
    problem = system.build_problem(0.0)
    return system, problem


@pytest.mark.slow
def test_paper_scale_slot_shape(paper_slot):
    system, problem = paper_slot
    assert system.n_seeds() == 5 * 100 * 2  # ISPs × videos × 2
    assert problem.n_requests > 30_000
    assert problem.n_edges() > 200_000
    assert problem.total_capacity() > problem.n_requests  # Theorem 1's regime


@pytest.mark.slow
def test_paper_scale_auction_matches_lp_optimum(paper_slot):
    _, problem = paper_slot
    result = AuctionSolver(epsilon=EPSILON, mode="jacobi").solve(problem)
    result.check_feasible(problem)
    assert result.stats.converged
    assert result.stats.rounds < 100  # a handful of Jacobi rounds suffice

    lp = solve_lp_relaxation(problem)
    assert lp.integral
    assert result.welfare(problem) >= lp.value - problem.n_requests * EPSILON - 1e-6
    # At this scale the auction lands exactly on the optimum in practice.
    assert result.welfare(problem) == pytest.approx(lp.value, rel=1e-6)
