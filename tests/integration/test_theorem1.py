"""Integration: numerical verification of Theorem 1 across solvers.

The auction (centralized GS, centralized Jacobi, distributed message
level, ε-scaled) must agree with three independent exact oracles on
random instances spanning abundance and scarcity.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.auction import AuctionSolver
from repro.core.distributed import DistributedAuction
from repro.core.duality import verify_theorem1
from repro.core.epsilon_scaling import ScaledAuctionSolver
from repro.core.exact import solve_hungarian, solve_lp_relaxation, solve_min_cost_flow
from repro.core.problem import random_problem
from repro.sim.engine import Simulator
from repro.sim.network import ConstantLatency, SimNetwork

EPS = 1e-6


def distributed_solve(problem, epsilon):
    sim = Simulator()
    network = SimNetwork(sim, latency=ConstantLatency(0.01))
    return DistributedAuction(sim, network, problem, epsilon=epsilon).run_to_convergence()


@pytest.mark.parametrize("seed", range(8))
def test_all_solvers_agree(seed):
    rng = np.random.default_rng(seed)
    problem = random_problem(
        rng,
        n_requests=int(rng.integers(10, 80)),
        n_uploaders=int(rng.integers(2, 10)),
        max_candidates=int(rng.integers(1, 6)),
        capacity_range=(1, 3),
    )
    n = problem.n_requests
    optimum = solve_hungarian(problem).welfare(problem)

    lp = solve_lp_relaxation(problem)
    assert lp.integral
    assert lp.value == pytest.approx(optimum, abs=1e-6)
    assert solve_min_cost_flow(problem).welfare(problem) == pytest.approx(
        optimum, abs=1e-3
    )

    for solver in (
        AuctionSolver(epsilon=EPS, mode="gauss-seidel"),
        AuctionSolver(epsilon=EPS, mode="jacobi"),
        ScaledAuctionSolver(epsilon_final=EPS),
    ):
        result = solver.solve(problem)
        result.check_feasible(problem)
        assert result.welfare(problem) >= optimum - n * EPS - 1e-9

    distributed = distributed_solve(problem, EPS)
    distributed.check_feasible(problem)
    assert distributed.welfare(problem) >= optimum - n * EPS - 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_certificates_on_system_generated_problems(seed):
    """Theorem 1 checks on problems produced by the actual P2P system."""
    from repro.p2p.config import SystemConfig
    from repro.p2p.system import P2PSystem

    system = P2PSystem(SystemConfig.tiny(seed=seed))
    system.populate_static(12)
    system.run(10.0)
    problem = system.build_problem(system.now)
    if problem.n_requests == 0:
        pytest.skip("workload produced no requests")
    result = AuctionSolver(epsilon=EPS, mode="gauss-seidel").solve(problem)
    report = verify_theorem1(problem, result, epsilon=EPS)
    assert report.optimal, report.violations[:5]
    optimum = solve_hungarian(problem).welfare(problem)
    assert result.welfare(problem) >= optimum - problem.n_requests * EPS - 1e-9


def test_epsilon_zero_on_generic_instance_matches_optimum():
    """With continuous random costs (no ties), the paper's exact ε = 0
    rule reaches the optimum — Theorem 1's setting."""
    rng = np.random.default_rng(99)
    problem = random_problem(rng, n_requests=40, n_uploaders=8, capacity_range=(2, 4))
    result = AuctionSolver(epsilon=0.0, mode="gauss-seidel").solve(problem)
    optimum = solve_hungarian(problem).welfare(problem)
    assert result.welfare(problem) == pytest.approx(optimum, abs=1e-9)
