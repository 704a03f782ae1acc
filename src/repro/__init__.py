"""repro — Socially-optimal ISP-aware P2P content distribution (Zhao & Wu, 2014).

A full reproduction of the paper's system: the social-welfare chunk
scheduling ILP, the primal-dual auction that solves it distributedly,
the exact oracles certifying Theorem 1, the locality baseline, and a
discrete-event P2P VoD emulator reproducing every figure of the
evaluation section.

Quickstart::

    from repro import ProblemBuilder, AuctionSolver, solve_hungarian

    builder = ProblemBuilder()
    builder.set_capacity(100, 2)
    builder.add_request(peer=1, chunk="c", valuation=5.0, candidates={100: 1.0})
    p = builder.build()
    result = AuctionSolver().solve(p)
    assert result.welfare(p) == solve_hungarian(p).welfare(p)

See ``examples/`` for the P2P system and experiment harness.
"""

from .core import (
    DEFAULT_EPSILON,
    manipulation_study,
    AuctionNonConvergence,
    AuctionScheduler,
    AuctionSolver,
    ChunkRequest,
    DistributedAuction,
    ProblemBuilder,
    ScaledAuctionSolver,
    ScheduleResult,
    SchedulingProblem,
    SimpleLocalityScheduler,
    available_schedulers,
    check_complementary_slackness,
    duality_gap,
    make_scheduler,
    random_problem,
    solve_hungarian,
    solve_lp_relaxation,
    solve_min_cost_flow,
    vcg_payments,
    verify_theorem1,
)
from .sim import RngRegistry, SimNetwork, Simulator

__version__ = "1.0.0"

__all__ = [
    "AuctionNonConvergence",
    "AuctionScheduler",
    "AuctionSolver",
    "ChunkRequest",
    "DEFAULT_EPSILON",
    "DistributedAuction",
    "ProblemBuilder",
    "RngRegistry",
    "ScaledAuctionSolver",
    "ScheduleResult",
    "SchedulingProblem",
    "SimNetwork",
    "SimpleLocalityScheduler",
    "Simulator",
    "__version__",
    "available_schedulers",
    "check_complementary_slackness",
    "duality_gap",
    "make_scheduler",
    "random_problem",
    "solve_hungarian",
    "solve_lp_relaxation",
    "solve_min_cost_flow",
    "vcg_payments",
    "manipulation_study",
    "verify_theorem1",
]
