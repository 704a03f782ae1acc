"""The paper's contribution: welfare ILP, primal-dual auction, oracles, baselines."""

from .assignment import AssignmentExpansion, expand_to_assignment
from .auction import (
    DEFAULT_EPSILON,
    AuctionNonConvergence,
    AuctionSolver,
    PriceTrace,
)
from .baselines import (
    LocalityRetryScheduler,
    NetworkAgnosticScheduler,
    RandomScheduler,
    SimpleLocalityScheduler,
    UtilityGreedyScheduler,
)
from .distributed import DistributedAuction, PriceEvent
from .duality import (
    CertificateReport,
    check_complementary_slackness,
    dual_objective,
    duality_gap,
    verify_theorem1,
)
from .epsilon_scaling import ScaledAuctionSolver, ScalingPhase
from .exact import LPSolution, solve_hungarian, solve_lp_relaxation, solve_min_cost_flow
from .problem import (
    ChunkRequest,
    CSRView,
    ProblemBuilder,
    SchedulingProblem,
    random_problem,
)
from .result import ScheduleResult, SolverStats
from .strategic import ManipulationRow, manipulation_study, true_utility_of_peer
from .vcg import VCGOutcome, vcg_payments
from .scheduler import (
    AuctionScheduler,
    DistributedAuctionScheduler,
    ChunkScheduler,
    HungarianScheduler,
    LPScheduler,
    available_schedulers,
    make_scheduler,
)

__all__ = [
    "AssignmentExpansion",
    "AuctionNonConvergence",
    "AuctionScheduler",
    "AuctionSolver",
    "CSRView",
    "CertificateReport",
    "ChunkRequest",
    "ChunkScheduler",
    "DEFAULT_EPSILON",
    "DistributedAuction",
    "DistributedAuctionScheduler",
    "HungarianScheduler",
    "LPScheduler",
    "LPSolution",
    "ManipulationRow",
    "LocalityRetryScheduler",
    "NetworkAgnosticScheduler",
    "PriceEvent",
    "PriceTrace",
    "ProblemBuilder",
    "RandomScheduler",
    "ScaledAuctionSolver",
    "ScalingPhase",
    "ScheduleResult",
    "SchedulingProblem",
    "SimpleLocalityScheduler",
    "SolverStats",
    "UtilityGreedyScheduler",
    "VCGOutcome",
    "available_schedulers",
    "check_complementary_slackness",
    "dual_objective",
    "duality_gap",
    "expand_to_assignment",
    "manipulation_study",
    "make_scheduler",
    "random_problem",
    "solve_hungarian",
    "solve_lp_relaxation",
    "solve_min_cost_flow",
    "true_utility_of_peer",
    "vcg_payments",
    "verify_theorem1",
]
