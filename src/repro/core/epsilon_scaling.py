"""ε-scaling driver for the auction (Bertsekas [8]'s classic speedup).

The plain auction with tiny ε can take Θ(C/ε) bidding work on instances
with large value spread C.  ε-scaling runs the auction in phases with a
geometrically decreasing increment, warm-starting each phase with the
previous phase's prices, so most of the price climbing happens in cheap
coarse phases.

Caveat: with the outside option, a warm start
can strand a positive price on an uploader that ends the final phase
unsaturated, which voids the CS-1 optimality certificate.  The driver
therefore *verifies* the duality gap of the scaled run and falls back to
a cold run at ``epsilon_final`` when the certificate fails — the result
returned is always within ``n·epsilon_final`` of the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .auction import DEFAULT_EPSILON, AuctionSolver
from .duality import duality_gap
from .problem import SchedulingProblem
from .result import ScheduleResult

__all__ = ["ScaledAuctionSolver", "ScalingPhase"]


@dataclass(frozen=True)
class ScalingPhase:
    """Record of one ε phase for diagnostics/benchmarks."""

    epsilon: float
    bids: int
    welfare: float


class ScaledAuctionSolver:
    """Runs the auction through decreasing-ε phases with warm-started prices.

    Parameters
    ----------
    epsilon_final:
        ε of the last phase; the optimality bound is ``n·epsilon_final``.
    theta:
        Geometric reduction factor between phases (Bertsekas suggests 4–10).
    epsilon_initial:
        Starting ε; defaults to ``max_edge_value / 2``.

    Every phase, and the fallback, runs the jacobi auction.
    """

    name = "auction-scaled"

    def __init__(
        self,
        epsilon_final: float = DEFAULT_EPSILON,
        theta: float = 5.0,
        epsilon_initial: Optional[float] = None,
        gap_tol: float = 1e-9,
    ) -> None:
        if epsilon_final <= 0:
            raise ValueError("epsilon_final must be positive (scaling needs progress)")
        if theta <= 1:
            raise ValueError(f"theta must exceed 1, got {theta!r}")
        self.epsilon_final = float(epsilon_final)
        self.theta = float(theta)
        self.epsilon_initial = epsilon_initial
        self.gap_tol = float(gap_tol)
        self.phases: List[ScalingPhase] = []
        self.fell_back = False

    def schedule(self, problem: SchedulingProblem) -> ScheduleResult:
        """Scheduler-protocol alias for :meth:`solve`."""
        return self.solve(problem)

    def solve(self, problem: SchedulingProblem) -> ScheduleResult:
        self.phases = []
        self.fell_back = False
        epsilon = self.epsilon_initial
        if epsilon is None:
            epsilon = max(problem.max_edge_value() / 2.0, self.epsilon_final)
        epsilon = max(float(epsilon), self.epsilon_final)

        prices = None
        result: Optional[ScheduleResult] = None
        while True:
            solver = AuctionSolver(epsilon=epsilon)
            result = solver.solve(problem, initial_prices=prices)
            self.phases.append(
                ScalingPhase(
                    epsilon=epsilon,
                    bids=result.stats.bids_submitted,
                    welfare=result.welfare(problem),
                )
            )
            prices = result.prices
            if epsilon <= self.epsilon_final:
                break
            epsilon = max(self.epsilon_final, epsilon / self.theta)

        gap = duality_gap(problem, result)
        bound = result.n_served() * self.epsilon_final + self.gap_tol
        if not (-self.gap_tol <= gap <= bound):
            # Warm-start stranded a price; redo cold for a sound certificate.
            self.fell_back = True
            solver = AuctionSolver(epsilon=self.epsilon_final)
            result = solver.solve(problem)
        return result

    def total_bids(self) -> int:
        """Bids across all phases (fallback run not included)."""
        return sum(p.bids for p in self.phases)
