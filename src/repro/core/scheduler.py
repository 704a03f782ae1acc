"""Scheduler interface and registry.

Every per-slot scheduling strategy — the auction, the paper's locality
baseline, the extra baselines and the exact oracles — implements the
same ``schedule(problem) -> ScheduleResult`` protocol, so the P2P system
(:mod:`repro.p2p.system`) and the experiment harness can swap them by
name.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Protocol, runtime_checkable

import numpy as np

from .auction import DEFAULT_EPSILON, AuctionSolver
from .baselines import (
    LocalityRetryScheduler,
    NetworkAgnosticScheduler,
    RandomScheduler,
    SimpleLocalityScheduler,
    UtilityGreedyScheduler,
)
from .exact import solve_hungarian, solve_lp_relaxation
from .problem import SchedulingProblem
from .result import ScheduleResult

__all__ = [
    "AuctionScheduler",
    "DistributedAuctionScheduler",
    "ChunkScheduler",
    "HungarianScheduler",
    "LPScheduler",
    "available_schedulers",
    "make_scheduler",
]


@runtime_checkable
class ChunkScheduler(Protocol):
    """Anything that can schedule one slot's chunk requests."""

    name: str

    def schedule(self, problem: SchedulingProblem) -> ScheduleResult:
        """Solve one slot; must not mutate ``problem``."""
        ...


class AuctionScheduler:
    """The paper's primal-dual auction as a :class:`ChunkScheduler`.

    Every solve runs the jacobi auction (:class:`AuctionSolver`'s
    default mode).
    """

    name = "auction"
    #: The slot pipeline may pass ``initial_prices`` (warm-started
    #: re-bids); schedulers without this attribute are always run cold.
    supports_warm_start = True

    def __init__(self, epsilon: float = DEFAULT_EPSILON) -> None:
        # Built here so a bad ε fails at construction, not in the first
        # slot; the solver keeps no state between solves.
        self.solver = AuctionSolver(epsilon=epsilon)

    @property
    def epsilon(self) -> float:
        return self.solver.epsilon

    def schedule(
        self, problem: SchedulingProblem, initial_prices=None
    ) -> ScheduleResult:
        """Solve one slot; ``initial_prices`` warm-starts ``λ``.

        ``initial_prices`` takes either price form accepted by
        :meth:`AuctionSolver.solve` — a dict or an ``(ids, values)``
        pair (:meth:`~repro.core.result.ScheduleResult.price_arrays`).
        """
        return self.solver.solve(problem, initial_prices=initial_prices)


class DistributedAuctionScheduler:
    """The auction executed as the real message-level protocol.

    Spins up a discrete-event network per slot and runs
    :class:`~repro.core.distributed.DistributedAuction` to quiescence —
    the system-level proof that the protocol (with latencies, stale
    prices, timeouts) schedules as well as the centralized solver.
    ``message_latency`` is the constant per-message delay; pass a
    ``latency_model`` for cost-proportional delays.
    """

    name = "auction-distributed"

    def __init__(
        self,
        epsilon: float = 0.01,
        message_latency: float = 0.01,
        latency_model=None,
        loss_probability: float = 0.0,
    ) -> None:
        self.epsilon = epsilon
        self.message_latency = message_latency
        self.latency_model = latency_model
        self.loss_probability = loss_probability

    def schedule(self, problem: SchedulingProblem) -> ScheduleResult:
        from ..sim.engine import Simulator
        from ..sim.network import ConstantLatency, SimNetwork
        from .distributed import DistributedAuction

        sim = Simulator()
        network = SimNetwork(
            sim,
            latency=self.latency_model or ConstantLatency(self.message_latency),
            loss_probability=self.loss_probability,
            rng=np.random.default_rng(0),
        )
        auction = DistributedAuction(sim, network, problem, epsilon=self.epsilon)
        return auction.run_to_convergence()


class HungarianScheduler:
    """Exact centralized optimum (oracle; not a deployable P2P protocol)."""

    name = "hungarian"

    def schedule(self, problem: SchedulingProblem) -> ScheduleResult:
        return solve_hungarian(problem)


class LPScheduler:
    """LP-relaxation optimum via HiGHS (integral by total unimodularity)."""

    name = "lp"

    def schedule(self, problem: SchedulingProblem) -> ScheduleResult:
        return solve_lp_relaxation(problem).result


_REGISTRY: Dict[str, Callable[..., ChunkScheduler]] = {
    "auction": AuctionScheduler,
    "auction-distributed": DistributedAuctionScheduler,
    "locality": SimpleLocalityScheduler,
    "locality-retry": LocalityRetryScheduler,
    "agnostic": NetworkAgnosticScheduler,
    "greedy": UtilityGreedyScheduler,
    "random": RandomScheduler,
    "hungarian": HungarianScheduler,
    "lp": LPScheduler,
}


def available_schedulers() -> list[str]:
    """Names accepted by :func:`make_scheduler`."""
    return sorted(_REGISTRY)


def make_scheduler(
    name: str, rng: Optional[np.random.Generator] = None, **kwargs
) -> ChunkScheduler:
    """Instantiate a scheduler by registry name.

    ``rng`` is forwarded to the randomized baselines; other keyword
    arguments go to the scheduler constructor.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; available: {available_schedulers()}"
        ) from None
    if name in ("agnostic", "random") and rng is not None:
        return factory(rng=rng, **kwargs)
    return factory(**kwargs)
