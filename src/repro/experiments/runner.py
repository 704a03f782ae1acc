"""Experiment runners: scheduler comparisons and the distributed price trace.

:func:`run_comparison` plays the *same* workload (same seed → same
arrivals, costs, videos, positions) once per scheduler, the paper's
methodology for Figs. 3–6.  :func:`run_price_trace` reruns the slot
auctions of a static system at message level over a simulated network to
record ``λ_u(t)`` for Fig. 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.distributed import DistributedAuction
from ..metrics.collectors import MetricsCollector
from ..p2p.system import P2PSystem
from ..sim.engine import Simulator
from ..sim.network import CostLatency, SimNetwork
from .configs import FigureConfig

__all__ = ["PriceTraceResult", "run_comparison", "run_price_trace"]


def run_comparison(config: FigureConfig) -> Dict[str, MetricsCollector]:
    """Run the figure's workload once per scheduler; returns collectors.

    The RNG registry is rebuilt from the same seed for every scheduler,
    so arrivals, video choices, link costs and playback positions are
    identical across runs — only the scheduling decisions differ.
    """
    results: Dict[str, MetricsCollector] = {}
    for scheduler_name in config.schedulers:
        system = P2PSystem(config.system.with_scheduler(scheduler_name))
        if config.n_static_peers:
            system.populate_static(config.n_static_peers, stagger=config.stagger)
        if config.warmup_seconds:
            system.run(config.warmup_seconds, churn=config.churn)
            system.collector.slots.clear()
        system.run(config.duration_seconds, churn=config.churn)
        results[scheduler_name] = system.collector
    return results


@dataclass
class PriceTraceResult:
    """Fig. 2 data: λ_u(t) of a representative peer across several slots."""

    uploader: int
    times: List[float] = field(default_factory=list)
    prices: List[float] = field(default_factory=list)
    slot_starts: List[float] = field(default_factory=list)
    convergence_seconds: List[float] = field(default_factory=list)
    messages_per_slot: List[int] = field(default_factory=list)

    def mean_convergence(self) -> float:
        """Average within-slot convergence time (seconds)."""
        if not self.convergence_seconds:
            return 0.0
        return sum(self.convergence_seconds) / len(self.convergence_seconds)

    def max_price(self) -> float:
        return max(self.prices, default=0.0)


def run_price_trace(
    config: FigureConfig,
    n_slots: int = 5,
    seconds_per_cost_unit: float = 0.02,
    epsilon: Optional[float] = None,
    uploader: Optional[int] = None,
) -> PriceTraceResult:
    """Record λ_u(t) by running each slot's auction at message level.

    The system is warmed up centrally (cheap), then ``n_slots`` slots are
    executed through :class:`~repro.core.distributed.DistributedAuction`
    over a latency network derived from the same cost model (one cost
    unit = ``seconds_per_cost_unit`` seconds), mirroring the paper's
    emulator where peers of the 5 ISPs exchanged real traffic.  Within
    each slot prices start at 0 and converge; the trace shows the
    paper's sawtooth (Fig. 2).
    """
    system = P2PSystem(config.system.with_scheduler("auction"))
    if config.n_static_peers:
        system.populate_static(config.n_static_peers)
    if config.warmup_seconds:
        system.run(config.warmup_seconds, churn=config.churn)

    epsilon = config.system.epsilon if epsilon is None else epsilon
    trace = PriceTraceResult(uploader=-1)
    chosen = uploader

    for _ in range(n_slots):
        slot_start = system.now
        problem = system.build_problem(system.now)
        sim = Simulator(start_time=slot_start)
        network = SimNetwork(
            sim,
            latency=CostLatency(
                system.costs.as_cost_fn(),
                seconds_per_cost_unit=seconds_per_cost_unit,
            ),
        )
        auction = DistributedAuction(sim, network, problem, epsilon=epsilon)
        result = auction.run_to_convergence()

        if chosen is None:
            # Representative peer: the uploader whose price moved the most
            # in the first traced slot with any movement (the paper picks
            # a busy peer).
            counts: Dict[int, int] = {}
            for event in auction.price_events:
                counts[event.uploader] = counts.get(event.uploader, 0) + 1
            if counts:
                chosen = max(counts, key=counts.get)
                trace.uploader = chosen

        trace.slot_starts.append(slot_start)
        trace.messages_per_slot.append(int(sum(network.sent.values())))
        trace.convergence_seconds.append(
            max(0.0, auction.convergence_time() - slot_start)
        )
        # The slot opens at price 0 and steps on each update.
        trace.times.append(slot_start)
        trace.prices.append(0.0)
        for event in auction.price_events:
            if event.uploader == chosen:
                trace.times.append(event.time)
                trace.prices.append(event.price)

        # Advance the system along the distributed schedule so later
        # slots see the buffers this auction produced.
        system._apply_transfers(problem, result)
        system._advance_playback(slot_start + config.system.slot_seconds)
        system.now = slot_start + config.system.slot_seconds
        system.slot_index += 1

    return trace
