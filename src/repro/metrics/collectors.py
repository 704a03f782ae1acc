"""Per-slot metric collection for the P2P system.

The paper's evaluation reports, per time slot: social welfare (Fig. 3 /
6a), the fraction of inter-ISP traffic among all transferred chunks
(Fig. 4 / 6b) and the average chunk miss rate (Fig. 5 / 6c).
:class:`MetricsCollector` accumulates exactly those, plus operational
counters useful for debugging (peers online, requests, served chunks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .timeseries import TimeSeries

__all__ = ["MetricsCollector", "SlotMetrics"]


@dataclass(frozen=True)
class SlotMetrics:
    """Everything measured in one time slot."""

    time: float
    n_peers: int
    n_requests: int
    n_served: int
    welfare: float
    inter_isp_chunks: int
    intra_isp_chunks: int
    chunks_due: int
    chunks_missed: int
    auction_rounds: int = 0
    # Lossy-link counters (net/linkmodel.py + p2p/retry.py); all stay at
    # their defaults under ideal conditions, so pre-existing consumers
    # and archived outputs are unaffected.
    transfers_failed: int = 0
    retry_attempts: int = 0
    retry_succeeded: int = 0
    retry_surrendered: int = 0
    retry_evicted: int = 0
    retry_pending: int = 0
    link_delay_ms: float = 0.0
    link_regime: str = "ideal"

    @property
    def inter_isp_fraction(self) -> float:
        """Share of transferred chunks that crossed an ISP boundary."""
        total = self.inter_isp_chunks + self.intra_isp_chunks
        return self.inter_isp_chunks / total if total else 0.0

    @property
    def miss_rate(self) -> float:
        """Fraction of due chunks that missed their deadline this slot."""
        return self.chunks_missed / self.chunks_due if self.chunks_due else 0.0

    @property
    def retry_success_rate(self) -> float:
        """Fraction of this slot's retry attempts that delivered."""
        return (
            self.retry_succeeded / self.retry_attempts
            if self.retry_attempts
            else 0.0
        )

    @property
    def mean_link_delay_ms(self) -> float:
        """Mean per-chunk link latency over this slot's deliveries."""
        total = self.inter_isp_chunks + self.intra_isp_chunks
        return self.link_delay_ms / total if total else 0.0


class MetricsCollector:
    """Accumulates :class:`SlotMetrics` and exposes the paper's series."""

    def __init__(self) -> None:
        self.slots: List[SlotMetrics] = []

    def record(self, metrics: SlotMetrics) -> None:
        if self.slots and metrics.time <= self.slots[-1].time:
            raise ValueError(
                f"slot time {metrics.time!r} not after {self.slots[-1].time!r}"
            )
        self.slots.append(metrics)

    def __len__(self) -> int:
        return len(self.slots)

    # ------------------------------------------------------------------
    # The paper's three series
    # ------------------------------------------------------------------
    def welfare_series(self) -> TimeSeries:
        """Fig. 3 / 6(a): social welfare per slot."""
        return self._series("welfare", lambda s: s.welfare)

    def inter_isp_series(self) -> TimeSeries:
        """Fig. 4 / 6(b): fraction of inter-ISP traffic per slot."""
        return self._series("inter_isp_fraction", lambda s: s.inter_isp_fraction)

    def miss_rate_series(self) -> TimeSeries:
        """Fig. 5 / 6(c): chunk miss rate per slot."""
        return self._series("miss_rate", lambda s: s.miss_rate)

    def peers_series(self) -> TimeSeries:
        return self._series("n_peers", lambda s: float(s.n_peers))

    def _series(self, name: str, getter) -> TimeSeries:
        out = TimeSeries(name)
        for slot in self.slots:
            out.append(slot.time, getter(slot))
        return out

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, float]:
        """Whole-run aggregates."""
        due = sum(s.chunks_due for s in self.slots)
        missed = sum(s.chunks_missed for s in self.slots)
        inter = sum(s.inter_isp_chunks for s in self.slots)
        intra = sum(s.intra_isp_chunks for s in self.slots)
        return {
            "welfare_total": sum(s.welfare for s in self.slots),
            "welfare_mean_per_slot": (
                sum(s.welfare for s in self.slots) / len(self.slots)
                if self.slots
                else 0.0
            ),
            "chunks_transferred": float(inter + intra),
            "inter_isp_fraction": inter / (inter + intra) if inter + intra else 0.0,
            "miss_rate": missed / due if due else 0.0,
            "served_total": float(sum(s.n_served for s in self.slots)),
            "requests_total": float(sum(s.n_requests for s in self.slots)),
            "transfers_failed_total": float(
                sum(s.transfers_failed for s in self.slots)
            ),
            "retry_attempts_total": float(
                sum(s.retry_attempts for s in self.slots)
            ),
            "retry_succeeded_total": float(
                sum(s.retry_succeeded for s in self.slots)
            ),
            "retry_surrendered_total": float(
                sum(s.retry_surrendered for s in self.slots)
            ),
        }

    def regime_segments(self) -> Dict[str, List[SlotMetrics]]:
        """Slots grouped by the link regime active when they ran.

        Insertion-ordered by first appearance, so a degrade→restore run
        yields ``{"ideal": [...], "loss10": [...], ...}`` in timeline
        order.  Ideal-only runs collapse to a single ``"ideal"`` group.
        """
        groups: Dict[str, List[SlotMetrics]] = {}
        for slot in self.slots:
            groups.setdefault(slot.link_regime, []).append(slot)
        return groups
