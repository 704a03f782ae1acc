"""Simulated message network with latency, jitter and loss.

The paper's emulator sends real packets between peer processes; here a
:class:`SimNetwork` delivers :class:`~repro.sim.messages.Message` objects
through the discrete-event engine with a configurable latency model.
The latency model is typically derived from the same ISP cost matrix the
auction uses (one cost unit ≈ ``seconds_per_cost_unit`` seconds), so the
within-slot convergence timeline of Fig. 2 is meaningful.

Loss and partition injection exist for failure testing: the distributed
auction must converge (possibly to a poorer assignment) when bids or
price updates are dropped, mirroring Section IV-C's robustness claims.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Optional, Set, Tuple

import numpy as np

from .engine import Simulator
from .messages import Message

__all__ = ["ConstantLatency", "CostLatency", "SimNetwork"]

LatencyModel = Callable[[int, int], float]


class ConstantLatency:
    """Latency model returning a fixed delay for every pair."""

    def __init__(self, delay: float = 0.05) -> None:
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay!r}")
        self.delay = float(delay)

    def __call__(self, src: int, dst: int) -> float:
        return self.delay


class CostLatency:
    """Latency proportional to a pairwise network-cost function.

    ``cost_fn(src, dst)`` is the same ``w_{u→d}`` the auction charges
    (see :mod:`repro.net.costs`), scaled by ``seconds_per_cost_unit``.
    A floor keeps zero-cost intra-ISP pairs from delivering instantly.
    """

    def __init__(
        self,
        cost_fn: Callable[[int, int], float],
        seconds_per_cost_unit: float = 0.1,
        floor: float = 0.005,
    ) -> None:
        self.cost_fn = cost_fn
        self.seconds_per_cost_unit = float(seconds_per_cost_unit)
        self.floor = float(floor)

    def __call__(self, src: int, dst: int) -> float:
        return max(self.floor, self.cost_fn(src, dst) * self.seconds_per_cost_unit)


class SimNetwork:
    """Delivers messages between registered handlers via the event engine.

    Parameters
    ----------
    sim:
        The discrete-event simulator supplying the clock.
    latency:
        Callable ``(src, dst) -> seconds``.
    loss_probability:
        Independent drop probability per message (failure injection).
    jitter:
        Uniform multiplicative jitter half-width; the effective delay is
        ``latency * uniform(1 - jitter, 1 + jitter)``.
    rng:
        Generator used for loss and jitter draws.
    """

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        loss_probability: float = 0.0,
        jitter: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError(f"loss_probability must be in [0, 1], got {loss_probability!r}")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter!r}")
        self.sim = sim
        self.latency: LatencyModel = latency or ConstantLatency()
        self.loss_probability = float(loss_probability)
        self.jitter = float(jitter)
        self.rng = rng or np.random.default_rng(0)
        self._handlers: Dict[int, Callable[[Message], None]] = {}
        self._partitioned: Set[Tuple[int, int]] = set()
        self.sent = Counter()
        self.delivered = Counter()
        self.dropped = Counter()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, node_id: int, handler: Callable[[Message], None]) -> None:
        """Attach ``handler`` to receive messages addressed to ``node_id``."""
        self._handlers[node_id] = handler

    def unregister(self, node_id: int) -> None:
        """Detach a node; in-flight messages to it are dropped on arrival."""
        self._handlers.pop(node_id, None)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def partition(self, a: int, b: int) -> None:
        """Block both directions between ``a`` and ``b``."""
        self._partitioned.add((a, b))
        self._partitioned.add((b, a))

    def heal(self, a: int, b: int) -> None:
        """Remove a partition between ``a`` and ``b``."""
        self._partitioned.discard((a, b))
        self._partitioned.discard((b, a))

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, message: Message) -> bool:
        """Enqueue ``message`` for delivery.

        Returns ``True`` if the message was scheduled, ``False`` when it
        was dropped (loss, partition, or unknown destination at send
        time).  Delivery may still silently fail later if the receiver
        unregisters while the message is in flight — exactly the peer-
        departure race Section IV-C discusses.
        """
        kind = message.kind
        self.sent[kind] += 1
        if message.dst not in self._handlers:
            self.dropped[kind] += 1
            return False
        if (message.src, message.dst) in self._partitioned:
            self.dropped[kind] += 1
            return False
        if self.loss_probability > 0.0 and self.rng.random() < self.loss_probability:
            self.dropped[kind] += 1
            return False
        delay = self.latency(message.src, message.dst)
        if self.jitter > 0.0:
            delay *= 1.0 + self.jitter * (2.0 * self.rng.random() - 1.0)
        self.sim.schedule(max(0.0, delay), lambda: self._deliver(message))
        return True

    def _deliver(self, message: Message) -> None:
        handler = self._handlers.get(message.dst)
        if handler is None:
            self.dropped[message.kind] += 1
            return
        self.delivered[message.kind] += 1
        handler(message)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Dict[str, int]]:
        """Counts of sent/delivered/dropped messages by message kind."""
        return {
            "sent": dict(self.sent),
            "delivered": dict(self.delivered),
            "dropped": dict(self.dropped),
        }
