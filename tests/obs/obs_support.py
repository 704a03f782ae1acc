"""Shared fixtures for the observability suite: records and traced runs."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.obs import MemoryTraceSink, TRACE_SCHEMA_VERSION
from repro.p2p.config import SystemConfig
from repro.p2p.system import P2PSystem


def minimal_record() -> dict:
    """The smallest record ``validate_trace_record`` accepts."""
    return {
        "v": TRACE_SCHEMA_VERSION,
        "slot": 0,
        "time": 0.0,
        "n_peers": 5,
        "arrivals": 0,
        "departures": 0,
        "n_requests": 3,
        "n_served": 2,
        "welfare": 1.5,
        "build": {"reused": 4, "rebuilt": 1, "dropped": 0},
        "solver": {
            "rounds": 1, "bids_submitted": 3, "bids_rejected": 0,
            "evictions": 0, "price_updates": 2, "rows_evaluated": 3,
            "scalar_rounds": 0,
        },
        "retry": {
            "attempts": 0, "succeeded": 0, "surrendered": 0,
            "evicted": 0, "pending": 0,
        },
        "traffic": {"inter": 1, "intra": 1},
        "playback": {"due": 4, "missed": 2},
        "link": {"regime": "ideal", "transfers_failed": 0, "delay_ms": 0.0},
        "timing": {
            "churn_s": 0.0, "refill_s": 0.0, "retry_s": 0.0,
            "build_s": 0.01, "solve_s": 0.02, "apply_s": 0.003,
            "playback_s": 0.001, "other_s": 0.006, "slot_s": 0.04,
        },
    }


def traced_run(
    seed: int = 0,
    n_peers: int = 12,
    n_slots: int = 3,
    **overrides,
) -> Tuple[List[dict], P2PSystem]:
    """Run a tiny static system with a memory sink; return its records.

    The system is closed before returning; the records list is safe to
    inspect afterwards.
    """
    config = SystemConfig.tiny(seed=seed, **overrides)
    system = P2PSystem(config)
    system.populate_static(n_peers)
    tracer = system.attach_tracer(MemoryTraceSink())
    try:
        for _ in range(n_slots):
            system.run_slot()
    finally:
        system.close()
        tracer.close()
    return tracer.records(), system
