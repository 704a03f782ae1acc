"""Property-based tests for the system slot loop invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.p2p.config import SystemConfig
from repro.p2p.system import P2PSystem


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 1000),
    n_peers=st.integers(2, 20),
    scheduler=st.sampled_from(["auction", "locality", "greedy"]),
    rounds=st.integers(1, 3),
)
def test_slot_invariants_hold_for_any_config(seed, n_peers, scheduler, rounds):
    """Conservation, feasibility and bounds hold for arbitrary small runs."""
    config = SystemConfig.tiny(
        seed=seed, scheduler=scheduler, bid_rounds_per_slot=rounds
    )
    system = P2PSystem(config)
    system.populate_static(n_peers)
    collector = system.run(20.0)

    for slot in collector.slots:
        assert slot.n_served <= slot.n_requests
        assert slot.inter_isp_chunks + slot.intra_isp_chunks == slot.n_served
        assert 0.0 <= slot.miss_rate <= 1.0
        assert slot.chunks_missed <= slot.chunks_due

    uploaded = sum(p.chunks_uploaded for p in system.peers.values())
    downloaded = sum(p.chunks_downloaded for p in system.peers.values())
    assert uploaded == downloaded == system.traffic_matrix.total()


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 1000), rate=st.floats(0.2, 3.0))
def test_churn_population_accounting(seed, rate):
    config = SystemConfig.tiny(
        seed=seed, arrival_rate_per_s=rate, early_departure_prob=0.5
    )
    system = P2PSystem(config)
    system.run(40.0, churn=True)
    assert len(system.peers) == system.n_seeds() + system.arrivals - system.departures
    # Nobody departs before arriving; the topology matches the peer map.
    placed = np.flatnonzero(system.topology.column() >= 0)
    assert placed.tolist() == sorted(system.peers)
    videos = {p.video.video_id for p in system.peers.values()}
    registered = set().union(*(system.tracker.members_view(v) for v in videos))
    assert registered == set(system.peers) and len(system.tracker) == len(registered)
