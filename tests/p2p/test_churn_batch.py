"""Batched churn bookkeeping ≡ the per-peer reference paths.

The slot boundary's churn handling is columnar since the event-driven
auction PR: departures come from one mask over the store's departure /
playback columns (``PeerStateStore.departure_scan``) and are removed via
``remove_batch``; arrival bursts register with ``admit_batch``; the
departed batch leaves the pair-cost cache in one ``forget_peer`` sweep.
These tests pin the batched paths against the per-peer reference
(``process_departures_reference`` and one-peer-at-a-time ``admit``
and ``remove`` in ``tests/oracles/slot.py``, the neighbor-filtering
refill walk) on whole churny trajectories — peer
state, metrics, store invariants, cost cache and overlay must all come
out identical.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np
import pytest

from repro.p2p.config import SystemConfig
from repro.p2p.system import P2PSystem

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "properties")
)
from support import assert_same_peer_state  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "oracles"))
from slot import admit, process_departures_reference, remove  # noqa: E402


def churny_config(seed: int, **overrides) -> SystemConfig:
    return SystemConfig.tiny(
        seed=seed,
        arrival_rate_per_s=1.0,
        early_departure_prob=0.5,
        **overrides,
    )


def reference_churn_system(config: SystemConfig) -> P2PSystem:
    """A system forced onto the per-peer churn bookkeeping paths."""
    system = P2PSystem(config)
    system._process_departures = (
        lambda t, remove_finished: process_departures_reference(
            system, t, remove_finished
        )
    )
    store = system.store
    store.admit_batch = lambda peers: [admit(store, p) for p in peers]
    store.remove_batch = lambda peers: [remove(store, p) for p in peers]

    def full_dict_refill():
        # The historical refill pass: walk every online peer in id
        # order, skip seeds and non-deficient peers at visit time (the
        # overlay's deficient set is live — earlier bootstraps in the
        # same pass can refill later peers, whose tracker RNG draw must
        # then be skipped; the columnar pass must reproduce that exactly).
        deficient = system.overlay.deficient_nodes()
        for _, peer in sorted(system.peers.items()):
            if peer.is_seed or peer.peer_id not in deficient:
                continue
            candidates = [
                pid
                for pid in system.tracker.bootstrap_candidates(peer)
                if pid not in system.overlay.neighbors(peer.peer_id)
            ]
            system.overlay.bootstrap(peer.peer_id, candidates)

    system._refill_neighbors = full_dict_refill
    return system


class TestDepartureScan:
    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_scan_matches_reference_loop(self, seed):
        system = P2PSystem(churny_config(seed))
        system.populate_static(10)
        for _ in range(6):
            t = system.now
            expected = []
            for peer in system.peers.values():
                if peer.is_seed:
                    continue
                if peer.departure_time is not None and peer.departure_time <= t:
                    expected.append(peer.peer_id)
                elif peer.session is not None and peer.session.finished:
                    expected.append(peer.peer_id)
            assert system.store.departure_scan(t, True) == expected
            system.run_slot(churn=True, remove_finished=True)

    def test_scan_without_finished_removal(self):
        system = P2PSystem(churny_config(1))
        system.populate_static(8)
        system.run(30.0, churn=True, remove_finished=False)
        t = system.now
        expected = [
            p.peer_id
            for p in system.peers.values()
            if not p.is_seed
            and p.departure_time is not None
            and p.departure_time <= t
        ]
        assert system.store.departure_scan(t, False) == expected


class TestTrajectoryEquivalence:
    @pytest.mark.parametrize("seed", [2, 7, 11])
    def test_batched_equals_reference_run(self, seed):
        config = churny_config(seed)
        a = P2PSystem(config)
        a.populate_static(12)
        b = reference_churn_system(config)
        b.populate_static(12)
        ca = a.run(60.0, churn=True)
        cb = b.run(60.0, churn=True)
        assert ca.slots == cb.slots  # SlotMetrics are frozen dataclasses
        assert a.departures == b.departures
        assert a.arrivals == b.arrivals
        assert_same_peer_state(a, b)
        a.store.check_consistency(a.peers, tracker=a.tracker)
        b.store.check_consistency(b.peers, tracker=b.tracker)
        # One batched cache sweep evicts exactly what per-peer calls
        # did: same pairs, same costs.
        for col_a, col_b in zip(a.costs.cached_pairs(), b.costs.cached_pairs()):
            assert np.array_equal(col_a, col_b)
        # The refill passes ranked lists straight to bootstrap(); the
        # reference filtered out existing neighbors first.
        assert a.overlay.nodes() == b.overlay.nodes()
        for pid in a.overlay.nodes():
            assert a.overlay.neighbors(pid) == b.overlay.neighbors(pid), pid


class TestBatchedForget:
    def test_one_cache_sweep_per_departure_slot(self):
        system = P2PSystem(churny_config(3))
        system.populate_static(12)
        calls = []
        real_forget = system.costs.forget_peer

        def spy(*peer_ids):
            calls.append(peer_ids)
            return real_forget(*peer_ids)

        system.costs.forget_peer = spy
        batched_slots = 0
        for _ in range(12):
            before = set(system.peers)
            calls.clear()
            system.run_slot(churn=True, remove_finished=True)
            departed = before - set(system.peers)
            if not departed:
                assert calls == []
                continue
            assert len(calls) == 1
            assert sorted(calls[0]) == sorted(departed)
            batched_slots += len(departed) > 1
        assert batched_slots  # several peers left together at least once


class TestBatchStoreOps:
    def test_admit_batch_consistency(self):
        system = P2PSystem(SystemConfig.tiny(seed=4))
        system.populate_static(6)
        batch = [
            system._new_watcher(
                video_id=0,
                upload_multiple=2.0,
                start_position=0,
                start_time=system.now,
                departure_time=None,
            )
            for _ in range(4)
        ]
        system._admit_all(batch)  # one admit_batch call for the four
        system.store.check_consistency(system.peers, tracker=system.tracker)

    def test_admit_batch_empty_is_noop(self):
        system = P2PSystem(SystemConfig.tiny(seed=4))
        store = system.store
        online = store._online_ids
        members = {vid: g.member_ids for vid, g in store.groups.items()}
        store.admit_batch([])
        # Nothing merged: the same online ids and member tables.
        assert store._online_ids is online
        assert set(store.groups) == set(members)
        assert all(
            g.member_ids is members[vid] for vid, g in store.groups.items()
        )

    def test_remove_batch_consistency(self):
        system = P2PSystem(SystemConfig.tiny(seed=5))
        system.populate_static(9)
        victims = [p for p in system.peers.values() if not p.is_seed][:4]
        for peer in victims:
            del system.peers[peer.peer_id]
        system.store.remove_batch(victims)
        for peer in victims:
            system.tracker.unregister(peer)
            system.overlay.remove_node(peer.peer_id)
            system.topology.remove_peer(peer.peer_id)
            system.costs.forget_peer(peer.peer_id)
        system.store.check_consistency(system.peers, tracker=system.tracker)
        # Store columns shrank coherently.
        ids, caps = system.store.capacity_columns()
        assert len(ids) == len(system.peers)
        gone = [p.peer_id for p in victims]
        assert np.all(system.store._row_table[gone] == -1)
        assert np.all(system.topology.column()[gone] == -1)

    def test_remove_batch_unknown_peer_raises(self):
        system = P2PSystem(SystemConfig.tiny(seed=6))
        system.populate_static(4)
        peer = next(p for p in system.peers.values() if not p.is_seed)
        system.remove_peer(peer.peer_id)
        with pytest.raises(KeyError):
            system.store.remove_batch([peer])
