"""Staleness regression tests for the persistent peer-state store.

The store keeps columnar state alive across slots, so every mutation
path — admit, remove, churn departure, transfer, neighbor refill,
out-of-band session pokes — must invalidate or resync the right
version-keyed caches.  Each test mutates through one official path and
asserts the store converges back to the authoritative object graph
(:meth:`PeerStateStore.check_consistency` compares membership tables,
row bindings, capacity/ISP columns and missed bitmaps).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.p2p.config import SystemConfig
from repro.p2p.system import P2PSystem


def build_system(n_peers=20, **overrides):
    system = P2PSystem(SystemConfig.tiny(seed=42, **overrides))
    system.populate_static(n_peers)
    return system


class TestMembershipPaths:
    def test_admit_updates_columns_and_versions(self):
        system = build_system(5)
        before = system.store.membership_version
        peer = system.add_watching_peer(video_id=0, upload_multiple=2.0)
        assert system.store.membership_version > before
        ids, caps = system.store.capacity_columns()
        assert ids[-1] == peer.peer_id
        assert caps[-1] == peer.upload_capacity_chunks
        assert system.store.isp_table()[peer.peer_id] == peer.isp
        assert peer.state_group is system.store.groups[0]
        assert peer.buffer.mask.base is not None  # bound into the matrix
        system.store.check_consistency(system.peers)

    def test_remove_frees_row_and_drops_caches(self):
        system = build_system(8)
        system.build_problem(system.now)  # populate candidate entries
        victim = next(p for p in system.peers.values() if not p.is_seed)
        pid = victim.peer_id
        row = victim.state_row
        group = victim.state_group
        epoch = system.store.candidate_epoch
        system.remove_peer(pid)
        assert pid not in system.store._cand
        assert system.store.candidate_epoch > epoch
        assert system.store.isp_table()[pid] == -1
        assert pid not in group.row_of
        assert row in group.bucket.free_rows
        assert not group.bucket.masks[row].any()  # zeroed for reuse
        # The departed peer keeps a private copy of its buffer.
        assert victim.buffer.mask.base is not group.bucket.masks
        ids, _ = system.store.capacity_columns()
        assert pid not in ids.tolist()
        system.store.check_consistency(system.peers)

    def test_row_recycling_rebinds_new_peer(self):
        system = build_system(6)
        victim = next(p for p in system.peers.values() if not p.is_seed)
        vid = victim.video.video_id
        row = victim.state_row
        system.remove_peer(victim.peer_id)
        newcomer = system.add_watching_peer(video_id=vid, upload_multiple=1.5)
        assert newcomer.state_row == row  # freed row reused
        newcomer.buffer.add(3)
        assert newcomer.state_group.bucket.masks[row, 3]
        system.store.check_consistency(system.peers)

    def test_churn_departures_keep_store_consistent(self):
        system = build_system(
            15, arrival_rate_per_s=1.0, early_departure_prob=0.6
        )
        versions = [system.tracker.version]
        for _ in range(8):
            system.run_slot(churn=True, remove_finished=True)
            system.store.check_consistency(system.peers, system.tracker)
            versions.append(system.tracker.version)
        assert system.departures > 0 and system.arrivals > 0
        assert versions[-1] > versions[0]  # tracker versioning advanced

    def test_bucket_growth_rebinds_every_buffer(self):
        system = build_system(3)
        # Admissions beyond the initial row capacity force matrix growth.
        for _ in range(30):
            system.add_watching_peer(video_id=0, upload_multiple=1.0)
        group = system.store.groups[0]
        for pid in group.row_of:
            peer = system.peers[pid]
            mask = peer.buffer.mask
            assert mask.base is group.bucket.masks or mask.base is group.bucket.masks.base
        system.store.check_consistency(system.peers)


class TestTransferPath:
    def test_transfers_write_through_to_matrix(self):
        system = build_system(20)
        system.run_slot()
        problem = system.build_problem(system.now)
        result = system.scheduler.schedule(problem)
        system._apply_transfers(problem, result)
        for peer in system.peers.values():
            row = peer.state_row
            bucket = peer.state_group.bucket
            assert np.array_equal(
                bucket.masks[row, : peer.video.n_chunks], peer.buffer.mask
            ), peer.peer_id
        system.store.check_consistency(system.peers)


class TestNeighborRefill:
    def test_link_change_invalidates_candidate_entries(self):
        system = build_system(12)
        system.build_problem(system.now)  # build + cache entries
        watcher = next(
            p
            for p in system.peers.values()
            if p.watching and p.peer_id in system.store._cand
        )
        pid = watcher.peer_id
        neighbor = next(iter(system.overlay.neighbors(pid)))
        old_entry = system.store._cand[pid]
        epoch = system.store.candidate_epoch
        system.overlay.disconnect(pid, neighbor)
        system.build_problem(system.now)  # drains the dirty set
        assert system.store.candidate_epoch > epoch
        entry = system.store._cand.get(pid)
        if entry is not None:  # rebuilt lazily only if the peer requests
            assert neighbor not in entry[1].tolist()
            assert entry is not old_entry

    def test_refill_reconnects_and_store_sees_new_candidates(self):
        system = build_system(12)
        system.build_problem(system.now)
        watcher = next(p for p in system.peers.values() if p.watching)
        pid = watcher.peer_id
        for nb in list(system.overlay.neighbors(pid)):
            system.overlay.disconnect(pid, nb)
        assert system.overlay.wants_more(pid)
        assert pid in system.overlay.deficient_nodes()
        system._refill_neighbors()
        assert system.overlay.degree(pid) > 0
        # Equivalence after the refill: the rebuilt candidate tables
        # must match the reference construction exactly.
        ref, _ = system.build_problem_reference(system.now)
        new = system.build_problem(system.now)
        assert ref.n_edges() == new.n_edges()

    def test_refill_skips_scan_when_nobody_deficient(self):
        system = build_system(4)
        # Force everyone (incl. seeds) to the degree target by shrinking it.
        deficient = system.overlay.deficient_nodes() - system.store.seed_ids
        if deficient:
            system._refill_neighbors()
        calls = []
        original = system.tracker.bootstrap_candidates
        system.tracker.bootstrap_candidates = lambda p: calls.append(p) or original(p)
        if not (system.overlay.deficient_nodes() - system.store.seed_ids):
            system._refill_neighbors()
            assert calls == []  # O(1) fast path: no tracker queries


class TestOutOfBandMutation:
    def test_direct_session_advance_is_resynced(self):
        """State mutated around the store (tests, benchmarks) is detected."""
        system = build_system(15)
        system.run_slot()
        watcher = next(p for p in system.peers.values() if p.watching)
        # Advance one session directly — the store column goes stale.
        watcher.session.advance_to(system.now + 3.0)
        ref, _ = system.build_problem_reference(system.now + 3.0)
        new = system.build_problem(system.now + 3.0)
        assert ref.n_requests == new.n_requests
        bucket = watcher.state_group.bucket
        assert bucket.position[watcher.state_row] == watcher.session.position
        system.store.check_consistency(system.peers)

    def test_snapshot_restore_style_pokes_are_resynced(self):
        system = build_system(15)
        system.run(30.0)
        snap = {
            pid: (
                p.session.position,
                p.session.played,
                set(p.session.missed),
                p.session._last_advance,
            )
            for pid, p in system.peers.items()
            if p.session is not None
        }
        system._advance_playback(system.now + 5.0)
        for pid, (pos, played, missed, last) in snap.items():
            s = system.peers[pid].session
            s.position = pos
            s.played = played
            s.missed = set(missed)
            s._last_advance = last
        # The next batched advance must resync, not trust stale columns.
        due, missed_n = system._advance_playback(system.now + 5.0)
        twin = build_system(15)
        twin.run(30.0)
        due_t, missed_t = twin._advance_playback(twin.now + 5.0)
        assert (due, missed_n) == (due_t, missed_t)
        system.store.check_consistency(system.peers)


class TestVersionCounters:
    def test_membership_version_monotone_over_churn(self):
        system = build_system(10, arrival_rate_per_s=0.8, early_departure_prob=0.5)
        seen = [system.store.membership_version]
        for _ in range(5):
            system.run_slot(churn=True, remove_finished=True)
            seen.append(system.store.membership_version)
        assert seen == sorted(seen)

    def test_overlay_dirty_set_drained_by_build(self):
        system = build_system(8)
        system.build_problem(system.now)
        assert not system.overlay._dirty  # drained
        a, b = list(system.peers)[:2]
        system.overlay.disconnect(a, b)
        assert {a, b} <= system.overlay._dirty
        system.build_problem(system.now)
        assert not system.overlay._dirty


def _craft_peer(system, peer_id, video, start_time=None):
    """Hand-build a watcher Peer (bypassing the id counter) for _admit."""
    from repro.p2p.peer import Peer
    from repro.vod.buffer import ChunkBuffer
    from repro.vod.playback import PlaybackSession

    buffer = ChunkBuffer(video)
    session = PlaybackSession(
        video=video,
        buffer=buffer,
        start_time=system.now if start_time is None else start_time,
    )
    return Peer(
        peer_id=peer_id,
        isp=-1,
        video=video,
        upload_capacity_chunks=10,
        buffer=buffer,
        session=session,
        joined_at=system.now,
    )


class TestReviewRegressions:
    def test_non_monotone_admission_keeps_reference_request_order(self):
        """An out-of-order peer id must not break dict-order requests."""
        system = build_system(10)
        system.run(20.0)
        victim = next(p for p in system.peers.values() if not p.is_seed)
        freed_id = victim.peer_id
        system.remove_peer(freed_id)
        # Re-admitting a *smaller* id than the newest peer makes the
        # peers dict order diverge from ascending-id order.
        peer = _craft_peer(system, freed_id, system.catalog[0])
        system._admit(peer)
        assert not system.store._ids_monotone
        system.run(20.0)
        ref, ref_owner = system.build_problem_reference(system.now)
        new = system.build_problem(system.now)
        assert ref_owner == dict(enumerate(new.request_peer_array().tolist()))
        import numpy as np

        assert np.array_equal(
            ref.request_peer_array(), new.request_peer_array()
        )
        assert ref.uploaders() == new.uploaders()
        system.store.check_consistency(system.peers, system.tracker)

    def test_last_advance_rewind_at_same_position_does_not_raise(self):
        """Benchmark-style _last_advance rewinds must not trip the guard."""
        system = build_system(12)
        system.run(20.0)
        t = system.now
        assert system._advance_playback(t + 0.001) == (0, 0)
        for p in system.peers.values():
            if p.session is not None:
                p.session._last_advance = t  # positions unchanged
        # The reference loop would advance fine; so must the batch.
        assert system._advance_playback(t + 0.0005) == (0, 0)

    def test_backwards_time_raises_before_any_bucket_advances(self):
        """Multi-bucket systems must validate all buckets up front."""
        from repro.vod.video import Video

        system = build_system(8)
        system.run(10.0)
        odd_video = Video(
            video_id=999,
            n_chunks=77,  # different chunk count → second StateBucket
            chunk_size_bytes=system.catalog[0].chunk_size_bytes,
            bitrate_bps=system.catalog[0].bitrate_bps,
        )
        odd = _craft_peer(
            system, max(system.peers) + 1, odd_video, start_time=system.now
        )
        system._admit(odd)
        assert len(system.store.buckets) == 2
        t = system.now
        system._advance_playback(t + 2.0)
        # Push only the odd session further ahead.
        odd.session.advance_to(t + 6.0)
        positions = {
            pid: p.session.position
            for pid, p in system.peers.items()
            if p.session is not None
        }
        with pytest.raises(ValueError, match="time went backwards"):
            system._advance_playback(t + 4.0)
        after = {
            pid: p.session.position
            for pid, p in system.peers.items()
            if p.session is not None
        }
        assert positions == after  # nothing advanced, in either bucket

