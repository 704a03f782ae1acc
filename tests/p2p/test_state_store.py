"""Regression tests for the persistent peer-state store.

The store keeps columnar state alive across slots, so every mutation
path — admit, remove, churn departure, transfer, neighbor refill,
direct session pokes — must keep it right.  Each test mutates through
one path and asserts the store still matches the peers dict
(:meth:`PeerStateStore.check_consistency` compares the online ids,
member tables, the candidate-table pool, row bindings and the values
written at admission); :class:`TestConsistencyCheckFires` pins that
each of those checks catches a drift.  The store's columns are the
only copy of an online peer's playback, capacity and transfer state:
:class:`TestColumnsOwnPeerState` pins that the objects read and write
them.  Membership is recorded once, by id, and read back in ascending
id order (:class:`TestOneRecordOfMembership`).
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np
import pytest

from repro.net.costs import CostModel
from repro.net.isp import ISPTopology
from repro.net.topology import OverlayGraph
from repro.p2p.config import SystemConfig
from repro.p2p.peer import Peer
from repro.p2p.state import PeerStateStore
from repro.p2p.system import P2PSystem
from repro.vod.buffer import ChunkBuffer, PeerRow
from repro.vod.playback import PlaybackSession
from repro.vod.video import Video

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "oracles"))
from slot import build_problem_reference  # noqa: E402


def build_system(n_peers=20, **overrides):
    system = P2PSystem(SystemConfig.tiny(seed=42, **overrides))
    system.populate_static(n_peers)
    return system


def store_row(system, peer):
    """``(bucket, row)`` the store records for an online ``peer``."""
    store = system.store
    bucket = store.groups[peer.video.video_id].bucket
    return bucket, int(store._row_table[peer.peer_id])


class TestMembershipPaths:
    def test_admit_updates_columns_and_versions(self):
        system = build_system(5)
        peer = system.add_watching_peer(video_id=0, upload_multiple=2.0)
        ids, caps = system.store.capacity_columns()
        assert ids[-1] == peer.peer_id
        assert caps[-1] == peer.upload_capacity_chunks
        assert system.topology.column()[peer.peer_id] == peer.isp
        assert store_row(system, peer) == (peer.peer_row.cols, peer.peer_row.row)
        assert peer.buffer.mask.base is not None  # bound into the matrix
        system.store.check_consistency(system.peers)

    def test_remove_frees_row_and_drops_caches(self):
        system = build_system(8)
        system.build_problem(system.now)  # build candidate tables
        store = system.store
        victim = next(
            p for p in system.peers.values()
            if not p.is_seed and store._table_count[p.peer_id] > 0
        )
        pid = victim.peer_id
        group = store.groups[victim.video.video_id]
        _, row = store_row(system, victim)
        live = store._pool_live
        edges = int(store._table_count[pid])
        system.remove_peer(pid)
        assert store._table_count[pid] == -1  # its table is dropped
        assert store._pool_live == live - edges
        assert system.topology.column()[pid] == -1
        assert system.store._row_table[pid] == -1
        assert pid not in group.member_ids.tolist()
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
        bucket, row = store_row(system, victim)
        system.remove_peer(victim.peer_id)
        newcomer = system.add_watching_peer(video_id=vid, upload_multiple=1.5)
        assert store_row(system, newcomer) == (bucket, row)  # freed row reused
        newcomer.buffer.add(3)
        assert bucket.masks[row, 3]
        system.store.check_consistency(system.peers)

    def test_churn_departures_keep_store_consistent(self):
        system = build_system(
            15, arrival_rate_per_s=1.0, early_departure_prob=0.6
        )
        for _ in range(8):
            system.run_slot(churn=True, remove_finished=True)
            system.store.check_consistency(system.peers, system.tracker)
        assert system.departures > 0 and system.arrivals > 0

    def test_bucket_growth_rebinds_every_buffer(self):
        system = build_system(3)
        # Admissions beyond the initial row capacity force matrix growth.
        for _ in range(30):
            system.add_watching_peer(video_id=0, upload_multiple=1.0)
        group = system.store.groups[0]
        for pid in group.member_ids.tolist():
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
            bucket, row = store_row(system, peer)
            assert np.array_equal(
                bucket.masks[row, : peer.video.n_chunks], peer.buffer.mask
            ), peer.peer_id
        system.store.check_consistency(system.peers)


class TestHolds:
    def test_column_read_equals_the_buffers(self):
        """Random pairs over seeds, watchers and a second bucket."""
        system = build_system(12)
        system.run(20.0)
        odd_video = Video(
            video_id=999,
            n_chunks=77,  # different chunk count → second StateBucket
            chunk_size_bytes=system.catalog[0].chunk_size_bytes,
            bitrate_bps=system.catalog[0].bitrate_bps,
        )
        odd = _craft_peer(system, max(system.peers) + 1, odd_video)
        system._admit(odd)
        odd.buffer.fill_range(10, 50)
        assert len(system.store.buckets) == 2
        rng = np.random.default_rng(0)
        ids = rng.choice(np.array(sorted(system.peers)), size=3000)
        chunks = rng.integers(-3, 90, size=3000)
        got = system.store.holds(ids, chunks)
        want = [
            system.peers[int(p)].buffer.holds(int(c)) for p, c in zip(ids, chunks)
        ]
        assert got.tolist() == want
        assert got.any() and not got.all()
        assert odd.peer_id in ids
        assert any(system.peers[int(p)].is_seed for p in ids)

    def test_departed_id_raises(self):
        system = build_system(8)
        victim = next(pid for pid, p in system.peers.items() if not p.is_seed)
        system.remove_peer(victim)
        with pytest.raises(KeyError):
            system.store.holds(np.array([victim]), np.array([0]))
        with pytest.raises(KeyError):
            system.store.holds(np.array([-1]), np.array([0]))


class TestNeighborRefill:
    def test_link_change_invalidates_candidate_entries(self):
        system = build_system(12)
        system.build_problem(system.now)  # build candidate tables
        store = system.store
        watcher = next(
            p
            for p in system.peers.values()
            if p.watching and store._table_count[p.peer_id] > 0
        )
        pid = watcher.peer_id
        neighbor = int(store._pool_ids[store._table_start[pid]])
        system.overlay.disconnect(pid, neighbor)
        dropped = store.table_counts["dropped"]
        system.build_problem(system.now)  # drains the dirty set
        assert store.table_counts["dropped"] >= dropped + 1
        count = int(store._table_count[pid])
        if count >= 0:  # rebuilt only if the peer is active
            start = int(store._table_start[pid])
            assert neighbor not in store._pool_ids[start : start + count].tolist()

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
        ref, _ = build_problem_reference(system, system.now)
        new = system.build_problem(system.now)
        assert ref.n_edges() == new.n_edges()

    def test_refill_skips_scan_when_nobody_deficient(self):
        system = build_system(4)
        def needy():
            return {
                pid
                for pid in system.overlay.deficient_nodes()
                if not system.peers[pid].is_seed
            }

        # Force everyone (incl. seeds) to the degree target by shrinking it.
        if needy():
            system._refill_neighbors()
        calls = []
        original = system.tracker.bootstrap_candidates
        system.tracker.bootstrap_candidates = lambda p: calls.append(p) or original(p)
        if not needy():
            system._refill_neighbors()
            assert calls == []  # O(1) fast path: no tracker queries


class TestColumnsOwnPeerState:
    """Position, played, last advance, missed, held count and counters."""

    @staticmethod
    def watcher(system):
        peer = next(p for p in system.peers.values() if p.watching)
        return (peer,) + store_row(system, peer)

    def test_column_writes_are_what_the_objects_read(self):
        system = build_system(10)
        system.run_slot()
        peer, bucket, row = self.watcher(system)
        store, pid = system.store, peer.peer_id
        bucket.position[row] = 7
        bucket.played[row] = 5
        bucket.last_advance[row] = 12.5
        bucket.missed[row] = False
        bucket.missed[row, [2, 4]] = True
        store.downloaded[pid] = 9
        store.uploaded[pid] = 11
        store.first_delivery[pid] = 3.0
        session = peer.session
        assert session.position == 7
        assert session.played == 5
        assert session._last_advance == 12.5
        assert session.missed == {2, 4}
        assert peer.chunks_downloaded == 9
        assert peer.chunks_uploaded == 11
        assert peer.first_delivery_time == 3.0
        store.first_delivery[pid] = np.nan
        assert peer.first_delivery_time is None

    def test_object_writes_land_in_the_columns(self):
        system = build_system(10)
        system.run_slot()
        peer, bucket, row = self.watcher(system)
        store, pid = system.store, peer.peer_id
        session = peer.session
        session.position = 8
        session.played = 6
        session._last_advance = 13.0
        session.missed = {1, 3}
        peer.chunks_downloaded = 4
        peer.chunks_uploaded = 2
        peer.first_delivery_time = 1.5
        assert bucket.position[row] == 8
        assert bucket.played[row] == 6
        assert bucket.last_advance[row] == 13.0
        assert np.flatnonzero(bucket.missed[row]).tolist() == [1, 3]
        assert store.downloaded[pid] == 4
        assert store.uploaded[pid] == 2
        assert store.first_delivery[pid] == 1.5
        peer.first_delivery_time = None
        assert np.isnan(store.first_delivery[pid])
        system.store.check_consistency(system.peers, system.tracker)

    def test_held_count_reads_the_bitmap(self):
        system = build_system(10)
        system.run_slot()
        peer, bucket, row = self.watcher(system)
        n = peer.video.n_chunks
        before = len(peer.buffer)
        gap = int(np.flatnonzero(~bucket.masks[row, :n])[0])
        bucket.masks[row, gap] = True
        assert len(peer.buffer) == before + 1
        assert peer.buffer.completion() == (before + 1) / n
        assert peer.buffer.holds(gap)

    def test_departed_peer_keeps_its_values_and_its_row_reads_zero(self):
        system = build_system(15)
        system.run(30.0)
        peer = next(
            p
            for p in system.peers.values()
            if p.session is not None and p.chunks_downloaded and p.chunks_uploaded
        )
        peer.session.missed = peer.session.missed | {0}
        store, pid = system.store, peer.peer_id
        bucket, row = store_row(system, peer)
        session = peer.session

        def values():
            return (
                session.position,
                session.played,
                session._last_advance,
                session.missed,
                len(peer.buffer),
                peer.buffer.mask.tolist(),
                peer.chunks_downloaded,
                peer.chunks_uploaded,
                peer.first_delivery_time,
            )

        before = values()
        system.remove_peer(pid)
        assert values() == before
        assert store._row_table[pid] == -1
        assert peer.peer_row.cols is not bucket
        assert not bucket.masks[row].any()
        assert not bucket.missed[row].any()
        assert bucket.position[row] == 0
        assert bucket.played[row] == 0
        assert bucket.last_advance[row] == 0.0
        assert store.downloaded[pid] == 0
        assert store.uploaded[pid] == 0
        assert np.isnan(store.first_delivery[pid])
        # The departed objects now write their own copy, not the row.
        session.position += 1
        peer.chunks_uploaded += 1
        assert bucket.position[row] == 0
        assert store.uploaded[pid] == 0


class TestOutOfBandMutation:
    def test_direct_session_advance_is_seen_by_the_build(self):
        """A session advanced around the batched path (tests, benchmarks)."""
        system = build_system(15)
        system.run_slot()
        watcher = next(p for p in system.peers.values() if p.watching)
        # Advance one session directly: it writes the store's columns.
        watcher.session.advance_to(system.now + 3.0)
        ref, _ = build_problem_reference(system, system.now + 3.0)
        new = system.build_problem(system.now + 3.0)
        assert ref.n_requests == new.n_requests
        bucket, row = store_row(system, watcher)
        assert bucket.position[row] == watcher.session.position
        system.store.check_consistency(system.peers)

    def test_snapshot_restore_style_pokes_are_seen_by_the_advance(self):
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
        # The next batched advance reads the restored state.
        due, missed_n = system._advance_playback(system.now + 5.0)
        twin = build_system(15)
        twin.run(30.0)
        due_t, missed_t = twin._advance_playback(twin.now + 5.0)
        assert (due, missed_n) == (due_t, missed_t)
        system.store.check_consistency(system.peers)


class TestVersionCounters:
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


class TestOneRecordOfMembership:
    def test_capacity_write_reaches_the_next_build(self):
        """A peer's capacity is the store's entry: no resync call."""
        system = build_system(10)
        peer = next(p for p in system.peers.values() if not p.is_seed)
        new_cap = peer.upload_capacity_chunks + 5
        peer.upload_capacity_chunks = new_cap
        problem = system.build_problem(system.now)
        assert problem.capacity_of(peer.peer_id) == new_cap
        system.store.check_consistency(system.peers, system.tracker)

    def test_out_of_order_admission_reads_back_in_id_order(self):
        """Ids admitted as 7 and 3, then 5, come back as 3, 5, 7."""
        store = PeerStateStore(
            OverlayGraph(),
            CostModel(ISPTopology(1), np.random.default_rng(0)),
            window=10,
        )
        video = Video(
            video_id=0, n_chunks=50, chunk_size_bytes=1000, bitrate_bps=8000
        )

        def leaver(pid):
            buffer = ChunkBuffer(video)
            session = PlaybackSession(video, buffer, start_time=0.0)
            return Peer(
                pid, 0, video, 10 * pid, buffer,
                session=session, departure_time=1.0,
            )

        store.admit_batch([leaver(7), leaver(3)])
        store.admit_batch([leaver(5)])
        ids, caps = store.capacity_columns()
        assert ids.tolist() == [3, 5, 7]
        assert caps.tolist() == [30, 50, 70]
        assert store.departure_scan(2.0, remove_finished=False) == [3, 5, 7]


class TestConsistencyCheckFires:
    """Each check of ``check_consistency`` catches a hand-made drift."""

    @staticmethod
    def two_watchers(system):
        return [p for p in system.peers.values() if not p.is_seed][:2]

    def assert_fires(self, system, match):
        with pytest.raises(AssertionError, match=match):
            system.store.check_consistency(system.peers, system.tracker)

    def test_row_table_entry_disagreeing_with_the_handle(self):
        system = build_system(8)
        a, b = self.two_watchers(system)
        table = system.store._row_table
        table[a.peer_id] = table[b.peer_id]
        self.assert_fires(system, f"peer {a.peer_id} is not bound to its row")

    def test_wrong_bucket_peer_ids_entry(self):
        system = build_system(8)
        a, b = self.two_watchers(system)
        bucket, row = store_row(system, a)
        bucket.peer_ids[row] = b.peer_id
        self.assert_fires(system, f"holds peer {b.peer_id}, not {a.peer_id}")

    def test_online_ids_out_of_step_with_peers(self):
        system = build_system(8)
        system.store._online_ids = system.store._online_ids[:-1]
        self.assert_fires(system, "online ids drifted from peers")

    def test_member_table_out_of_step_with_peers(self):
        system = build_system(8)
        a, _ = self.two_watchers(system)
        group = system.store.groups[a.video.video_id]
        group.member_ids = group.member_ids[group.member_ids != a.peer_id]
        self.assert_fires(system, "member table of video")

    def test_tracker_member_the_store_lacks(self):
        system = build_system(8)
        stranger = _craft_peer(system, max(system.peers) + 1, system.catalog[0])
        system.tracker.register(stranger)
        self.assert_fires(system, "store/tracker membership drifted for video 0")

    def test_tracker_member_of_a_video_the_store_lacks(self):
        system = build_system(8)
        video = Video(
            video_id=999,
            n_chunks=77,
            chunk_size_bytes=system.catalog[0].chunk_size_bytes,
            bitrate_bps=system.catalog[0].bitrate_bps,
        )
        system.tracker.register(_craft_peer(system, max(system.peers) + 1, video))
        self.assert_fires(system, "tracker holds peers the store lacks")

    def test_bucket_key_drift(self):
        system = build_system(8)
        a, _ = self.two_watchers(system)
        system.store._bucket_key[a.peer_id] += 1
        self.assert_fires(system, f"bucket key of peer {a.peer_id} drifted")

    def test_session_on_another_handle(self):
        system = build_system(8)
        a, _ = self.two_watchers(system)
        a.session.peer_row = PeerRow(a.video.n_chunks)
        self.assert_fires(system, f"peer {a.peer_id}'s buffer or session")

    @staticmethod
    def table_holder(system):
        """Build once; a peer that then holds a non-empty table."""
        system.build_problem(system.now)
        counts = system.store._table_count
        return next(pid for pid in system.peers if counts[pid] > 0)

    def test_offline_id_holding_a_table(self):
        system = build_system(8)
        self.table_holder(system)
        system.store._table_count[max(system.peers) + 1] = 0
        self.assert_fires(system, "an offline id holds a candidate table")

    def test_span_outside_the_pool(self):
        system = build_system(8)
        pid = self.table_holder(system)
        system.store._table_start[pid] = len(system.store._pool_ids)
        self.assert_fires(system, "span leaves the pool")

    def test_live_count_drift(self):
        system = build_system(8)
        self.table_holder(system)
        system.store._pool_live += 1
        self.assert_fires(system, "live count drifted")

    @pytest.mark.parametrize(
        "column, value, what",
        [
            ("_seed_table", True, "seed flag"),
            ("_departure_table", 0.5, "departure time"),
        ],
    )
    def test_admission_value_drift(self, column, value, what):
        system = build_system(8)
        a, _ = self.two_watchers(system)
        getattr(system.store, column)[a.peer_id] = value
        self.assert_fires(system, f"{what} of peer {a.peer_id} drifted")


class TestReviewRegressions:
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

