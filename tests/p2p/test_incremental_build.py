"""Unit tests for the cross-slot candidate splice behind ``build_problem``.

The property suite (``tests/properties/test_incremental_build_equiv.py``)
pins byte-identity with the cold oracle wholesale; these tests pin the
*mechanism*: which mutations make the next build re-read or drop
candidate segments (``PeerStateStore.splice_counts``), how retry
suppression deletes and restores request rows, that no problem or
drop-log entry outlives its use, and the bench-facing snapshot/restore
and log-compaction plumbing.
"""

from __future__ import annotations

import gc
import pathlib
import sys
import weakref

import numpy as np

from repro.net.linkmodel import LinkParams
from repro.p2p import state
from repro.p2p.config import SystemConfig
from repro.p2p.state import _CAND_LOG_LIMIT
from repro.p2p.system import P2PSystem

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "oracles"))
from assemble import build_problem_cold  # noqa: E402


def make_system(n_peers=20, slots=2, **overrides):
    config = SystemConfig.tiny(seed=7, **overrides)
    system = P2PSystem(config)
    system.populate_static(n_peers)
    for _ in range(slots):
        system.run_slot()
    return system


def assert_identical(a, b):
    """Byte-identity of two slot problems' flat CSR columns."""
    assert a.n_requests == b.n_requests
    assert a.n_edges() == b.n_edges()
    ac, bc = a.csr(), b.csr()
    assert np.array_equal(ac.uploaders, bc.uploaders)
    assert np.array_equal(ac.capacity, bc.capacity)
    assert np.array_equal(a.request_peer_array(), b.request_peer_array())
    if a.n_requests:
        assert np.array_equal(a.chunk_pair_array(), b.chunk_pair_array())
    assert np.array_equal(ac.indptr, bc.indptr)
    assert np.array_equal(ac.values, bc.values)
    assert np.array_equal(ac.uploader_index, bc.uploader_index)


def counted_build(system):
    """One ``build_problem`` at ``system.now`` and its splice counts."""
    before = dict(system.store.splice_counts)
    problem = system.build_problem(system.now)
    after = system.store.splice_counts
    return problem, {name: after[name] - before[name] for name in after}


def double_build(system):
    """Cold oracle vs the one build on the current state.

    Asserts the two problems are identical; returns the build's
    problem and splice counts.
    """
    cold = build_problem_cold(system, system.now)
    problem, counts = counted_build(system)
    assert_identical(cold, problem)
    return problem, counts


def has_row(problem, down, vid, chunk) -> bool:
    peers = problem.request_peer_array()
    pairs = problem.chunk_pair_array()
    hit = (peers == down) & (pairs[:, 0] == vid) & (pairs[:, 1] == chunk)
    return bool(hit.any())


class TestReasonCodes:
    """What invalidates a candidate segment, read off the splice counts."""

    def test_delivery_and_playback_marks(self):
        # Deliveries and playback move windows, not neighbor tables: a
        # steady slot leaves every cached segment valid.
        system = make_system(slots=1)
        double_build(system)
        system.run_slot()
        _, counts = double_build(system)
        assert counts["reused"] > 0
        assert counts["rebuilt"] == 0

    def test_admit_and_remove_marks(self):
        system = make_system()
        problem, _ = double_build(system)
        victim = int(problem.request_peer_array()[0])
        new_peer = system.add_watching_peer(video_id=0, upload_multiple=1.0)
        system.remove_peer(victim)
        problem, counts = double_build(system)
        requesters = set(problem.request_peer_array().tolist())
        assert new_peer.peer_id in requesters
        assert victim not in requesters
        assert counts["rebuilt"] > 0  # the newcomer and its neighbors
        assert counts["dropped"] > 0  # the victim's segment

    def test_capacity_marks(self):
        system = make_system()
        double_build(system)
        pid = next(pid for pid, p in system.peers.items() if not p.is_seed)
        system.set_upload_capacities({pid: 3})
        problem, counts = double_build(system)
        assert problem.capacity_of(pid) == 3
        # A budget change touches no candidate table.
        assert counts["rebuilt"] == 0 and counts["dropped"] == 0

    def test_candidate_drop_marks_on_overlay_churn(self):
        system = make_system()
        # Build once so candidate tables exist, then tear a peer out of
        # the overlay: its surviving neighbors' tables must be dropped.
        problem, _ = double_build(system)
        requesters = set(problem.request_peer_array().tolist())
        victim = next(
            pid for pid, p in system.peers.items()
            if not p.is_seed and set(system.overlay.neighbors(pid)) & requesters
        )
        system.remove_peer(victim)
        problem, counts = double_build(system)
        assert counts["rebuilt"] > 0, "overlay churn must re-read neighbor tables"
        assert victim not in set(problem.request_peer_array().tolist())

    def test_cost_shock_invalidates_wholesale(self):
        system = make_system()
        double_build(system)
        system.scale_inter_isp_costs(2.0)
        _, counts = double_build(system)
        assert counts["reused"] == 0 and counts["rebuilt"] > 0
        # The full rebuild installed fresh cost copies: the next build
        # splices forward again from the rebuilt caches.
        _, counts = double_build(system)
        assert counts["rebuilt"] == 0 and counts["reused"] > 0


class TestRetrySuppression:
    def _queue_one(self, system):
        """Park one real request triple in the retry queue."""
        problem = system.build_problem(system.now)
        assert problem.n_requests > 0
        peers = problem.request_peer_array()
        pairs = problem.chunk_pair_array()
        csr = problem.csr()
        row = 0
        down = int(peers[row])
        vid, chunk = int(pairs[row][0]), int(pairs[row][1])
        up = int(csr.uploaders[csr.uploader_index[csr.indptr[row]]])
        system.retry_queue.push_failed(
            np.array([down]), np.array([up]),
            np.array([vid]), np.array([chunk]),
            slot=system.slot_index,
        )
        return down, up, vid, chunk

    def test_suppress_marks_and_row_deletion(self):
        system = make_system()
        down, _, vid, chunk = self._queue_one(system)
        problem, counts = double_build(system)
        # The suppressed triple's row is deleted from the problem, and
        # no candidate segment had to be re-read for it.
        assert not has_row(problem, down, vid, chunk)
        assert counts["rebuilt"] == 0

    def test_surrender_reexposes_row(self):
        system = make_system()
        # Total loss on every pair, intra included (the bare call only
        # degrades the inter-ISP backbone): each retry attempt fails
        # until the TTL expires and the triple is surrendered.
        for isp in range(system.config.n_isps):
            system.set_link_conditions(LinkParams(loss_rate=1.0), isp_a=isp)
        down, _, vid, chunk = self._queue_one(system)
        problem, _ = double_build(system)
        assert not has_row(problem, down, vid, chunk)
        ttl = system.config.retry_ttl_slots
        for _ in range(ttl + 1):
            system.slot_index += 1
            system._process_retries(system.now)
        assert len(system.retry_queue) == 0, "TTL must surrender the triple"
        problem, _ = double_build(system)
        assert has_row(problem, down, vid, chunk), (
            "surrendered triple must re-enter the problem"
        )

    def test_retry_delivery_reexposes_via_mark(self):
        system = make_system()
        down, _, vid, chunk = self._queue_one(system)
        double_build(system)
        # Ideal links: the due re-attempt succeeds and drains the queue;
        # the triple stays out of the problem because the peer now holds
        # the chunk, not because anything still suppresses it.
        system.slot_index += system.config.retry_backoff_base_slots
        stats = system._process_retries(system.now)
        assert stats["succeeded"] >= 1
        assert len(system.retry_queue) == 0
        assert system.peers[down].buffer.holds(chunk)
        problem, _ = double_build(system)
        assert not has_row(problem, down, vid, chunk)


class TestSessionSync:
    def test_out_of_band_rewind_is_resynced(self):
        system = make_system()
        double_build(system)
        peer = next(p for p in system.peers.values() if p.session is not None)
        # Rewind the session object behind the store's back, as the
        # bench harness does between timing repeats.  Nothing needs to
        # be declared: every build resyncs from the sessions.
        peer.session._last_advance = max(
            0.0, peer.session._last_advance - system.config.slot_seconds
        )
        double_build(system)


class TestSnapshotRestore:
    def test_repeat_patches_identical(self):
        system = make_system()
        double_build(system)
        system.run_slot()
        snap = system.store.snapshot_delta_state()
        first, first_counts = double_build(system)
        for _ in range(3):
            system.store.restore_delta_state(snap)
            again, counts = counted_build(system)
            assert_identical(first, again)
            assert counts == first_counts


class TestCandLogCompaction:
    def test_trim_rebases_and_drops_laggards(self):
        system = make_system()
        double_build(system)  # caches exist at log position 0
        store = system.store
        store._cand_log.extend(range(_CAND_LOG_LIMIT + 10))
        store._trim_cand_log()
        assert len(store._cand_log) <= _CAND_LOG_LIMIT
        # Every surviving cache either kept pace (cursor rebased into
        # range) or was dropped rather than pinning the log.
        for group in store.groups.values():
            cache = group._cand_cache
            if cache is not None:
                assert 0 <= cache.log_pos <= len(store._cand_log)
        # The pipeline recovers: next build rebuilds dropped caches.
        system.run_slot()
        double_build(system)


class TestRetention:
    def test_no_problem_outlives_its_slot(self):
        system = make_system(slots=0, bid_rounds_per_slot=2)
        seen = []
        schedule = system.scheduler.schedule

        def recording(problem, *args, **kwargs):
            seen.append(weakref.ref(problem))
            return schedule(problem, *args, **kwargs)

        system.scheduler.schedule = recording
        for slot in range(3):
            system.run_slot()
            gc.collect()
            assert len(seen) == 2 * (slot + 1)
            assert all(ref() is None for ref in seen), f"slot {slot}"

    def test_drop_log_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(state, "_CAND_LOG_LIMIT", 16)
        config = SystemConfig.tiny(
            seed=5, arrival_rate_per_s=1.0, early_departure_prob=0.5
        )
        system = P2PSystem(config)
        system.populate_static(30)
        for _ in range(8):
            system.run_slot(churn=True, remove_finished=True)
            assert len(system.store._cand_log) <= 16
        # Enough churn to overflow the limit several times over.
        assert system.departures > 16
