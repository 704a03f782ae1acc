"""Unit tests for the candidate tables behind ``build_problem``.

The property suite (``tests/properties/test_incremental_build_equiv.py``)
pins byte-identity with the cold oracle wholesale; these tests pin the
*mechanism*: which mutations make the next build make or drop candidate
tables (``PeerStateStore.table_counts``), how a pending retry keeps its
request row out of the problem until it is surrendered or delivered,
that a repeated build on unchanged state is identical, and that no
problem and no dead pool span outlives its use.
"""

from __future__ import annotations

import gc
import itertools
import pathlib
import sys
import weakref

import numpy as np

from repro.net.linkmodel import LinkParams
from repro.obs import MemoryTraceSink
from repro.p2p.config import SystemConfig
from repro.p2p.state import _PACKED_WINDOW_MAX
from repro.p2p.system import P2PSystem

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "oracles"))
from assemble import build_problem_cold, triple_key  # noqa: E402


#: Pool edges the bound allows beyond twice the live ones, so the test
#: pins the pool's size, not the compaction trigger's exact threshold.
POOL_SLACK = 16


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
    """One ``build_problem`` at ``system.now`` and its table counts."""
    before = dict(system.store.table_counts)
    problem = system.build_problem(system.now)
    after = system.store.table_counts
    return problem, {name: after[name] - before[name] for name in after}


def double_build(system):
    """The one build vs the cold oracle on the current state.

    Asserts the two problems are identical; returns the build's
    problem and table counts.  The build goes first, so its counts
    include every table the state lacks.
    """
    problem, counts = counted_build(system)
    assert_identical(build_problem_cold(system, system.now), problem)
    return problem, counts


def has_table(system, pid) -> bool:
    return bool(system.store._table_count[pid] >= 0)


def record_table_builds(system):
    """Every table build from now on, with the cost calls it made.

    One ``(ids, counts, dsts)`` entry per build: the ids whose tables it
    made, their sizes, and the destinations of each ``costs_for_pairs``
    call made inside it.
    """
    builds = []
    store = system.store
    build_tables = store._build_tables
    lookup = system.costs.costs_for_pairs

    def recording_build(need):
        calls = []
        builds.append((need.tolist(), None, calls))
        build_tables(need)
        builds[-1] = (need.tolist(), store._table_count[need].tolist(), calls)

    def recording_lookup(sources, dsts):
        builds[-1][2].append(np.broadcast_to(dsts, np.shape(sources)).tolist())
        return lookup(sources, dsts)

    store._build_tables = recording_build
    system.costs.costs_for_pairs = recording_lookup
    return builds


def has_row(problem, down, vid, chunk) -> bool:
    peers = problem.request_peer_array()
    pairs = problem.chunk_pair_array()
    hit = (peers == down) & (pairs[:, 0] == vid) & (pairs[:, 1] == chunk)
    return bool(hit.any())


class TestReasonCodes:
    """What drops or makes a candidate table, read off the table counts."""

    def test_delivery_and_playback_marks(self):
        # Deliveries and playback move windows, not neighbor tables: a
        # steady slot keeps every table.
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
        assert counts["dropped"] > 0  # the victim's table

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
        # The rebuilt tables hold the new costs: the next build keeps
        # them all.
        _, counts = double_build(system)
        assert counts["rebuilt"] == 0 and counts["reused"] > 0

    def test_departure_drops_its_table_and_its_neighbours(self):
        system = make_system()
        system.build_problem(system.now)
        victim = next(
            pid for pid, p in system.peers.items()
            if not p.is_seed
            and has_table(system, pid)
            and any(has_table(system, nb) for nb in system.overlay.neighbors(pid))
        )
        holders = sum(
            has_table(system, nb) for nb in system.overlay.neighbors(victim)
        )
        system.remove_peer(victim)
        _, counts = counted_build(system)
        # Its own table at the departure, its ex-neighbours' at the
        # build (their links changed).
        assert counts["dropped"] == 1 + holders


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
        # The pending triple's row is left out of the problem, and no
        # candidate table had to be made for it.
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

    def test_request_keys_strictly_ascend(self):
        """The assembler's request order: no request repeats.

        Requests come out in ascending (peer, chunk) order, and a peer
        watches one video, so the packed (peer, video, chunk) keys
        strictly ascend, here over three videos and churn.
        """
        config = SystemConfig.tiny(
            seed=3, n_videos=3, arrival_rate_per_s=1.0, early_departure_prob=0.4
        )
        system = P2PSystem(config)
        system.populate_static(24)
        checked = 0
        for _ in range(4):
            parts = system.store.assemble_requests(system.now, system.valuation)
            if parts is not None:
                peers, pairs = parts[0], parts[1]
                keys = triple_key(peers, pairs[:, 0], pairs[:, 1])
                assert (np.diff(keys) > 0).all()
                checked += len(keys)
            system.run_slot(churn=True, remove_finished=True)
        assert checked > 0

    def test_suppression_matches_a_set_lookup(self):
        """The build leaves out exactly the requests a set lookup drops.

        At a packed window (the word branch of the assembler's mask) and
        at a wide one (the boolean branch).
        """
        for window in (_PACKED_WINDOW_MAX, _PACKED_WINDOW_MAX + 3):
            system = make_system(n_videos=2, slots=1, prefetch_chunks=window)
            full = system.build_problem(system.now)
            peers, pairs = full.request_peer_array(), full.chunk_pair_array()
            picked = np.arange(0, len(peers), 7)
            assert len(picked) > 1
            # Pending triples: some requested (one twice), one not.
            down = np.concatenate((peers[picked], peers[picked[:1]], [peers[-1]]))
            vid = np.concatenate((pairs[picked, 0], pairs[picked[:1], 0], [0]))
            chunk = np.concatenate((pairs[picked, 1], pairs[picked[:1], 1], [9999]))
            system.retry_queue.push_failed(
                down, np.zeros_like(down), vid, chunk, slot=system.slot_index
            )
            kept = system.build_problem(system.now)
            keys = triple_key(peers, pairs[:, 0], pairs[:, 1])
            keep = ~np.isin(keys, triple_key(down, vid, chunk))
            assert np.array_equal(kept.request_peer_array(), peers[keep])
            assert np.array_equal(kept.chunk_pair_array(), pairs[keep])
            a, b = full.csr(), kept.csr()
            counts = np.diff(a.indptr)
            edges = np.repeat(keep, counts)
            assert np.array_equal(np.diff(b.indptr), counts[keep])
            assert np.array_equal(
                b.uploaders[b.uploader_index], a.uploaders[a.uploader_index][edges]
            )
            assert np.array_equal(b.values, a.values[edges])
            assert_identical(build_problem_cold(system, system.now), kept)


class TestSessionSync:
    def test_out_of_band_rewind_is_resynced(self):
        system = make_system()
        double_build(system)
        peer = next(p for p in system.peers.values() if p.session is not None)
        # Rewind the session object, as the bench harness does between
        # timing repeats.  Nothing needs to be declared: the session
        # writes its row of the store's columns, which every build reads.
        peer.session._last_advance = max(
            0.0, peer.session._last_advance - system.config.slot_seconds
        )
        double_build(system)


class TestRepeatedBuild:
    def test_repeat_builds_identical(self):
        """A build changes no table it reads: nothing to restore."""
        system = make_system()
        double_build(system)
        system.run_slot()
        first, _ = double_build(system)
        for _ in range(3):
            again, counts = counted_build(system)
            assert_identical(first, again)
            assert counts["rebuilt"] == 0 and counts["dropped"] == 0
            assert counts["reused"] > 0


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

    def test_pool_stays_within_twice_its_live_edges(self):
        config = SystemConfig.tiny(
            seed=5, arrival_rate_per_s=1.0, early_departure_prob=0.5
        )
        system = P2PSystem(config)
        system.populate_static(30)
        store = system.store
        sizes = []
        for _ in range(8):
            system.run_slot(churn=True, remove_finished=True)
            sizes.append(len(store._pool_ids))
            assert sizes[-1] <= 2 * store._pool_live + POOL_SLACK
            store.check_consistency(system.peers, system.tracker)
        # Churn dropped tables, and a compaction gave their spans back.
        assert system.departures > 0
        assert any(b < a for a, b in zip(sizes, sizes[1:]))


class TestOneTablePath:
    def test_one_cost_call_per_build_that_makes_tables(self):
        """A build that makes tables makes one ``costs_for_pairs`` call.

        Its destination runs are exactly the tables made, in ascending
        id order: one run per non-empty table, as long as the table.
        """
        config = SystemConfig.tiny(
            seed=5, arrival_rate_per_s=1.0, early_departure_prob=0.5,
            bid_rounds_per_slot=2,
        )
        system = P2PSystem(config)
        system.populate_static(30)
        builds = record_table_builds(system)
        tracer = system.attach_tracer(MemoryTraceSink())
        for _ in range(6):
            system.run_slot(churn=True, remove_finished=True)
        made = sum(r["build"]["rebuilt"] for r in tracer.records())
        assert made > 0 and sum(len(ids) for ids, _, _ in builds) == made
        assert sum(1 for ids, _, _ in builds if ids) > 1
        for ids, counts, calls in builds:
            if not ids:
                assert calls == []
                continue
            (dsts,) = calls
            runs = [
                (dst, len(list(group)))
                for dst, group in itertools.groupby(dsts)
            ]
            assert runs == [(pid, n) for pid, n in zip(ids, counts) if n > 0]
            assert ids == sorted(set(ids))
        assert system.departures > 0 and system.arrivals > 0

    def test_steady_static_slot_makes_no_table(self):
        system = make_system(slots=3)
        builds = record_table_builds(system)
        tracer = system.attach_tracer(MemoryTraceSink())
        system.run_slot()
        (record,) = tracer.records()
        assert record["build"]["rebuilt"] == 0 and record["build"]["dropped"] == 0
        assert record["build"]["reused"] > 0
        assert builds and all(not ids and not calls for ids, _, calls in builds)
