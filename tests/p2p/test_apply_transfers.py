"""Vectorized transfer-apply epilogue vs the per-edge reference loop.

``P2PSystem._apply_transfers`` (grouped bitmap writes, bincount traffic,
ISP-table classification) must leave the system in the *identical* state
as the per-edge loop ``apply_transfers_reference`` in
``tests/oracles/slot.py`` — same buffers, same upload/download
counters, same traffic matrix, same inter/intra split — across static,
churn and multi-video scenarios.  Likewise for the batched per-round
budget split in ``run_slot``.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np
import pytest

from repro.core.problem import ProblemBuilder
from repro.core.result import ScheduleResult
from repro.p2p.config import SystemConfig
from repro.p2p.system import P2PSystem

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "oracles"))
from slot import (  # noqa: E402
    advance_playback_reference,
    apply_transfers_reference,
    round_budget,
)

SCENARIOS = {
    "static": dict(n_peers=50, churn=False, overrides={}),
    "churn": dict(
        n_peers=50, churn=True,
        overrides=dict(arrival_rate_per_s=0.5, early_departure_prob=0.3),
    ),
    "multivideo": dict(n_peers=60, churn=False, overrides=dict(n_videos=8)),
}


def build_system(spec, seed=13):
    system = P2PSystem(SystemConfig.tiny(seed=seed, **spec["overrides"]))
    system.populate_static(spec["n_peers"])
    return system


def force_reference_epilogue(system):
    """Make ``system`` run the per-edge apply loop instead of the new path."""
    system._apply_transfers = (
        lambda problem, result: apply_transfers_reference(system, problem, result)
    )


def state_snapshot(system):
    return dict(
        masks={pid: p.buffer.mask.copy() for pid, p in system.peers.items()},
        counts={pid: len(p.buffer) for pid, p in system.peers.items()},
        uploaded={pid: p.chunks_uploaded for pid, p in system.peers.items()},
        downloaded={pid: p.chunks_downloaded for pid, p in system.peers.items()},
        traffic=system.traffic_matrix.matrix(),
        sessions={
            pid: (p.session.position, p.session.played, frozenset(p.session.missed))
            for pid, p in system.peers.items()
            if p.session is not None
        },
        slots=[
            (
                m.welfare, m.n_requests, m.n_served,
                m.inter_isp_chunks, m.intra_isp_chunks,
                m.chunks_due, m.chunks_missed,
            )
            for m in system.collector.slots
        ],
    )


def assert_same_state(a, b):
    sa, sb = state_snapshot(a), state_snapshot(b)
    assert sa["slots"] == sb["slots"]
    assert np.array_equal(sa["traffic"], sb["traffic"])
    for key in ("counts", "uploaded", "downloaded", "sessions"):
        assert sa[key] == sb[key], key
    assert sa["masks"].keys() == sb["masks"].keys()
    for pid in sa["masks"]:
        assert np.array_equal(sa["masks"][pid], sb["masks"][pid]), pid


class TestApplyEquivalence:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_full_run_state_identical(self, name):
        spec = SCENARIOS[name]
        fast = build_system(spec)
        slow = build_system(spec)
        force_reference_epilogue(slow)
        for _ in range(6):
            fast.run_slot(churn=spec["churn"], remove_finished=spec["churn"])
            slow.run_slot(churn=spec["churn"], remove_finished=spec["churn"])
        assert_same_state(fast, slow)
        # Non-vacuous: something was actually transferred.
        assert fast.traffic_matrix.total() > 0

    def test_single_slot_return_values_match(self):
        spec = SCENARIOS["static"]
        fast = build_system(spec)
        slow = build_system(spec)
        fast.run_slot()
        slow.run_slot()
        problem_fast = fast.build_problem(fast.now)
        problem_slow = slow.build_problem(slow.now)
        result_fast = fast.scheduler.schedule(problem_fast)
        result_slow = slow.scheduler.schedule(problem_slow)
        assert result_fast.assignment == result_slow.assignment
        pair_fast = fast._apply_transfers(problem_fast, result_fast)
        pair_slow = apply_transfers_reference(slow, problem_slow, result_slow)
        assert pair_fast == pair_slow
        assert_same_state(fast, slow)

    def test_empty_result_is_noop(self):
        system = build_system(SCENARIOS["static"])
        problem = system.build_problem(system.now)
        empty = ScheduleResult(
            assignment={r: None for r in range(problem.n_requests)}
        )
        before = system.traffic_matrix.total()
        assert system._apply_transfers(problem, empty) == (0, 0)
        assert system.traffic_matrix.total() == before


class TestGroupedDelivery:
    """The store's per-bucket delivery writes vs the per-peer loop."""

    def _hand_problem(self, system, edges):
        """Problem with one request per (watcher, chunk, uploader) edge."""
        builder = ProblemBuilder()
        assignment = {}
        for r, (watcher, index, uploader) in enumerate(edges):
            builder.set_capacity(uploader.peer_id, len(edges))
            builder.add_request(
                peer=watcher.peer_id,
                chunk=(watcher.video.video_id, index),
                valuation=5.0,
                candidates={uploader.peer_id: 1.0},
            )
            assignment[r] = uploader.peer_id
        problem = builder.build()
        return problem, ScheduleResult(assignment=assignment)

    def _watchers_and_seed(self, system):
        by_video = {}
        for peer in system.peers.values():
            if peer.watching:
                by_video.setdefault(peer.video.video_id, []).append(peer)
        video_id, watchers = max(
            by_video.items(), key=lambda kv: (len(kv[1]), -kv[0])
        )
        seed = next(
            p for p in system.peers.values()
            if p.is_seed and p.video.video_id == video_id
        )
        return watchers, seed

    def test_interleaved_owner_runs(self):
        """A peer split across several runs accumulates across them."""
        system = build_system(SCENARIOS["static"])
        system.run_slot()
        watchers, seed = self._watchers_and_seed(system)
        roomy = [
            w for w in watchers if int((~w.buffer.mask).sum()) >= 2
        ]
        a, b = roomy[0], roomy[1]
        a_missing = np.nonzero(~a.buffer.mask)[0][:2].tolist()
        b_missing = np.nonzero(~b.buffer.mask)[0][:1].tolist()
        edges = [
            (a, int(a_missing[0]), seed),
            (b, int(b_missing[0]), seed),
            (a, int(a_missing[1]), seed),  # same owner, new run
        ]
        problem, result = self._hand_problem(system, edges)
        before_a, before_b = a.chunks_downloaded, b.chunks_downloaded
        inter, intra = system._apply_transfers(problem, result)
        assert inter + intra == 3
        assert a.chunks_downloaded == before_a + 2
        assert b.chunks_downloaded == before_b + 1
        assert all(a.buffer.holds(i) for i in a_missing)
        assert b.buffer.holds(b_missing[0])
        assert len(a.buffer) == int(a.buffer.mask.sum())

    def test_already_held_chunks_count_zero(self):
        system = build_system(SCENARIOS["static"])
        system.run_slot()
        watchers, seed = self._watchers_and_seed(system)
        w = watchers[0]
        held = int(np.nonzero(w.buffer.mask)[0][0])
        problem, result = self._hand_problem(system, [(w, held, seed)])
        before = w.chunks_downloaded
        count_before = len(w.buffer)
        system._apply_transfers(problem, result)
        assert w.chunks_downloaded == before
        assert len(w.buffer) == count_before

    def test_deliver_runs_multi_run_batch(self):
        """Direct store contract: per-run new counts, held and download counts."""
        system = build_system(SCENARIOS["multivideo"])
        system.run_slot()
        movers = [p for p in system.peers.values() if p.watching][:3]
        chunks = []
        starts = []
        for peer in movers:
            starts.append(len(chunks))
            chunks.extend(np.nonzero(~peer.buffer.mask)[0][:2].tolist())
        starts = np.asarray(starts, dtype=np.int64)
        stops = np.append(starts[1:], len(chunks))
        counts_before = [len(p.buffer) for p in movers]
        downloads_before = [p.chunks_downloaded for p in movers]
        ids = np.asarray([p.peer_id for p in movers], dtype=np.int64)
        added = system.store.deliver_runs(
            ids, starts, stops, np.asarray(chunks, dtype=np.int64), system.now
        )
        assert added.tolist() == [2, 2, 2]
        for peer, before, downloaded in zip(
            movers, counts_before, downloads_before
        ):
            assert len(peer.buffer) == before + 2
            assert len(peer.buffer) == int(peer.buffer.mask.sum())
            assert peer.chunks_downloaded == downloaded + 2
            assert peer.first_delivery_time is not None
        system.store.check_consistency(system.peers, system.tracker)


class TestBudgetVectorization:
    @pytest.mark.parametrize("rounds", [1, 2, 3, 4, 7])
    def test_shares_match_scalar_round_budget(self, rounds):
        caps = np.array([0, 1, 2, 3, 5, 8, 13, 40, 41], dtype=np.int64)
        for r in range(rounds):
            shares = caps * (r + 1) // rounds - caps * r // rounds
            expected = [round_budget(int(c), r, rounds) for c in caps]
            assert shares.tolist() == expected

    def test_run_slot_budget_split_preserved_under_subrounds(self):
        spec = dict(n_peers=30, churn=False, overrides=dict(bid_rounds_per_slot=3))
        fast = build_system(spec)
        slow = build_system(spec)
        force_reference_epilogue(slow)
        for _ in range(4):
            fast.run_slot()
            slow.run_slot()
        assert_same_state(fast, slow)


class TestPlaybackBatchEquivalence:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_advance_batched_vs_loop_in_system(self, name):
        spec = SCENARIOS[name]
        fast = build_system(spec)
        slow = build_system(spec)
        slow._advance_playback = lambda to_time: advance_playback_reference(
            slow, to_time
        )
        for _ in range(6):
            fast.run_slot(churn=spec["churn"], remove_finished=spec["churn"])
            slow.run_slot(churn=spec["churn"], remove_finished=spec["churn"])
        assert_same_state(fast, slow)
