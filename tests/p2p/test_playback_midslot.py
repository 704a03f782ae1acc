"""Mid-slot arrivals: due/missed accounting from the session's own start.

A session admitted *inside* a slot (user calls, startup-delayed
arrivals) must not be advanced from the slot boundary: the batched
playback pass has to charge it exactly the chunks due since its own
``start_time`` — and skip it entirely while ``start_time >= to_time``.
These tests pin the accounting against hand-computed values and the
per-chunk reference loop.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

from repro.p2p.config import SystemConfig
from repro.p2p.system import P2PSystem

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "oracles"))
from slot import advance_playback_reference  # noqa: E402


def build_system(n_peers=12, seed=5):
    system = P2PSystem(SystemConfig.tiny(seed=seed))
    system.populate_static(n_peers)
    return system


class TestMidSlotArrivals:
    def test_midslot_joiner_advances_from_own_start_time(self):
        """tiny config plays 1 chunk/s: the arithmetic is checkable by hand."""
        system = build_system()
        system.run(20.0)
        t = system.now
        joiner = system.add_watching_peer(
            video_id=0, upload_multiple=1.0, start_time=t + 3.25
        )
        assert system.peers[joiner.peer_id] is joiner
        due, missed = system._advance_playback(t + 10.0)
        # 6.75 s of playback at 1 chunk/s → 6 chunks due, all missed
        # (empty buffer); the joiner's session moved to position 6.
        assert joiner.session.position == 6
        assert joiner.session.missed == {0, 1, 2, 3, 4, 5}
        assert joiner.session._last_advance == t + 10.0

    def test_midslot_joiner_with_prefilled_buffer_plays_held_chunks(self):
        system = build_system()
        system.run(20.0)
        t = system.now
        joiner = system.add_watching_peer(
            video_id=0, upload_multiple=1.0, start_time=t + 4.0
        )
        joiner.buffer.add_batch([0, 1, 2])
        system._advance_playback(t + 10.0)
        # 6 s → 6 chunks due; 0-2 held (played), 3-5 missed.
        assert joiner.session.position == 6
        assert joiner.session.played == 3
        assert joiner.session.missed == {3, 4, 5}

    def test_future_sessions_are_untouched(self):
        system = build_system()
        system.run(10.0)
        t = system.now
        future = system.add_watching_peer(
            video_id=0, upload_multiple=1.0, start_time=t + 25.0
        )
        before = future.session._last_advance
        due, missed = system._advance_playback(t + 10.0)
        assert future.session.position == future.session.start_position
        assert future.session.played == 0
        assert future.session.missed == set()
        # Not even the advance stamp moves: the reference loop skips
        # sessions whose start_time >= to_time without touching them.
        assert future.session._last_advance == before

    def test_batched_matches_reference_with_mixed_arrivals(self):
        """Steady watchers + two mid-slot joiners: byte-equal outcomes."""
        fast = build_system(seed=9)
        slow = build_system(seed=9)
        fast.run(20.0)
        slow.run(20.0)
        for system in (fast, slow):
            t = system.now
            a = system.add_watching_peer(
                video_id=0, upload_multiple=1.0, start_time=t + 2.5
            )
            a.buffer.add_batch([0, 1])
            system.add_watching_peer(
                video_id=1, upload_multiple=1.0, start_time=t + 7.9
            )
            system.add_watching_peer(  # future: skipped this slot
                video_id=0, upload_multiple=1.0, start_time=t + 12.0
            )
        t = fast.now
        pair_fast = fast._advance_playback(t + 10.0)
        pair_slow = advance_playback_reference(slow, t + 10.0)
        assert pair_fast == pair_slow
        for pid, pf in fast.peers.items():
            ps = slow.peers[pid]
            if pf.session is None:
                continue
            assert pf.session.position == ps.session.position, pid
            assert pf.session.played == ps.session.played, pid
            assert pf.session.missed == ps.session.missed, pid
            assert pf.session._last_advance == ps.session._last_advance, pid
        fast.store.check_consistency(fast.peers)

    def test_startup_delayed_churn_arrivals_account_from_start(self):
        """Churn admissions (startup delay) across several slots."""
        fast = P2PSystem(SystemConfig.tiny(seed=11, arrival_rate_per_s=1.0))
        slow = P2PSystem(SystemConfig.tiny(seed=11, arrival_rate_per_s=1.0))
        fast.populate_static(8)
        slow.populate_static(8)
        slow._advance_playback = lambda to_time: advance_playback_reference(
            slow, to_time
        )
        for _ in range(6):
            mf = fast.run_slot(churn=True, remove_finished=True)
            ms = slow.run_slot(churn=True, remove_finished=True)
            assert (mf.chunks_due, mf.chunks_missed) == (
                ms.chunks_due,
                ms.chunks_missed,
            )
        assert fast.arrivals > 0

    def test_time_going_backwards_raises_before_mutation(self):
        system = build_system()
        system.run(20.0)
        t = system.now
        system._advance_playback(t + 5.0)
        positions = {
            pid: p.session.position
            for pid, p in system.peers.items()
            if p.session is not None
        }
        with pytest.raises(ValueError, match="time went backwards"):
            system._advance_playback(t + 2.0)
        after = {
            pid: p.session.position
            for pid, p in system.peers.items()
            if p.session is not None
        }
        assert positions == after  # batched path validates up front
