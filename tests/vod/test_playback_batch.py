"""Batched ``advance_to`` vs the per-chunk reference loop.

The batched path counts held-vs-missing chunks straight off the buffer
bitmap; the loop probes one chunk at a time.  Position, played count,
missed set, per-call stats and error behaviour must be identical.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vod.buffer import ChunkBuffer
from repro.vod.playback import PlaybackSession
from repro.vod.video import Video

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "oracles"))
from slot import advance_to_reference, window_array  # noqa: E402


def make_video(n_chunks=40):
    return Video(
        video_id=0,
        n_chunks=n_chunks,
        chunk_size_bytes=8 * 1024,
        bitrate_bps=8 * 1024 * 8,  # 1 chunk per second
    )


def make_pair(held_indices, start_position=0, start_time=0.0, n_chunks=40):
    """Two identical sessions over identically filled buffers."""
    sessions = []
    for _ in range(2):
        video = make_video(n_chunks)
        buffer = ChunkBuffer(video)
        for index in held_indices:
            buffer.add(index)
        sessions.append(
            PlaybackSession(
                video=video,
                buffer=buffer,
                start_time=start_time,
                start_position=start_position,
            )
        )
    return sessions


def assert_same_session(a, b):
    assert a.position == b.position
    assert a.played == b.played
    assert a.missed == b.missed
    assert a.finished == b.finished


class TestBatchedAdvanceEquivalence:
    @given(
        held=st.sets(st.integers(min_value=0, max_value=39), max_size=40),
        start=st.integers(min_value=0, max_value=39),
        steps=st.lists(
            st.floats(min_value=0.0, max_value=15.0), min_size=1, max_size=6
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_property_identical_trajectories(self, held, start, steps):
        fast, slow = make_pair(held, start_position=start)
        now = 0.0
        for dt in steps:
            now += dt
            stats_fast = fast.advance_to(now)
            stats_slow = advance_to_reference(slow, now)
            assert (stats_fast.due, stats_fast.missed) == (
                stats_slow.due,
                stats_slow.missed,
            )
            assert_same_session(fast, slow)

    def test_runs_to_completion(self):
        fast, slow = make_pair({0, 1, 5, 6, 7, 20}, start_position=0)
        fast.advance_to(100.0)
        advance_to_reference(slow, 100.0)
        assert fast.finished and slow.finished
        assert_same_session(fast, slow)

    def test_zero_elapsed_is_noop(self):
        fast, slow = make_pair({3}, start_position=2, start_time=5.0)
        stats = fast.advance_to(5.0)
        assert (stats.due, stats.missed) == (0, 0)
        advance_to_reference(slow, 5.0)
        assert_same_session(fast, slow)

    def test_time_going_backwards_raises_in_both(self):
        fast, slow = make_pair(set())
        fast.advance_to(4.0)
        advance_to_reference(slow, 4.0)
        with pytest.raises(ValueError):
            fast.advance_to(3.0)
        with pytest.raises(ValueError):
            advance_to_reference(slow, 3.0)

    def test_missed_chunks_excluded_from_window(self):
        """The missed set feeds the request window; both paths must agree."""
        fast, slow = make_pair({1, 3}, start_position=0)
        fast.advance_to(5.0)
        advance_to_reference(slow, 5.0)
        assert fast.missed == {0, 2, 4} == slow.missed
        window_fast = window_array(fast.buffer, fast.position, 10, exclude=fast.missed)
        window_slow = window_array(slow.buffer, slow.position, 10, exclude=slow.missed)
        assert np.array_equal(window_fast, window_slow)


class TestBufferBatchInsert:
    def test_add_batch_matches_loop(self):
        video = make_video()
        batch, loop = ChunkBuffer(video), ChunkBuffer(video)
        indices = [3, 1, 3, 7, 1, 0, 39]
        added_batch = batch.add_batch(np.asarray(indices))
        added_loop = loop.add_many(indices)
        assert added_batch == added_loop == 5
        assert np.array_equal(batch.mask, loop.mask)
        assert len(batch) == len(loop)

    def test_add_batch_counts_only_new(self):
        video = make_video()
        buffer = ChunkBuffer(video)
        buffer.fill_range(0, 10)
        assert buffer.add_batch(np.array([5, 9, 10, 11])) == 2
        assert len(buffer) == 12

    def test_add_batch_out_of_range_raises(self):
        buffer = ChunkBuffer(make_video())
        with pytest.raises(IndexError):
            buffer.add_batch(np.array([0, 40]))
        with pytest.raises(IndexError):
            buffer.add_batch(np.array([-1]))

    def test_add_batch_empty_is_noop(self):
        buffer = ChunkBuffer(make_video())
        assert buffer.add_batch(np.empty(0, dtype=np.int64)) == 0
        assert len(buffer) == 0
