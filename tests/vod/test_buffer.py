"""Tests for the chunk buffer and window of interest."""

from __future__ import annotations

import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vod.buffer import ChunkBuffer
from repro.vod.video import Video

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "oracles"))
from slot import window_array, window_of_interest  # noqa: E402


def make_video(n_chunks=100):
    return Video(video_id=0, n_chunks=n_chunks, chunk_size_bytes=8192, bitrate_bps=81920)


class TestContent:
    def test_add_and_holds(self):
        buffer = ChunkBuffer(make_video())
        assert buffer.add(5)
        assert buffer.holds(5)
        assert 5 in buffer
        assert len(buffer) == 1

    def test_duplicate_add_returns_false(self):
        buffer = ChunkBuffer(make_video())
        buffer.add(5)
        assert buffer.add(5) is False
        assert len(buffer) == 1

    def test_out_of_range_rejected(self):
        buffer = ChunkBuffer(make_video(10))
        with pytest.raises(IndexError):
            buffer.add(10)
        with pytest.raises(IndexError):
            buffer.add(-1)

    def test_add_many_counts_new(self):
        buffer = ChunkBuffer(make_video())
        assert buffer.add_many([1, 2, 3]) == 3
        assert buffer.add_many([3, 4]) == 1

    def test_fill_range(self):
        buffer = ChunkBuffer(make_video(50))
        buffer.fill_range(10, 20)
        assert all(buffer.holds(i) for i in range(10, 20))
        assert not buffer.holds(9)
        with pytest.raises(ValueError):
            buffer.fill_range(40, 60)

    def test_bitmap_snapshot_immutable(self):
        buffer = ChunkBuffer(make_video())
        buffer.add(1)
        snapshot = buffer.bitmap()
        buffer.add(2)
        assert snapshot == frozenset({1})


class TestWindowOfInterest:
    def test_window_skips_held(self):
        buffer = ChunkBuffer(make_video())
        buffer.add(11)
        assert window_of_interest(buffer, 10, 4) == [10, 12, 13]

    def test_window_clipped_at_video_end(self):
        buffer = ChunkBuffer(make_video(20))
        assert window_of_interest(buffer, 18, 10) == [18, 19]

    def test_window_respects_exclusions(self):
        buffer = ChunkBuffer(make_video())
        assert window_of_interest(buffer, 0, 3, exclude={1}) == [0, 2]

    def test_window_negative_rejected(self):
        buffer = ChunkBuffer(make_video())
        with pytest.raises(ValueError):
            window_of_interest(buffer, 0, -1)

    def test_contiguous_run(self):
        buffer = ChunkBuffer(make_video())
        buffer.add_many([5, 6, 7, 9])
        assert buffer.contiguous_from(5) == 3
        assert buffer.contiguous_from(8) == 0

    def test_completion_fraction(self):
        buffer = ChunkBuffer(make_video(10))
        buffer.add_many(range(5))
        assert buffer.completion() == 0.5


class TestMaskView:
    def test_mask_is_live_and_zero_copy(self):
        buffer = ChunkBuffer(make_video(10))
        mask = buffer.mask
        assert mask.dtype == bool and mask.shape == (10,)
        assert not mask.any()
        buffer.add(3)
        assert mask[3]  # same storage, no snapshot
        assert np.shares_memory(buffer.mask, mask)

    def test_mask_agrees_with_bitmap(self):
        buffer = ChunkBuffer(make_video(20))
        buffer.add_many([2, 5, 11])
        import numpy as np

        assert set(np.nonzero(buffer.mask)[0].tolist()) == set(buffer.bitmap())

    def test_window_array_matches_list(self):
        import numpy as np

        buffer = ChunkBuffer(make_video(30))
        buffer.add_many([4, 6, 9])
        arr = window_array(buffer, 3, 8, exclude={5})
        assert arr.dtype == np.int64
        assert arr.tolist() == window_of_interest(buffer, 3, 8, exclude={5})

    def test_fill_range_updates_count_idempotently(self):
        buffer = ChunkBuffer(make_video(50))
        buffer.add(12)
        buffer.fill_range(10, 20)
        buffer.fill_range(15, 25)
        assert len(buffer) == 15
        assert buffer.completion() == pytest.approx(15 / 50)


@settings(max_examples=40, deadline=None)
@given(
    held=st.sets(st.integers(0, 49), max_size=30),
    position=st.integers(0, 49),
    window=st.integers(0, 20),
)
def test_property_window_disjoint_from_held(held, position, window):
    buffer = ChunkBuffer(make_video(50))
    buffer.add_many(held)
    wanted = window_of_interest(buffer, position, window)
    assert set(wanted).isdisjoint(held)
    assert all(position <= i < min(50, position + window) for i in wanted)
    assert wanted == sorted(wanted)
