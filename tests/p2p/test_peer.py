"""Tests for the peer abstraction."""

from __future__ import annotations

import pathlib
import sys

import pytest

from repro.p2p.peer import Peer
from repro.vod.buffer import ChunkBuffer
from repro.vod.playback import PlaybackSession
from repro.vod.valuation import DeadlineValuation
from repro.vod.video import Video

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "oracles"))
from slot import build_requests, receive_chunk, record_upload  # noqa: E402


def make_video(n_chunks=60):
    # 1 chunk per second.
    return Video(video_id=7, n_chunks=n_chunks, chunk_size_bytes=1000, bitrate_bps=8000)


def make_watcher(start_time=0.0, position=0, prefill=()):
    video = make_video()
    buffer = ChunkBuffer(video)
    for i in prefill:
        buffer.add(i)
    session = PlaybackSession(video, buffer, start_time=start_time, start_position=position)
    peer = Peer(
        peer_id=1,
        isp=0,
        video=video,
        upload_capacity_chunks=10,
        buffer=buffer,
        session=session,
    )
    return peer


def make_seed():
    video = make_video()
    buffer = ChunkBuffer(video)
    buffer.fill_range(0, video.n_chunks)
    return Peer(
        peer_id=2,
        isp=1,
        video=video,
        upload_capacity_chunks=80,
        buffer=buffer,
        is_seed=True,
    )


class TestConstruction:
    def test_seed_with_session_rejected(self):
        video = make_video()
        buffer = ChunkBuffer(video)
        session = PlaybackSession(video, buffer, start_time=0.0)
        with pytest.raises(ValueError):
            Peer(1, 0, video, 10, buffer, session=session, is_seed=True)

    def test_negative_capacity_rejected(self):
        video = make_video()
        with pytest.raises(ValueError):
            Peer(1, 0, video, -1, ChunkBuffer(video))


class TestContentQueries:
    def test_holds_chunk_checks_video(self):
        peer = make_watcher(prefill=[3])
        assert peer.holds_chunk(7, 3)
        assert not peer.holds_chunk(8, 3)  # different video
        assert not peer.holds_chunk(7, 4)

    def test_seed_holds_everything(self):
        seed = make_seed()
        assert all(seed.holds_chunk(7, i) for i in range(60))
        assert not seed.watching
        assert seed.playback_position() is None

    def test_watching_lifecycle(self):
        peer = make_watcher()
        assert peer.watching
        peer.session.advance_to(60.0)
        assert not peer.watching


class TestRequests:
    def test_seed_never_requests(self):
        assert build_requests(make_seed(), 0.0, 10, DeadlineValuation()) == []

    def test_window_excludes_held_and_missed(self):
        peer = make_watcher(prefill=[0, 2])
        peer.session.advance_to(0.0)
        requests = build_requests(peer, 0.0, 5, DeadlineValuation())
        indices = [i for i, _ in requests]
        assert indices == [1, 3, 4]

    def test_urgent_chunks_valued_higher(self):
        peer = make_watcher()
        requests = build_requests(peer, 0.0, 10, DeadlineValuation())
        values = [v for _, v in requests]
        assert values == sorted(values, reverse=True)

    def test_lookahead_raises_values(self):
        peer = make_watcher()
        plain = dict(build_requests(peer, 0.0, 10, DeadlineValuation()))
        boosted = dict(build_requests(peer, 0.0, 10, DeadlineValuation(), lookahead=2.5))
        for index in plain:
            assert boosted[index] >= plain[index]

    def test_finished_session_requests_nothing(self):
        peer = make_watcher(prefill=range(60))
        peer.session.advance_to(60.0)
        assert build_requests(peer, 60.0, 10, DeadlineValuation()) == []

    def test_prefetch_before_playback_start(self):
        """A peer in its startup delay still requests (positive deadlines)."""
        peer = make_watcher(start_time=10.0)
        requests = build_requests(peer, 0.0, 5, DeadlineValuation())
        assert len(requests) == 5
        valuation = DeadlineValuation()
        # First chunk is due at t=10, i.e. 10 s away.
        assert requests[0][1] == pytest.approx(valuation.value(10.0))


class TestTransfers:
    def test_receive_chunk_counts_downloads(self):
        peer = make_watcher()
        assert receive_chunk(peer, 5)
        assert not receive_chunk(peer, 5)  # duplicate
        assert peer.chunks_downloaded == 1
        assert peer.holds_chunk(7, 5)

    def test_record_upload(self):
        peer = make_watcher()
        record_upload(peer)
        record_upload(peer, 3)
        assert peer.chunks_uploaded == 4
