"""Tests for the tracker server."""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.costs import CostModel
from repro.net.isp import ISPTopology
from repro.net.topology import OverlayGraph
from repro.p2p.peer import Peer
from repro.p2p.state import PeerStateStore
from repro.p2p.tracker import Tracker
from repro.vod.buffer import ChunkBuffer
from repro.vod.playback import PlaybackSession
from repro.vod.video import Video


def make_store():
    """A peer-state store: the tracker ranks from its position column."""
    costs = CostModel(ISPTopology(1), np.random.default_rng(0))
    return PeerStateStore(OverlayGraph(), costs, window=10)


def make_peer(store, peer_id, video_id=0, position=0, is_seed=False):
    """A peer admitted to ``store``."""
    video = Video(video_id=video_id, n_chunks=100, chunk_size_bytes=1000, bitrate_bps=8000)
    buffer = ChunkBuffer(video)
    session = None
    if not is_seed:
        session = PlaybackSession(video, buffer, start_time=0.0, start_position=position)
    else:
        buffer.fill_range(0, 100)
    peer = Peer(peer_id, 0, video, 10, buffer, session=session, is_seed=is_seed)
    store.admit_batch([peer])
    return peer


@pytest.fixture
def store():
    return make_store()


class TestRegistry:
    def test_register_unregister(self, store):
        tracker = Tracker(store)
        peer = make_peer(store, 1)
        tracker.register(peer)
        assert 1 in tracker.members_view(0) and len(tracker) == 1
        tracker.unregister(peer)
        assert 1 not in tracker.members_view(0) and len(tracker) == 0

    def test_duplicate_registration_rejected(self, store):
        tracker = Tracker(store)
        peer = make_peer(store, 1)
        tracker.register(peer)
        with pytest.raises(ValueError):
            tracker.register(peer)

    def test_unregister_unknown_raises(self, store):
        tracker = Tracker(store)
        with pytest.raises(KeyError):
            tracker.unregister(make_peer(store, 5))
        tracker.register(make_peer(store, 6, video_id=0))
        with pytest.raises(KeyError):  # same video, other peer
            tracker.unregister(make_peer(store, 7, video_id=0))

    def test_peers_watching_by_video(self, store):
        tracker = Tracker(store)
        tracker.register(make_peer(store, 1, video_id=0))
        tracker.register(make_peer(store, 2, video_id=0))
        tracker.register(make_peer(store, 3, video_id=1))
        assert tracker.members_view(0) == {1, 2}
        assert tracker.members_view(1) == {3}
        assert tracker.members_view(9) == set()

    def test_online_peers(self, store):
        """The online peers are the union of the per-video sets."""
        tracker = Tracker(store)
        one = make_peer(store, 1)
        tracker.register(one)
        tracker.register(make_peer(store, 2, video_id=1))
        tracker.register(make_peer(store, 3, video_id=1))
        assert len(tracker) == 3
        tracker.unregister(one)
        assert len(tracker) == 2
        assert tracker.members_view(0) == set()


class TestBootstrap:
    def test_candidates_same_video_only(self, store):
        tracker = Tracker(store)
        tracker.register(make_peer(store, 1, video_id=0, position=50))
        tracker.register(make_peer(store, 2, video_id=1, position=50))
        joiner = make_peer(store, 10, video_id=0, position=50)
        candidates = tracker.bootstrap_candidates(joiner)
        assert candidates == [1]

    def test_ranked_by_playback_proximity(self, store):
        tracker = Tracker(store)
        tracker.register(make_peer(store, 1, position=10))
        tracker.register(make_peer(store, 2, position=48))
        tracker.register(make_peer(store, 3, position=90))
        joiner = make_peer(store, 10, position=50)
        candidates = tracker.bootstrap_candidates(joiner)
        assert candidates[0] == 2

    def test_seed_rank_first_guarantees_seeds(self, store):
        tracker = Tracker(store, seed_rank="first")
        tracker.register(make_peer(store, 99, is_seed=True))
        for pid in range(1, 6):
            tracker.register(make_peer(store, pid, position=pid * 10))
        joiner = make_peer(store, 10, position=55)
        assert tracker.bootstrap_candidates(joiner)[0] == 99

    def test_seed_rank_random_varies(self):
        ranks = set()
        for seed in range(15):
            store = make_store()
            tracker = Tracker(
                store, rng=np.random.default_rng(seed), seed_rank="random"
            )
            tracker.register(make_peer(store, 99, is_seed=True))
            for pid in range(1, 8):
                tracker.register(make_peer(store, pid, position=pid * 10))
            joiner = make_peer(store, 10, position=40)
            ranks.add(tracker.bootstrap_candidates(joiner).index(99))
        assert len(ranks) > 1

    def test_joiner_not_own_candidate(self, store):
        tracker = Tracker(store)
        peer = make_peer(store, 1)
        tracker.register(peer)
        assert 1 not in tracker.bootstrap_candidates(peer)
