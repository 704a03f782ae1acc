"""The tracker server.

Section V: "There is a track server which keeps track of online peers
and bootstraps new joining peers with a list of neighbors with close
playback positions."  The tracker indexes online peers by video and
ranks bootstrap candidates by playback proximity (seeds rank first:
they serve every position).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

import numpy as np

from ..net.topology import rank_candidate_columns
from .peer import Peer
from .state import PeerStateStore

__all__ = ["Tracker"]


class Tracker:
    """Online-peer registry and bootstrap neighbor selection.

    ``store`` is the peer-state store the candidates' playback
    positions are read from.  ``seed_rank`` ("first" or "random")
    controls whether seeds are guaranteed top-ranked in bootstrap lists
    or compete at a random position rank; see
    :func:`repro.net.topology.rank_candidates`.
    """

    _NO_MEMBERS: frozenset = frozenset()

    def __init__(
        self,
        store: PeerStateStore,
        rng: Optional[np.random.Generator] = None,
        seed_rank: str = "first",
    ) -> None:
        self.store = store
        self._peers: Dict[int, Peer] = {}
        self._by_video: Dict[int, Set[int]] = {}
        self.rng = rng
        self.seed_rank = seed_rank
        #: Monotone counter bumped on every register/unregister; lets
        #: membership-derived caches (the peer-state store's tables, the
        #: staleness tests) key on tracker state without copying it.
        self.version = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, peer: Peer) -> None:
        if peer.peer_id in self._peers:
            raise ValueError(f"peer {peer.peer_id} already registered")
        self._peers[peer.peer_id] = peer
        self._by_video.setdefault(peer.video.video_id, set()).add(peer.peer_id)
        self.version += 1

    def unregister(self, peer_id: int) -> None:
        peer = self._peers.pop(peer_id, None)
        if peer is None:
            raise KeyError(f"peer {peer_id} not registered")
        members = self._by_video.get(peer.video.video_id)
        if members is not None:
            members.discard(peer_id)
            if not members:
                del self._by_video[peer.video.video_id]
        self.version += 1

    def __contains__(self, peer_id: int) -> bool:
        return peer_id in self._peers

    def __len__(self) -> int:
        return len(self._peers)

    def online_peers(self) -> List[int]:
        return list(self._peers)

    def peers_watching(self, video_id: int) -> Set[int]:
        """Online peers (incl. seeds) holding content of ``video_id``."""
        return set(self._by_video.get(video_id, set()))

    def members_view(self, video_id: int):
        """Zero-copy view of ``video_id``'s member set (do not mutate).

        The peer-state store's consistency checks compare their member
        tables against this on every mutation path; returning the live
        set keeps that comparison O(members) with no allocation.
        """
        return self._by_video.get(video_id, self._NO_MEMBERS)

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------
    def bootstrap_candidates(self, joiner: Peer) -> List[int]:
        """Candidates for a joining peer, ranked by playback proximity.

        Seeds of the video are always eligible and rank first (they
        cover any playback position).  Candidate positions are read
        from the peer-state store by id, so the joiner and every
        registered peer of its video must be admitted to the store
        first.
        """
        video_id = joiner.video.video_id
        members = self._by_video.get(video_id, self._NO_MEMBERS)
        ids = np.fromiter(members, dtype=np.int64, count=len(members))
        ids = ids[ids != joiner.peer_id]
        return rank_candidate_columns(
            ids,
            self.store.playback_positions(video_id, ids),
            float(joiner.playback_position() or 0),
            rng=self.rng,
            seed_rank=self.seed_rank,
        )
