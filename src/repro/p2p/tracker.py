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
    :func:`repro.net.topology.rank_candidate_columns`.
    """

    _NO_MEMBERS: frozenset = frozenset()

    def __init__(
        self,
        store: PeerStateStore,
        rng: Optional[np.random.Generator] = None,
        seed_rank: str = "first",
    ) -> None:
        self.store = store
        # Online peer ids (seeds included) by video.  A set's iteration
        # order fixes the order of the bootstrap candidates, and so of
        # the ranking's tie-break draws.
        self._by_video: Dict[int, Set[int]] = {}
        self.rng = rng
        self.seed_rank = seed_rank

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, peer: Peer) -> None:
        members = self._by_video.setdefault(peer.video.video_id, set())
        if peer.peer_id in members:
            raise ValueError(f"peer {peer.peer_id} already registered")
        members.add(peer.peer_id)

    def unregister(self, peer: Peer) -> None:
        vid = peer.video.video_id
        members = self._by_video.get(vid, self._NO_MEMBERS)
        if peer.peer_id not in members:
            raise KeyError(f"peer {peer.peer_id} not registered")
        members.discard(peer.peer_id)
        if not members:
            del self._by_video[vid]

    def __len__(self) -> int:
        return sum(len(members) for members in self._by_video.values())

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
