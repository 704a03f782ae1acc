"""The tracker server.

Section V: "There is a track server which keeps track of online peers
and bootstraps new joining peers with a list of neighbors with close
playback positions."  The tracker indexes online peers by video and
ranks bootstrap candidates by playback proximity (seeds rank first:
they serve every position).
"""

from __future__ import annotations

from math import nan
from typing import Dict, List, Optional, Set

import numpy as np

from ..net.topology import rank_candidate_columns
from .peer import Peer

__all__ = ["Tracker"]


class Tracker:
    """Online-peer registry and bootstrap neighbor selection.

    ``seed_rank`` ("first" or "random") controls whether seeds are
    guaranteed top-ranked in bootstrap lists or compete at a random
    position rank; see :func:`repro.net.topology.rank_candidates`.
    """

    _NO_MEMBERS: frozenset = frozenset()

    def __init__(
        self,
        rng: Optional[np.random.Generator] = None,
        seed_rank: str = "first",
    ) -> None:
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
        cover any playback position).  Candidate positions come from
        the position column of the joiner's video group in the
        peer-state store, so the joiner and every registered peer of
        its video must be admitted to the store first.
        """
        members = self._by_video.get(joiner.video.video_id, self._NO_MEMBERS)
        ids = np.fromiter(members, dtype=np.int64, count=len(members))
        ids = ids[ids != joiner.peer_id]
        group = joiner.state_group
        rows = group.member_rows[np.searchsorted(group.member_ids, ids)]
        bucket = group.bucket
        # Seeds and peers without a session have no position (NaN).
        positions = np.where(bucket.has_session[rows], bucket.position[rows], nan)
        return rank_candidate_columns(
            ids,
            positions,
            float(joiner.playback_position() or 0),
            rng=self.rng,
            seed_rank=self.seed_rank,
        )
