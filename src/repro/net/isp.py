"""ISP topology: which peer belongs to which Internet Service Provider.

The paper deploys peers across M = 5 ISPs, with joining peers
"distributed in the 5 ISPs evenly".  :class:`ISPTopology` tracks the
peer→ISP map under churn and offers the queries the cost model and
metrics need (same-ISP tests, per-ISP rosters).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set

import numpy as np

__all__ = ["ISPTopology"]


class ISPTopology:
    """Mutable assignment of peer ids to ISP indices ``0..n_isps-1``.

    Peers added without an explicit ISP go to the currently least
    populated ISP (ties broken by lowest index), which realizes the
    paper's "distributed evenly" arrival rule deterministically.
    """

    def __init__(self, n_isps: int) -> None:
        if n_isps < 1:
            raise ValueError(f"need at least one ISP, got {n_isps!r}")
        self._n_isps = int(n_isps)
        self._isp_of: Dict[int, int] = {}
        self._members: List[Set[int]] = [set() for _ in range(self._n_isps)]

    # ------------------------------------------------------------------
    # Membership management
    # ------------------------------------------------------------------
    @property
    def n_isps(self) -> int:
        """Number of ISPs."""
        return self._n_isps

    def __len__(self) -> int:
        return len(self._isp_of)

    def __contains__(self, peer_id: int) -> bool:
        return peer_id in self._isp_of

    def __iter__(self) -> Iterator[int]:
        return iter(self._isp_of)

    def add_peer(self, peer_id: int, isp: Optional[int] = None) -> int:
        """Register ``peer_id``; returns the ISP index it was placed in."""
        if peer_id in self._isp_of:
            raise ValueError(f"peer {peer_id!r} already registered")
        if isp is None:
            sizes = [len(m) for m in self._members]
            isp = int(np.argmin(sizes))
        if not 0 <= isp < self._n_isps:
            raise ValueError(f"isp index {isp!r} out of range [0, {self._n_isps})")
        self._isp_of[peer_id] = isp
        self._members[isp].add(peer_id)
        return isp

    def remove_peer(self, peer_id: int) -> None:
        """Unregister a departed peer."""
        isp = self._isp_of.pop(peer_id, None)
        if isp is None:
            raise KeyError(f"peer {peer_id!r} not registered")
        self._members[isp].discard(peer_id)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def isp_of(self, peer_id: int) -> int:
        """ISP index of ``peer_id``; raises ``KeyError`` if unknown."""
        return self._isp_of[peer_id]

    def isps_of(self, peer_ids: np.ndarray) -> np.ndarray:
        """ISP index of each of ``peer_ids`` (int64); ``KeyError`` if unknown."""
        return np.fromiter(
            map(self._isp_of.__getitem__, peer_ids.tolist()),
            dtype=np.int64,
            count=len(peer_ids),
        )

    def peers_in(self, isp: int) -> Set[int]:
        """A copy of the roster of ISP ``isp``."""
        return set(self._members[isp])

    def same_isp(self, a: int, b: int) -> bool:
        """Whether peers ``a`` and ``b`` sit in the same ISP."""
        return self._isp_of[a] == self._isp_of[b]

    def sizes(self) -> List[int]:
        """Current population of each ISP."""
        return [len(m) for m in self._members]

    def all_peers(self) -> Set[int]:
        """The set of all registered peer ids."""
        return set(self._isp_of)
