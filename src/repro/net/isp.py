"""ISP topology: which peer belongs to which Internet Service Provider.

The paper deploys peers across M = 5 ISPs, with joining peers
"distributed in the 5 ISPs evenly".  :class:`ISPTopology` is the one
record of a placed peer's ISP, which the cost model and the slot
pipeline read.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

__all__ = ["ISPTopology"]


class ISPTopology:
    """Peer id → ISP index ``0..n_isps-1``, as one id-indexed column.

    The column holds a placed peer's ISP at its id and −1 elsewhere, and
    grows by doubling like the peer-state store's id-indexed columns.
    Beside it are the per-ISP counts placement reads: a peer added
    without an explicit ISP goes to the least populated one (ties to the
    lowest index), which realizes the paper's "distributed evenly"
    arrival rule deterministically.
    """

    def __init__(self, n_isps: int) -> None:
        if n_isps < 1:
            raise ValueError(f"need at least one ISP, got {n_isps!r}")
        self._n_isps = int(n_isps)
        self._isp = np.full(64, -1, dtype=np.int64)
        self._counts = np.zeros(self._n_isps, dtype=np.int64)

    @property
    def n_isps(self) -> int:
        """Number of ISPs."""
        return self._n_isps

    def add_peer(self, peer_id: int, isp: Optional[int] = None) -> int:
        """Place ``peer_id`` (not negative, not placed); returns its ISP index."""
        if peer_id < 0:
            raise ValueError(f"peer id must be >= 0, got {peer_id!r}")
        column = self._isp
        if peer_id < len(column) and column[peer_id] >= 0:
            raise ValueError(f"peer {peer_id!r} already registered")
        if isp is None:
            isp = int(np.argmin(self._counts))
        if not 0 <= isp < self._n_isps:
            raise ValueError(f"isp index {isp!r} out of range [0, {self._n_isps})")
        if peer_id >= len(column):
            self._isp = np.full(max(2 * len(column), peer_id + 1), -1, dtype=np.int64)
            self._isp[: len(column)] = column
        self._isp[peer_id] = isp
        self._counts[isp] += 1
        return isp

    def remove_peer(self, peer_id: int) -> None:
        """Unplace a departed peer; ``KeyError`` if it is not placed."""
        isp = self.isp_of(peer_id)
        self._isp[peer_id] = -1
        self._counts[isp] -= 1

    def isp_of(self, peer_id: int) -> int:
        """ISP index of ``peer_id``; ``KeyError`` if it is not placed."""
        return int(self.isps_of(np.array([peer_id]))[0])

    def isps_of(self, peer_ids: np.ndarray) -> np.ndarray:
        """ISP index of each of ``peer_ids`` (int64), one checked gather.

        ``KeyError`` on an id not placed (negative, past the column's end
        or removed): a bare gather would read another entry or ISP −1,
        and −1 silently indexes the last row of an ISP-pair table.
        """
        ids = np.asarray(peer_ids, dtype=np.int64)
        placed = (ids >= 0) & (ids < len(self._isp))
        placed[placed] = self._isp[ids[placed]] >= 0
        if not placed.all():
            raise KeyError(f"peer {int(ids[~placed][0])} not registered")
        return self._isp[ids]

    def column(self) -> np.ndarray:
        """The id-indexed ISP column, read-only (−1 or past its end: not placed).

        A view: it follows every write until :meth:`add_peer` grows it.
        """
        view = self._isp.view()
        view.flags.writeable = False
        return view

    def sizes(self) -> List[int]:
        """Current population of each ISP."""
        return self._counts.tolist()
