"""Per-peer chunk buffer.

Each peer holds downloaded chunks of the video it watches and exchanges
buffer maps with neighbors (Section V's "buffer manager").  The window
of interest ``R_t(d)`` is the next ``window`` chunks beyond the playback
position that the peer does not yet hold — the paper prefetches 100
chunks, i.e. 10 seconds ahead; the peer-state store's request assembler
(:mod:`repro.p2p.state`) reads it from these bitmaps for every peer at
once.  Buffers are unbounded, as in the paper.

Storage is a numpy bool bitmap indexed by chunk number: the peer's row
of the per-peer state columns, addressed through a :class:`PeerRow`
that the buffer, the playback session and the peer share.  While the
peer is online the row belongs to the peer-state store
(:mod:`repro.p2p.state`), so the slot pipeline reads and writes every
buffer with whole-matrix operations; before admission and after
departure it is a private one-row copy.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable

import numpy as np

from .video import Video

__all__ = ["ChunkBuffer", "PeerRow", "RowField"]


class _OwnRow:
    """A private one-row copy of the per-peer columns (offline peers)."""

    def __init__(self, n_chunks: int) -> None:
        self.masks = np.zeros((1, n_chunks), dtype=bool)
        self.missed = np.zeros((1, n_chunks), dtype=bool)
        self.position = np.zeros(1, dtype=np.int64)
        self.played = np.zeros(1, dtype=np.int64)
        self.last_advance = np.zeros(1, dtype=float)
        self.capacity = np.zeros(1, dtype=np.int64)
        self.downloaded = np.zeros(1, dtype=np.int64)
        self.uploaded = np.zeros(1, dtype=np.int64)
        self.first_delivery = np.full(1, np.nan)


class PeerRow:
    """Where one peer's per-peer state lives.

    The chunk bitmap and the playback state sit in row ``row`` of
    ``cols`` (columns ``masks``, ``missed``, ``position``, ``played`` and
    ``last_advance``); the upload capacity and the transfer counters sit
    at ``index`` of ``tally`` (``capacity``, ``downloaded``,
    ``uploaded`` and ``first_delivery``, NaN until the first delivery).
    A buffer creates the handle, and the session and the peer built over
    that buffer share it, so the three objects read and write one entry.
    The peer-state store points it at a bucket row and at the peer's id
    in its id-indexed columns on admission (:meth:`move`), and back to a
    private copy on departure (:meth:`detach`).
    """

    __slots__ = ("n_chunks", "cols", "row", "tally", "index")

    def __init__(self, n_chunks: int) -> None:
        self.n_chunks = int(n_chunks)
        own = _OwnRow(self.n_chunks)
        self.cols = self.tally = own
        self.row = self.index = 0

    def move(self, cols, row: int, tally, index: int) -> None:
        """Copy the entry to ``cols[row]`` / ``tally[index]`` and point there."""
        n = self.n_chunks
        for name in ("masks", "missed"):
            getattr(cols, name)[row, :n] = getattr(self.cols, name)[self.row, :n]
        for name in ("position", "played", "last_advance"):
            getattr(cols, name)[row] = getattr(self.cols, name)[self.row]
        for name in ("capacity", "downloaded", "uploaded", "first_delivery"):
            getattr(tally, name)[index] = getattr(self.tally, name)[self.index]
        self.cols, self.row, self.tally, self.index = cols, row, tally, index

    def detach(self) -> None:
        """Move the entry into a fresh private copy (the peer went offline)."""
        own = _OwnRow(self.n_chunks)
        self.move(own, 0, own, 0)


class RowField:
    """An attribute stored in the owner's :class:`PeerRow`.

    ``column`` names a row column, or a counter column when ``tally``;
    reads convert the stored value with ``kind``.  The owner keeps its
    handle in ``peer_row``.
    """

    __slots__ = ("column", "kind", "tally")

    def __init__(self, column: str, kind, tally: bool = False) -> None:
        self.column = column
        self.kind = kind
        self.tally = tally

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        r = obj.peer_row
        if self.tally:
            return self.kind(getattr(r.tally, self.column)[r.index])
        return self.kind(getattr(r.cols, self.column)[r.row])

    def __set__(self, obj, value) -> None:
        r = obj.peer_row
        if self.tally:
            getattr(r.tally, self.column)[r.index] = value
        else:
            getattr(r.cols, self.column)[r.row] = value


class ChunkBuffer:
    """Holds chunk indices of one video for one peer.

    Parameters
    ----------
    video:
        The video whose chunks this buffer stores.
    """

    def __init__(self, video: Video) -> None:
        self.video = video
        #: The peer's entry in the per-peer state columns.
        self.peer_row = PeerRow(video.n_chunks)

    # ------------------------------------------------------------------
    # Content management
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))

    def __contains__(self, index: int) -> bool:
        return self.holds(index)

    def holds(self, index: int) -> bool:
        """Whether chunk ``index`` is in the buffer."""
        r = self.peer_row
        return 0 <= index < r.n_chunks and bool(r.cols.masks[r.row, index])

    def add(self, index: int) -> bool:
        """Insert chunk ``index``; returns ``False`` if it was already held."""
        if not 0 <= index < self.video.n_chunks:
            raise IndexError(
                f"chunk {index!r} out of range [0, {self.video.n_chunks})"
            )
        r = self.peer_row
        masks = r.cols.masks
        if masks[r.row, index]:
            return False
        masks[r.row, index] = True
        return True

    def add_many(self, indices: Iterable[int]) -> int:
        """Insert several chunks; returns how many were new."""
        return sum(1 for index in indices if self.add(index))

    def add_batch(self, indices) -> int:
        """Insert an array of chunks with one bitmap write; returns how many were new.

        Same outcome as calling :meth:`add` per index (duplicates within
        the batch count once).
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            return 0
        bad = idx[(idx < 0) | (idx >= self.video.n_chunks)]
        if bad.size:
            raise IndexError(
                f"chunk {int(bad[0])!r} out of range [0, {self.video.n_chunks})"
            )
        idx = np.unique(idx)
        mask = self.mask
        added = int(idx.size - np.count_nonzero(mask[idx]))
        mask[idx] = True
        return added

    def fill_range(self, start: int, stop: int) -> None:
        """Mark ``[start, stop)`` as held — used to pre-seed buffers."""
        if start < 0 or stop > self.video.n_chunks or start > stop:
            raise ValueError(
                f"bad range [{start!r}, {stop!r}) for video of "
                f"{self.video.n_chunks} chunks"
            )
        self.mask[start:stop] = True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def mask(self) -> np.ndarray:
        """Zero-copy bool bitmap over chunk indices: the peer's row.

        A live view, not a snapshot: position ``i`` is ``True`` iff
        chunk ``i`` is currently held, and a write through it lands in
        the row.  The row moves when the peer is admitted or departs,
        so read the property again rather than keeping the view.
        """
        r = self.peer_row
        return r.cols.masks[r.row, : r.n_chunks]

    def bitmap(self) -> FrozenSet[int]:
        """Immutable snapshot advertised to neighbors."""
        return frozenset(np.nonzero(self.mask)[0].tolist())

    def contiguous_from(self, position: int) -> int:
        """Length of the held run starting at ``position`` (buffered playtime)."""
        start = max(0, position)
        segment = self.mask[start:]
        if not segment.size:
            return 0
        first_gap = int(np.argmin(segment))
        if segment[first_gap]:
            return int(segment.size)  # no gap: held through the end
        return first_gap

    def completion(self) -> float:
        """Fraction of the video held, in [0, 1]."""
        return len(self) / self.video.n_chunks
