"""Persistent columnar (SoA) peer-state store behind the slot pipeline.

Before this module, every :meth:`~repro.p2p.system.P2PSystem.build_problem`
call re-derived its columnar inputs from the Python object graph: it
re-stacked every peer's buffer bitmap into per-video matrices, re-read
every playback position, and walked a per-peer loop to assemble the
candidate CSR — ~0.2 s of the ~0.23 s slot at 2 000 peers.  The store
keeps those columns *alive across slots* and updates them incrementally
at the few places state actually changes:

* **Per-peer state** has one owner, the columns here.  Each online
  peer's chunk bitmap and playback state are a row of a
  :class:`StateBucket`, and its upload capacity and transfer counters
  are entries of the store's peer-id-indexed columns.  Its
  :class:`~repro.vod.buffer.ChunkBuffer`,
  :class:`~repro.vod.playback.PlaybackSession` and
  :class:`~repro.p2p.peer.Peer` are views over those entries through
  the :class:`~repro.vod.buffer.PeerRow` they share, so a write through
  an object and a write to a column are the same write.  Admission
  moves the peer's private values into a row; departure moves them
  back out and zeroes the row.
* **Layout**: rows live in :class:`StateBucket` matrices keyed by chunk
  count, so every video of the paper's uniform catalog shares one
  matrix and the batched playback pass is a *single* vectorized sweep,
  not one per video.  :class:`VideoGroup` keeps the per-video sorted
  member-id tables the candidate lookups binary-search.
* **Membership** is recorded once, by peer id: the sorted array of
  online ids, and the id-indexed columns holding each online peer's
  bucket row and key, plus the values fixed at construction (seed
  flag, departure time, video), written once at admission; its ISP's
  one record is the cost model's ``topology``.  Ascending id is the
  only order: capacity columns, departure scans and request columns
  all come out in it.  Online ids and member tables are merged per
  batch in :meth:`PeerStateStore.admit_batch` and compacted per batch
  in :meth:`PeerStateStore.remove_batch`.
* **Candidate tables** (a watcher's same-video neighbor rows, ids and
  costs) are kept once, as spans of one pooled ``(rows, ids, costs)``
  triple addressed by two id-indexed columns, a start and a count (−1:
  no table).  A table is dropped when its peer's links change (the
  overlay's dirty set, :meth:`OverlayGraph.consume_dirty`), when the
  peer departs and on a cost-regime change.  A build makes the missing
  tables of its active watchers in one pass: one read of their
  neighbors, one same-video comparison against the id-indexed video
  column, and one ``costs_for_pairs`` call whose destination runs are
  the tables in ascending id order.  That is the order the per-request
  reference visits peers, so the cost model samples never-seen pairs in
  exactly its order (trajectory preservation); the per-table reference
  is in ``tests/oracles/assemble.py``.  A build reads all of a bucket's
  tables with one range gather, and the pool is compacted by one
  gather once its dead part outgrows its live part.
* **Playback** columns (start time/position, position, played count,
  last advance and the ``missed``-chunk bitmap) feed both the batched
  :meth:`PeerStateStore.advance_playback` and the window/valuation
  assembly in :meth:`PeerStateStore.assemble_requests`.

:meth:`PeerStateStore.assemble_requests` is the one request assembler:
one fused pass per bucket over word-packed windows.  It matches
the per-request builder in ``tests/oracles/slot.py`` bit for bit
(request order, valuations, candidate sets, costs), and the batched
advance matches the per-session ``advance_to`` and the per-chunk loop
there; the property suite under ``tests/properties/`` fuzzes whole
scenarios against these and against the cold per-group assembler in
``tests/oracles/assemble.py``.  Its ``pending`` input, the retry
queue's parked ``(peer, chunk)`` cells, is cleared from the available
windows, so a pending chunk is never requested and nothing downstream
subtracts pending requests; it is cleared after the build's missing
candidate tables are listed, so the tables made and counted, and the
cost draws, are those of the whole windows.

A build reads what its windows touch.  The held-chunk bitmap is read at
every candidate edge's window, so it is word-packed, but only over the
column band between the smallest and the largest due position (a word
or two per row for a synchronized audience).  The ``missed`` bitmap is
read only at each active watcher's own window, so those windows are
taken straight from the boolean matrix and folded into one word each;
it is never packed.

Window gathers use :func:`numpy.lib.stride_tricks.sliding_window_view`
over the matrices, which are padded with ``window`` always-False columns
so a window starting at any playback position stays in bounds.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..net.costs import CostModel
from ..net.topology import OverlayGraph
from ..vod.valuation import DeadlineValuation
from ..vod.video import Video
from .peer import Peer

__all__ = ["PeerStateStore", "StateBucket", "VideoGroup"]

_EMPTY_INT = np.empty(0, dtype=np.int64)
_EMPTY_FLOAT = np.empty(0, dtype=float)

#: Sessions this many chunks behind their due position are advanced
#: individually (their catch-up window would blow up the batch gather).
_BATCH_ADVANCE_LIMIT = 1024

#: Widest request window the packed-word branch supports: a window
#: starting at any bit offset within a word must fit the two-word read
#: below (63 offset bits + W ≤ 2·64 always holds, but the single right
#: shift needs W ≤ 64 − 7 to stay exact for byte-grained fallbacks).
#: Wider windows use the boolean branch.
_PACKED_WINDOW_MAX = 57


def _window_words(words_flat, wpr, rows, starts, W):
    """Request windows of word-packed rows, one ``uint64`` each.

    ``words_flat`` is a row-major ``(n_rows, wpr)`` uint64 matrix from
    :meth:`PeerStateStore._packed_matrices`, flattened, holding column
    ``64·q + j`` of each row's band at bit ``63 - j`` of word ``q``
    (big-endian ``np.packbits`` order); ``starts`` are band columns.  A
    window is then two aligned word gathers and a shift: bit
    ``W - 1 - k`` of the result is column ``start + k`` (MSB-first), so
    word-wise AND/OR over windows is bit-for-bit the boolean-matrix
    computation.  Requires ``wpr`` wide enough that word
    ``(start >> 6) + 1`` stays inside the row.
    """
    q = starts >> np.int64(6)
    r = (starts & np.int64(63)).astype(np.uint64)
    base = rows * np.int64(wpr) + q
    hi = words_flat[base] << r
    lo = words_flat[base + 1] >> ((np.uint64(64) - r) & np.uint64(63))
    np.multiply(lo, r != 0, out=lo)
    return (hi | lo) >> np.uint64(64 - W)


def _merge_ids(table: np.ndarray, ids: Sequence[int]) -> np.ndarray:
    """Sorted ``table`` with the new, distinct ``ids`` merged in."""
    add = np.sort(np.asarray(ids, dtype=np.int64))
    return np.insert(table, np.searchsorted(table, add), add)


class StateBucket:
    """Row storage shared by every video with the same chunk count.

    Rows are assigned on admission and stay stable until the peer
    departs (freed rows are zeroed and recycled — possibly by a peer of
    a *different* video with the same chunk count).  Holding all
    same-shape videos in one matrix lets the batched playback advance
    run as one vectorized sweep regardless of catalog size.  The
    columns ``masks``, ``missed``, ``position``, ``played`` and
    ``last_advance`` are the online peers' own state: their buffers and
    sessions read and write them through their
    :class:`~repro.vod.buffer.PeerRow`.
    """

    def __init__(self, n_chunks: int, window: int) -> None:
        self.n_chunks = int(n_chunks)
        self.window = max(1, int(window))
        #: Matrix width: chunk columns plus ``window`` always-False pad
        #: columns so window gathers starting at any position ≤ n_chunks
        #: stay in bounds.
        self.padded = self.n_chunks + self.window
        cap = 8
        self.masks = np.zeros((cap, self.padded), dtype=bool)
        self.missed = np.zeros((cap, self.padded), dtype=bool)
        self.free_rows: List[int] = []
        self.n_rows = 0  # high-water mark of allocated rows
        # Row-indexed columns (valid where a peer occupies the row).
        self.peer_ids = np.full(cap, -1, dtype=np.int64)
        self.start_time = np.zeros(cap, dtype=float)
        self.start_pos = np.zeros(cap, dtype=np.int64)
        self.position = np.zeros(cap, dtype=np.int64)
        self.played = np.zeros(cap, dtype=np.int64)
        self.last_advance = np.zeros(cap, dtype=float)
        self.cps = np.zeros(cap, dtype=float)  # chunks per second
        self.has_session = np.zeros(cap, dtype=bool)
        # Bucket-wide watcher rows (rows with sessions, row order).
        self._watchers_stale = True
        self._watcher_rows = _EMPTY_INT
        # Cached sliding-window views (invalid after _grow reallocates).
        self._swv: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def window_views(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(masks, missed)`` sliding-window views, cached.

        Pure views over the live matrices — row writes are visible
        through them — so they stay valid until :meth:`_grow` swaps the
        backing storage.
        """
        if self._swv is None:
            self._swv = (
                sliding_window_view(self.masks, self.window, axis=1),
                sliding_window_view(self.missed, self.window, axis=1),
            )
        return self._swv

    # ------------------------------------------------------------------
    # Rows
    # ------------------------------------------------------------------
    def _grow(self) -> None:
        old_cap = self.masks.shape[0]
        new_cap = old_cap * 2
        for arr_name in (
            "masks", "missed", "peer_ids", "start_time", "start_pos",
            "position", "played", "last_advance", "cps", "has_session",
        ):
            old = getattr(self, arr_name)
            new = np.zeros((new_cap,) + old.shape[1:], dtype=old.dtype)
            new[:old_cap] = old
            setattr(self, arr_name, new)
        self.peer_ids[old_cap:] = -1
        self._swv = None

    def admit_row(self, peer: Peer, tally) -> int:
        """Assign ``peer`` a row and move its state there.

        ``tally`` holds the id-indexed columns the peer's capacity and
        counters move to (the store).
        """
        if self.free_rows:
            row = self.free_rows.pop()
        else:
            if self.n_rows >= self.masks.shape[0]:
                self._grow()
            row = self.n_rows
            self.n_rows += 1
        self.peer_ids[row] = peer.peer_id
        self.cps[row] = peer.video.chunks_per_second
        session = peer.session
        if session is not None:
            self.start_time[row] = session.start_time
            self.start_pos[row] = session.start_position
        self.has_session[row] = session is not None
        peer.peer_row.move(self, row, tally, peer.peer_id)
        self._watchers_stale = True
        return row

    def release_row(self, peer: Peer, row: int) -> None:
        """Free ``row``: the peer takes a private copy, the row is zeroed."""
        peer.peer_row.detach()
        self.masks[row] = False
        self.missed[row] = False
        self.peer_ids[row] = -1
        self.position[row] = 0
        self.played[row] = 0
        self.last_advance[row] = 0.0
        self.has_session[row] = False
        self.free_rows.append(row)
        self._watchers_stale = True

    def watcher_rows(self) -> np.ndarray:
        """Every occupied row with a session, ascending."""
        if self._watchers_stale:
            occupied = self.has_session[: self.n_rows]
            self._watcher_rows = np.nonzero(occupied)[0].astype(np.int64)
            self._watchers_stale = False
        return self._watcher_rows

    def play(
        self, rows: np.ndarray, start: np.ndarray, stop: np.ndarray
    ) -> np.ndarray:
        """Play chunks ``[start, stop)`` of each row; returns misses per row.

        One gather over the bitmap: held chunks count as played, the
        others are marked in ``missed``, and ``position`` moves to
        ``stop``.  Requires ``stop > start`` on every row.
        """
        widths = stop - start
        w_max = int(widths.max())
        cols = start[:, None] + np.arange(w_max, dtype=np.int64)[None, :]
        if w_max > self.window:
            # Catch-up windows can overrun the padded columns.
            np.minimum(cols, self.n_chunks, out=cols)
        miss = ~self.masks[rows[:, None], cols]
        if int(widths.min()) != w_max:
            miss &= np.arange(w_max, dtype=np.int64)[None, :] < widths[:, None]
        missed = miss.sum(axis=1)
        if missed.any():
            mr, mc = np.nonzero(miss)
            self.missed[rows[mr], start[mr] + mc] = True
        self.position[rows] = stop
        self.played[rows] += widths - missed
        return missed


class VideoGroup:
    """Per-video membership table over a :class:`StateBucket`.

    ``member_ids`` is the sorted-id table the candidate lookups
    binary-search; a member's row in :attr:`bucket` is read from the
    store's id-indexed row table.
    """

    def __init__(self, video: Video, bucket: StateBucket) -> None:
        self.video = video
        self.bucket = bucket
        self.n_chunks = int(video.n_chunks)
        self.window = bucket.window
        self.member_ids = _EMPTY_INT  # sorted peer ids
        # Watcher view (members with playback sessions), member order.
        self._watchers_stale = True
        self._watcher_rows = _EMPTY_INT
        self._watcher_ids = _EMPTY_INT

    def watcher_arrays(self, row_table: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, ids)`` of members with sessions, sorted-id order.

        ``row_table`` is the store's id-indexed row table.
        """
        if self._watchers_stale:
            rows = row_table[self.member_ids]
            with_session = self.bucket.has_session[rows]
            self._watcher_rows = rows[with_session]
            self._watcher_ids = self.member_ids[with_session]
            self._watchers_stale = False
        return self._watcher_rows, self._watcher_ids


class PeerStateStore:
    """All columnar peer state, maintained incrementally across slots.

    Owned by :class:`~repro.p2p.system.P2PSystem`.  Membership changes
    through :meth:`admit_batch` / :meth:`remove_batch`; the per-peer
    state of online peers is only ever here, written by the batched
    delivery and playback passes and, one peer at a time, through the
    peers' views.
    """

    def __init__(
        self, overlay: OverlayGraph, costs: CostModel, window: int
    ) -> None:
        self.overlay = overlay
        self.costs = costs
        self.window = max(1, int(window))
        self.buckets: Dict[int, StateBucket] = {}
        self.groups: Dict[int, VideoGroup] = {}
        # The online peer ids, ascending.  Replaced, never written in
        # place, so an array handed out stays as it was.
        self._online_ids = _EMPTY_INT
        for name, empty in self._ID_COLUMNS:
            setattr(self, name, np.full(64, empty))
        # The candidate-table pool: peer ``pid``'s table is the span
        # ``[_table_start[pid], _table_start[pid] + _table_count[pid])``
        # of these three arrays.  Dropped spans stay until a compaction;
        # ``_pool_live`` counts the edges of the tables still held.
        self._pool_rows = _EMPTY_INT
        self._pool_ids = _EMPTY_INT
        self._pool_costs = _EMPTY_FLOAT
        self._pool_live = 0
        self._dropped = 0  # tables dropped since the last build
        #: Running totals of the builds' candidate tables: ``reused``
        #: (active watchers whose table was kept), ``rebuilt`` (tables
        #: made; a build that makes any makes one ``costs_for_pairs``
        #: call) and ``dropped`` (tables dropped since the build
        #: before).  The slot trace reports their per-slot differences.
        self.table_counts: Dict[str, int] = {
            "reused": 0, "rebuilt": 0, "dropped": 0,
        }

    # ------------------------------------------------------------------
    # Membership hooks
    # ------------------------------------------------------------------
    #: Peer-id-indexed columns and the value an id without an online
    #: peer reads: the bucket row and key, the values fixed at the
    #: peer's construction (seed flag, departure time and video,
    #: written once at admission), and the peers' own upload capacity
    #: and transfer counters, which their
    #: ``upload_capacity_chunks`` / ``chunks_downloaded`` /
    #: ``chunks_uploaded`` / ``first_delivery_time`` read and write,
    #: and the span of the peer's candidate table in the pool (count
    #: −1: no table).
    _ID_COLUMNS = (
        ("_row_table", -1), ("_bucket_key", -1), ("_seed_table", False),
        ("_departure_table", np.inf), ("capacity", 0), ("downloaded", 0),
        ("uploaded", 0), ("first_delivery", np.nan), ("_table_start", 0),
        ("_table_count", -1), ("_video_table", -1),
    )

    def _ensure_group(self, peer: Peer) -> VideoGroup:
        """The peer's :class:`VideoGroup`, creating group/bucket on demand."""
        vid = peer.video.video_id
        group = self.groups.get(vid)
        if group is None:
            n_chunks = int(peer.video.n_chunks)
            bucket = self.buckets.get(n_chunks)
            if bucket is None:
                bucket = StateBucket(n_chunks, self.window)
                self.buckets[n_chunks] = bucket
            group = VideoGroup(peer.video, bucket)
            self.groups[vid] = group
        return group

    def _bind(self, peer: Peer) -> VideoGroup:
        """Move ``peer`` into a bucket row and write its id-indexed entries.

        Returns the peer's group; the caller enters the id in the member
        table and the online ids.
        """
        pid = peer.peer_id
        if pid >= len(self._row_table):
            size = max(len(self._row_table) * 2, pid + 1)
            for name, empty in self._ID_COLUMNS:
                old = getattr(self, name)
                new = np.full(size, empty, dtype=old.dtype)
                new[: len(old)] = old
                setattr(self, name, new)
        group = self._ensure_group(peer)
        self._row_table[pid] = group.bucket.admit_row(peer, self)
        self._bucket_key[pid] = group.bucket.n_chunks
        self._seed_table[pid] = peer.is_seed
        self._departure_table[pid] = (
            np.inf if peer.departure_time is None else peer.departure_time
        )
        self._video_table[pid] = peer.video.video_id
        return group

    def admit_batch(self, peers: Iterable[Peer]) -> None:
        """Admit peers, in order: every admission takes this path.

        The online ids and each touched video's sorted member table are
        merged once, not rebuilt by one ``np.insert`` per peer; the
        store ends as it would after admitting the peers one by one
        (the per-peer reference is ``admit`` in
        ``tests/oracles/slot.py``).  ``peers`` is read once, and each
        peer moves into its row when reached, so an iterator that makes
        peers on demand keeps one private row copy alive at a time.
        """
        per_group: Dict[int, List[int]] = {}
        for peer in peers:
            group = self._bind(peer)
            per_group.setdefault(group.video.video_id, []).append(peer.peer_id)
        for vid, id_list in per_group.items():
            group = self.groups[vid]
            group.member_ids = _merge_ids(group.member_ids, id_list)
            group._watchers_stale = True
        if per_group:
            self._online_ids = _merge_ids(
                self._online_ids,
                [pid for id_list in per_group.values() for pid in id_list],
            )

    def remove_batch(self, peers: Sequence[Peer]) -> None:
        """Remove online peers, in order: every departure takes this path.

        One mask compaction of the online ids and of each touched member
        table, instead of an O(online) shift per departure; the per-peer
        reference is ``remove`` in ``tests/oracles/slot.py``.  Raises
        ``KeyError``, before changing anything, if a peer is not online.
        """
        if not peers:
            return
        ids = np.fromiter(
            (p.peer_id for p in peers), dtype=np.int64, count=len(peers)
        )
        rows = self._online_rows(ids).tolist()
        per_group: Dict[int, List[int]] = {}
        for i, peer in enumerate(peers):
            per_group.setdefault(peer.video.video_id, []).append(i)
        for vid, idx in per_group.items():
            group = self.groups[vid]
            for i in idx:
                group.bucket.release_row(peers[i], rows[i])
            keep = ~np.isin(group.member_ids, ids[idx])
            group.member_ids = group.member_ids[keep]
            group._watchers_stale = True
        self._online_ids = self._online_ids[~np.isin(self._online_ids, ids)]
        self._drop_tables(ids)
        self._clear_ids(ids)

    def _clear_ids(self, ids) -> None:
        """Reset departed ids in every id-indexed column."""
        for name, empty in self._ID_COLUMNS:
            getattr(self, name)[ids] = empty

    def invalidate_costs(self) -> None:
        """Drop every candidate table (cost-regime change).

        Scenario-engine hook: after a mid-run ISP price shock the tables
        hold stale costs; dropping them makes the next build re-read
        them from the cost model (only its pair cache: no random draws
        are consumed, so the run's cost trajectory is unperturbed).
        """
        self._drop_tables(self._online_ids)

    # ------------------------------------------------------------------
    # Columns
    # ------------------------------------------------------------------
    def capacity_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(peer_ids, upload capacities)`` of the online peers, ascending id.

        The id array is the store's own (do not mutate); the capacities
        are a copy.
        """
        ids = self._online_ids
        return ids, self.capacity[ids]

    def _online_rows(self, ids: np.ndarray) -> np.ndarray:
        """Bucket rows of the peers ``ids``; ``KeyError`` if one is not online.

        An offline id's row reads −1, which would index another peer's
        row, so it is refused rather than read.
        """
        online = (ids >= 0) & (ids < len(self._row_table))
        online[online] = self._row_table[ids[online]] >= 0
        if not online.all():
            raise KeyError(f"peer {int(ids[~online][0])} is not online")
        return self._row_table[ids]

    def holds(self, ids: np.ndarray, chunks: np.ndarray) -> np.ndarray:
        """Whether each online peer ``ids[i]`` holds chunk ``chunks[i]``.

        The column form of ``peer.buffer.holds``: one gather of the
        bitmap matrix per bucket key, and ``False`` for a chunk outside
        the peer's video.  Raises ``KeyError`` on an id that is not
        online.
        """
        rows = self._online_rows(ids)
        keys = self._bucket_key[ids]
        out = np.zeros(len(ids), dtype=bool)
        for key in np.unique(keys).tolist():
            at = np.flatnonzero(keys == key)
            c = chunks[at]
            inside = (c >= 0) & (c < key)
            at, c = at[inside], c[inside]
            out[at] = self.buckets[key].masks[rows[at], c]
        return out

    def playback_positions(self, video_id: int, ids: np.ndarray) -> np.ndarray:
        """Positions of the online peers ``ids`` of video ``video_id``.

        NaN for a peer without a playback session (a seed).
        """
        bucket = self.groups[video_id].bucket
        rows = self._row_table[ids]
        return np.where(bucket.has_session[rows], bucket.position[rows], np.nan)

    def departure_scan(self, t: float, remove_finished: bool) -> List[int]:
        """Non-seed peers due to leave at slot boundary ``t``, ascending id.

        One mask over the departure-time column (``inf`` = stays), plus
        — when ``remove_finished`` — a per-group finished check on the
        position column.  Matches the reference loop over the online
        peers in id order (``departure_time <= t`` or
        ``session.finished``); the batched removal keeps that order.
        """
        ids = self._online_ids
        doomed = (self._departure_table[ids] <= t) & ~self._seed_table[ids]
        if remove_finished:
            finished: List[np.ndarray] = []
            for group in self.groups.values():
                rows, g_ids = group.watcher_arrays(self._row_table)
                if not len(rows):
                    continue
                done = group.bucket.position[rows] >= group.n_chunks
                if done.any():
                    finished.append(g_ids[done])
            if finished:
                doomed |= np.isin(ids, np.concatenate(finished))
        return ids[doomed].tolist()

    # ------------------------------------------------------------------
    # Candidate tables
    # ------------------------------------------------------------------
    def _drain_overlay(self) -> None:
        """Drop the candidate tables of peers whose links changed.

        Every overlay node was admitted to the store first, so its id
        lies inside the id-indexed columns.
        """
        dirty = self.overlay.consume_dirty()
        if dirty:
            self._drop_tables(np.fromiter(dirty, dtype=np.int64, count=len(dirty)))

    def _drop_tables(self, ids: np.ndarray) -> None:
        """Drop the candidate tables of the distinct ``ids`` that hold one."""
        counts = self._table_count[ids]
        held = counts >= 0
        if held.any():
            self._pool_live -= int(counts[held].sum())
            self._table_count[ids[held]] = -1
            self._dropped += int(np.count_nonzero(held))

    def _build_tables(self, need: np.ndarray) -> None:
        """Build the candidate tables of the ascending ids ``need``.

        One pass for them all: one read of their neighbors, one
        same-video comparison, one ``costs_for_pairs`` call whose
        destination runs are the tables in id order (so the cost model
        draws exactly what one call per table would), and one pool
        append.  Before that, a pool whose dead part outgrows its live
        part is compacted by one gather of the live tables.
        """
        if len(self._pool_ids) > 2 * self._pool_live:
            live = self._online_ids[self._table_count[self._online_ids] >= 0]
            _, indptr, rows, ids, costs = self._gather_tables(live)
            self._pool_rows, self._pool_ids, self._pool_costs = rows, ids, costs
            self._table_start[live] = indptr[:-1]
        if not len(need):
            return
        counts, neighbors = self.overlay.neighbor_columns(need)
        owner = np.repeat(np.arange(len(need)), counts)
        videos = self._video_table
        same = videos[neighbors] == videos[need][owner]
        ids = neighbors[same]
        owner = owner[same]
        counts = np.bincount(owner, minlength=len(need))
        costs = self.costs.costs_for_pairs(ids, need[owner])
        self._table_start[need] = np.cumsum(counts) - counts + len(self._pool_ids)
        self._table_count[need] = counts
        self._pool_live += len(ids)
        self._pool_rows = np.concatenate((self._pool_rows, self._row_table[ids]))
        self._pool_ids = np.concatenate((self._pool_ids, ids))
        self._pool_costs = np.concatenate((self._pool_costs, costs))

    def _gather_tables(self, ids: np.ndarray):
        """The tables of ``ids`` concatenated in their order, by one gather.

        Returns ``(counts, indptr, rows, ids, costs)``, a CSR over
        ``ids``; every id must hold a table.
        """
        counts = self._table_count[ids]
        indptr = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        idx = np.repeat(self._table_start[ids] - indptr[:-1], counts)
        idx += np.arange(int(indptr[-1]), dtype=np.int64)
        return (
            counts, indptr,
            self._pool_rows[idx], self._pool_ids[idx], self._pool_costs[idx],
        )

    # ------------------------------------------------------------------
    # Batched delivery (transfer-apply hot path)
    # ------------------------------------------------------------------
    def deliver_runs(
        self,
        ids: np.ndarray,
        starts: np.ndarray,
        stops: np.ndarray,
        chunks: np.ndarray,
        now: float,
    ) -> np.ndarray:
        """Deliver per-peer chunk runs; returns the newly held chunks per run.

        ``chunks[starts[i]:stops[i]]`` is the (unique, in-range) chunk
        batch for downloader ``ids[i]`` — the downloader-grouped runs
        ``_apply_transfers`` derives from the served columns.  Rows come
        from the id-indexed row table, and each state bucket takes *one*
        fancy-indexed read-then-write over its mask matrix.  Each
        downloader's ``downloaded`` counter grows by its new chunks, and
        its ``first_delivery`` is stamped ``now`` if unset.  Caller
        contract: every id is online, and no (peer, chunk) pair repeats
        within the batch.
        """
        lens = stops - starts
        rows = self._row_table[ids]
        keys = self._bucket_key[ids]
        added = np.zeros(len(ids), dtype=np.int64)
        for key in np.unique(keys).tolist():
            bucket = self.buckets[key]
            run_idx = np.flatnonzero(keys == key)
            s = starts[run_idx]
            l = lens[run_idx]
            total = int(l.sum())
            offs = np.zeros(len(run_idx), dtype=np.int64)
            np.cumsum(l[:-1], out=offs[1:])
            edge_idx = np.repeat(s - offs, l) + np.arange(total, dtype=np.int64)
            rows_e = np.repeat(rows[run_idx], l)
            ch = chunks[edge_idx]
            held = bucket.masks[rows_e, ch]
            bucket.masks[rows_e, ch] = True
            new = ~held
            if bool(new.all()):
                added[run_idx] = l
            else:
                rid = np.repeat(np.arange(len(run_idx), dtype=np.int64), l)
                added[run_idx] = np.bincount(
                    rid, weights=new, minlength=len(run_idx)
                ).astype(np.int64)
        np.add.at(self.downloaded, ids, added)
        first = self.first_delivery
        first[ids[np.isnan(first[ids])]] = now
        return added

    def record_uploads(self, uploaders: np.ndarray) -> None:
        """Count one upload per entry of ``uploaders`` (online peer ids)."""
        counts = np.bincount(uploaders)
        self.uploaded[: len(counts)] += counts

    # ------------------------------------------------------------------
    # Request assembly (build_problem hot path)
    # ------------------------------------------------------------------
    def assemble_requests(
        self,
        now: float,
        valuation: DeadlineValuation,
        lookahead: float = 0.0,
        pending: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ):
        """All slot requests as flat columns in reference request order.

        Returns ``None`` when no peer requests anything, else
        ``(peers, chunk_pairs, valuations, cand_ids, cand_costs,
        indptr)`` where ``chunk_pairs`` is the ``(R, 2)``
        ``(video_id, chunk_index)`` column and the CSR candidate arrays
        are sorted by uploader id within each request — exactly the
        problem the per-request builder in ``tests/oracles/slot.py``
        constructs.

        ``pending`` is the retry queue's ``(peer, chunk)`` columns: the
        chunks whose transfer is parked for a retry (a peer watches one
        video, so the video is implied).  Their cells are left out of
        the windows, so they yield neither a request nor an edge, and
        the auction cannot assign a pending chunk twice.  They are
        cleared only after the build has listed the tables it must
        make, so they change no table it makes or counts: a watcher
        whose every available cell is pending keeps its table and
        counts as reused, exactly as when the pending requests are
        dropped after assembly (the reference in
        ``tests/oracles/assemble.py``), and the cost draws and the
        trace's table counts stay the same.

        Every call drops the tables of peers whose links changed and
        assembles in one fused pass per bucket
        (:meth:`_assemble_buckets`).  Windows and valuations are
        recomputed on every call (playback shifts the deadline
        fractions); only the candidate tables carry over between builds.
        """
        self._drain_overlay()
        return self._assemble_buckets(now, valuation, lookahead, pending)

    @staticmethod
    def _pack_requests(peers, vids, chunks, vals, counts, cand_ids, cand_costs):
        """Permute concatenated request columns into ascending peer-id order.

        Shared with the cold oracle assembler.  Any concatenation
        order is acceptable on entry as long as each peer's requests
        stay window-ordered relative to each other (a peer watches one
        video, so its requests come from a single group): the stable
        sort by peer id then lands every column on identical bytes.
        """
        n_req = len(peers)
        if not np.all(peers[1:] >= peers[:-1]):
            perm = np.argsort(peers, kind="stable")
            old_indptr = np.zeros(n_req + 1, dtype=np.int64)
            np.cumsum(counts, out=old_indptr[1:])
            lens = counts[perm]
            indptr = np.zeros(n_req + 1, dtype=np.int64)
            np.cumsum(lens, out=indptr[1:])
            edge_idx = np.repeat(
                old_indptr[:-1][perm] - indptr[:-1], lens
            ) + np.arange(len(cand_ids), dtype=np.int64)
            peers = peers[perm]
            chunks = chunks[perm]
            vals = vals[perm]
            vids = vids[perm]
            cand_ids = cand_ids[edge_idx]
            cand_costs = cand_costs[edge_idx]
        else:
            indptr = np.zeros(n_req + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
        pairs = np.empty((n_req, 2), dtype=np.int64)
        pairs[:, 0] = vids
        pairs[:, 1] = chunks
        return peers, pairs, vals, cand_ids, cand_costs, indptr

    def _assemble_buckets(
        self, now: float, valuation: DeadlineValuation, lookahead: float,
        pending: Optional[Tuple[np.ndarray, np.ndarray]],
    ):
        """The assembler proper: one fused pass per bucket.

        Byte-identical output to the cold per-group assembler kept in
        ``tests/oracles/assemble.py`` (pinned by the property suite),
        with three structural shortcuts:

        * every group sharing a :class:`StateBucket` (same chunk count,
          same window) is prepared and finished in a single batched
          pass, so the per-group numpy fixed costs stop dominating at
          small scale;
        * ``avail`` gates the requested cells instead of being
          broadcast over the edge matrix, and valuations are evaluated
          only at requested cells (both are elementwise, so restricting
          them changes no bytes);
        * candidate edges come out of a (watcher, chunk, neighbor) bit
          block in the order the problem wants (:meth:`_finish_bucket`),
          so the full-matrix ``nonzero`` and edge-key argsort disappear.

        Active watchers without a candidate table get one first
        (:meth:`_build_tables`), and the build's tables are counted into
        :attr:`table_counts`.  Only then are the ``pending`` cells
        cleared from ``avail`` (:meth:`_clear_pending`; the reason is
        in :meth:`assemble_requests`).

        Group concatenation order is free here: each peer watches one
        video, so the id-order permutation in :meth:`_pack_requests`
        lands on identical bytes regardless.
        """
        staged = []
        need: List[np.ndarray] = []
        per_bucket: Dict[int, list] = {}
        bucket_order: List[StateBucket] = []
        n_active = 0
        for group in self.groups.values():
            rows, ids = group.watcher_arrays(self._row_table)
            if not len(rows):
                continue
            key = id(group.bucket)
            if key not in per_bucket:
                per_bucket[key] = []
                bucket_order.append(group.bucket)
            per_bucket[key].append((group, rows, ids))
        for bucket in bucket_order:
            entries = per_bucket[id(bucket)]
            n_chunks = bucket.n_chunks
            if len(entries) == 1:
                rows_all, ids_all = entries[0][1], entries[0][2]
                gidx = np.zeros(len(rows_all), dtype=np.int64)
            else:
                rows_all = np.concatenate([e[1] for e in entries])
                ids_all = np.concatenate([e[2] for e in entries])
                gidx = np.repeat(
                    np.arange(len(entries), dtype=np.int64),
                    np.fromiter(
                        (len(e[1]) for e in entries),
                        dtype=np.int64, count=len(entries),
                    ),
                )
            positions = bucket.position[rows_all]
            active = positions < n_chunks
            if not active.any():
                continue
            act_rows = rows_all[active]
            st = bucket.start_time[act_rows]
            sp = bucket.start_pos[act_rows]
            cps = bucket.cps[act_rows]
            due = sp + (np.maximum(0.0, now - st) * cps).astype(np.int64)
            np.minimum(due, n_chunks, out=due)
            W = bucket.window
            if W <= _PACKED_WINDOW_MAX:
                # Packed windows: availability as one word per watcher.
                # Bit W-1-k of each word is window offset k, so the
                # word ops below mirror the boolean branch bit-for-bit.
                pw, wpr, lo = self._packed_matrices(bucket, due)
                held_w = _window_words(pw, wpr, act_rows, due - lo, W)
                # The missed bitmap is read only at these windows: fold
                # each one (W bytes of the bool view) into its word.
                miss_b = np.zeros((len(due), 8), dtype=np.uint8)
                miss_b[:, : (W + 7) >> 3] = np.packbits(
                    bucket.window_views()[1][act_rows, due], axis=1
                )
                miss_w = miss_b.view(">u8").ravel().astype(np.uint64)
                miss_w >>= np.uint64(64 - W)
                full = np.uint64((1 << W) - 1)
                dead = np.uint64(W) - np.clip(
                    n_chunks - due, 0, W
                ).astype(np.uint64)
                in_range_w = (full >> dead) << dead
                avail = in_range_w & ~held_w & ~miss_w
                gated = avail != 0
                packed = (pw, wpr, lo)
            else:
                offs = np.arange(W, dtype=np.int64)
                in_range = (due[:, None] + offs[None, :]) < n_chunks
                swv_masks, swv_missed = bucket.window_views()
                held = swv_masks[act_rows, due]
                missed_win = swv_missed[act_rows, due]
                avail = in_range & ~held & ~missed_win
                gated = avail.any(axis=1)
                packed = None
            if not gated.any():
                continue
            act_rows = act_rows[gated]
            act_ids = ids_all[active][gated]
            agidx = gidx[active][gated]
            due = due[gated]
            avail = avail[gated]
            staged.append(
                (bucket, entries, act_rows, act_ids, due, avail, agidx, packed)
            )
            n_active += len(act_ids)
            need.append(act_ids[self._table_count[act_ids] < 0])
        # Build missing candidate tables in ascending id order so the
        # cost model samples never-seen pairs in exactly the reference's
        # order (trajectory preservation).
        made = np.sort(np.concatenate(need)) if need else _EMPTY_INT
        self._build_tables(made)
        tally = self.table_counts
        tally["reused"] += n_active - len(made)
        tally["rebuilt"] += len(made)
        tally["dropped"] += self._dropped
        self._dropped = 0
        if pending is not None and len(pending[0]):
            self._clear_pending(staged, *pending)
        outputs = []
        for stage in staged:
            part = self._finish_bucket(stage, now, valuation, lookahead)
            if part is not None:
                outputs.append(part)
        if not outputs:
            return None
        if len(outputs) == 1:
            peers, vids, chunks, vals, counts, cand_ids, cand_costs = outputs[0]
        else:
            peers = np.concatenate([o[0] for o in outputs])
            vids = np.concatenate([o[1] for o in outputs])
            chunks = np.concatenate([o[2] for o in outputs])
            vals = np.concatenate([o[3] for o in outputs])
            counts = np.concatenate([o[4] for o in outputs])
            cand_ids = np.concatenate([o[5] for o in outputs])
            cand_costs = np.concatenate([o[6] for o in outputs])
        return self._pack_requests(
            peers, vids, chunks, vals, counts, cand_ids, cand_costs
        )

    def _clear_pending(self, staged, peers: np.ndarray, chunks: np.ndarray) -> None:
        """Clear each ``(peer, chunk)`` cell from the staged ``avail`` windows.

        ``k = chunk − due`` is the cell's window offset: bit ``W − 1 − k``
        of a packed word, column ``k`` of a boolean window.  A peer that
        is not staged (offline, finished, nothing available) and a chunk
        outside its window change nothing.  Writes ``avail`` in place.
        """
        keys = self._bucket_key[peers]
        rows = self._row_table[peers]
        for bucket, _, act_rows, _, due, avail, _, packed in staged:
            mine = np.flatnonzero(keys == bucket.n_chunks)
            if not len(mine):
                continue
            at = np.full(bucket.n_rows, -1, dtype=np.int64)
            at[act_rows] = np.arange(len(act_rows), dtype=np.int64)
            i = at[rows[mine]]
            c = chunks[mine][i >= 0]
            i = i[i >= 0]
            k = c - due[i]
            inside = (k >= 0) & (k < bucket.window)
            i, k = i[inside], k[inside]
            if packed is None:
                avail[i, k] = False
            else:
                bits = np.uint64(1) << (bucket.window - 1 - k).astype(np.uint64)
                np.bitwise_and.at(avail, i, ~bits)

    def _packed_matrices(self, bucket: StateBucket, due: np.ndarray):
        """Word-packed held-chunk rows over the band the windows read.

        Every window of this build starts at an active watcher's due
        position, so only columns ``lo:hi`` are read: ``lo`` is the
        smallest due rounded down to a word boundary, ``hi`` the end of
        the window at the largest due.  Returns ``(words, wpr, lo)``:
        the band of each row as ``wpr`` native uint64 words in
        big-endian packbits bit order (chunk ``lo + 64q + j`` at bit
        ``63 - j`` of word ``q``), padded so the two-word read in
        :func:`_window_words` stays inside the row for every start in
        the band; a window starting at chunk ``s`` is read at
        ``s - lo``.  A synchronized audience packs a word or two per
        row; a staggered one spans the whole video.  Packed fresh on
        every assemble, since the matrix mutates between builds; no
        packed copy outlives the build.
        """
        n = bucket.n_rows
        lo = int(due.min()) & ~63
        top = int(due.max())
        hi = min(bucket.padded, top + bucket.window)
        width = max((hi - lo + 7) >> 3, ((top - lo) >> 3) + 16)
        width = (width + 7) & ~7
        pm = np.zeros((n, width), dtype=np.uint8)
        pb = np.packbits(bucket.masks[:n, lo:hi], axis=1)
        pm[:, : pb.shape[1]] = pb
        return pm.reshape(-1).view(">u8").astype(np.uint64), width >> 3, lo

    def _finish_bucket(self, stage, now, valuation, lookahead):
        """Requests and candidate edges of one prepared bucket, or ``None``.

        A requested cell is an available window cell some neighbor
        holds; its candidates are those holders.  Both come out of one
        ``(watcher, chunk, neighbor)`` bit block, so no array is sized
        by the (requested cell, neighbor) pair count.
        """
        bucket, entries, act_rows, act_ids, due, avail, agidx, packed = stage
        W = bucket.window
        if len(entries) > 1:
            # Watchers in peer-id order, so the emitted request column
            # is already ascending and :meth:`_pack_requests` skips its
            # request+edge permutation (requests outnumber watchers many
            # times over).  Each peer watches one video, so per-peer
            # window order is untouched: identical bytes to permuting
            # after the fact.
            order = np.argsort(act_ids, kind="stable")
            act_ids = act_ids[order]
            act_rows = act_rows[order]
            agidx = agidx[order]
            due = due[order]
            avail = avail[order]
        sel = self._table_count[act_ids] > 0
        if not sel.any():
            return None
        if not sel.all():
            act_rows = act_rows[sel]
            act_ids = act_ids[sel]
            agidx = agidx[sel]
            due = due[sel]
            avail = avail[sel]
        nb_counts, nb_indptr, nb_rows, nb_ids, nb_costs = self._gather_tables(
            act_ids
        )
        d = len(act_rows)
        owner = np.repeat(np.arange(d, dtype=np.int64), nb_counts)
        if packed is not None:
            # Word pipeline: one uint64 window per candidate edge.  A
            # cell is requested iff it is available and some neighbor
            # holds it, so OR-ing each watcher's edge words and masking
            # with ``avail`` gives its requested cells, and masking each
            # edge word with those leaves exactly the holders' bits.
            pw, wpr, lo = packed
            words = _window_words(pw, wpr, nb_rows, (due - lo)[owner], W)
            req_w = np.bitwise_or.reduceat(words, nb_indptr[:-1]) & avail
            words &= req_w[owner]
            edges = np.flatnonzero(words)
            # Shifting offset 0 up to bit 63 makes big-endian bytes plus
            # unpackbits put window offset k in column k.
            top = (words[edges] << np.uint64(64 - W)).astype(">u8")
            top = top.view(np.uint8).reshape(-1, 8)[:, : (W + 7) >> 3]
            bits = np.unpackbits(top, axis=1)[:, :W]
        else:
            swv_masks, _ = bucket.window_views()
            have = swv_masks[nb_rows, due[owner]]
            requested = np.logical_or.reduceat(have, nb_indptr[:-1], axis=0)
            requested &= avail
            have &= requested[owner]
            edges = np.arange(len(nb_rows), dtype=np.int64)
            bits = have
        # Scatter each holder bit to (watcher, chunk, neighbor slot):
        # the block's nonzeros then come out in the problem's edge order
        # (candidate segments ascend by uploader id), and each requested
        # cell is one run of equal (watcher, chunk) in that order.
        K = int(nb_counts.max())
        e_owner = owner[edges]
        block = np.zeros((d, W, K), dtype=bool)
        block[e_owner, :, edges - nb_indptr[e_owner]] = bits
        flat = np.flatnonzero(block)
        if not len(flat):
            return None
        cell = flat // K
        edge = flat - cell * K
        edge += nb_indptr[cell // W]
        cand_ids = nb_ids[edge]
        cand_costs = nb_costs[edge]
        run = np.flatnonzero(cell[1:] != cell[:-1]) + 1
        req_counts = np.diff(run, prepend=0, append=len(flat))
        req_cells = cell[np.concatenate(([0], run))]
        rd = req_cells // W
        rc = req_cells - rd * W
        req_rows = act_rows[rd]
        req_peers = act_ids[rd]
        req_chunks = due[rd] + rc
        st = bucket.start_time[req_rows]
        sp = bucket.start_pos[req_rows]
        cps = bucket.cps[req_rows]
        # Same elementwise expression (and op order) as the reference's
        # full-window matrix, evaluated at the requested cells only.
        deadlines = (st + (req_chunks - sp) / cps) - now
        req_vals = valuation.values(np.maximum(0.0, deadlines - lookahead))
        vids = np.fromiter(
            (group.video.video_id for group, _, _ in entries),
            dtype=np.int64, count=len(entries),
        )[agidx[rd]]
        return req_peers, vids, req_chunks, req_vals, req_counts, cand_ids, cand_costs

    # ------------------------------------------------------------------
    # Batched playback
    # ------------------------------------------------------------------
    def advance_playback(self, to_time: float, rollup=None) -> Tuple[int, int]:
        """Advance every eligible session; returns ``(due, missed)``.

        ``rollup`` (an :class:`~repro.obs.rollup.IspRollup`, when the
        run has one attached) receives the same due/missed counts
        broken down by the watcher's home ISP (the cost model's topology
        column) — computed from the per-row arrays the batch pass
        already holds, so the disabled path pays nothing.

        One vectorized pass per bucket (a single pass for uniform
        catalogs) replaces the per-session ``advance_to`` loop: targets
        from the session start columns, held counts from one window
        gather on the bitmap matrix, misses into the ``missed`` matrix.
        Sessions whose ``start_time >= to_time`` are untouched — they
        have nothing due yet; mid-slot admissions advance from their
        *own* start time on the first boundary after it.
        ``PlaybackSession.advance_to`` and the per-chunk loop in
        ``tests/oracles/slot.py`` pin the semantics.  Unlike the
        reference loop, a backwards ``to_time`` raises *before* any
        session (in any bucket) is advanced.
        """
        preps = []
        for bucket in self.buckets.values():
            rows = bucket.watcher_rows()
            if not len(rows):
                continue
            st = bucket.start_time[rows]
            eligible = st < to_time
            if not eligible.any():
                continue
            last = bucket.last_advance[rows]
            bad = eligible & (last > to_time)
            if bad.any():
                first = float(last[np.nonzero(bad)[0][0]])
                raise ValueError(
                    f"time went backwards: {to_time!r} < {first!r}"
                )
            preps.append((bucket, rows, st, eligible))
        due_total = 0
        missed_total = 0
        for prep in preps:
            due, missed = self._advance_prepared(prep, to_time, rollup)
            due_total += due
            missed_total += missed
        return due_total, missed_total

    def _advance_prepared(
        self, prep, to_time: float, rollup=None
    ) -> Tuple[int, int]:
        bucket, rows, st, eligible = prep
        positions = bucket.position[rows]
        target = bucket.start_pos[rows] + (
            np.maximum(0.0, to_time - st) * bucket.cps[rows]
        ).astype(np.int64)
        np.minimum(target, bucket.n_chunks, out=target)
        width = np.where(eligible, target - positions, 0)
        np.maximum(width, 0, out=width)
        row_missed = np.zeros(len(rows), dtype=np.int64)
        far = width > _BATCH_ADVANCE_LIMIT
        # Far-behind sessions (fresh joiners catching up a whole video)
        # play in a gather of their own, so the common one stays small.
        for part in ((width > 0) & ~far, far):
            idx = np.flatnonzero(part)
            if len(idx):
                row_missed[idx] = bucket.play(
                    rows[idx], positions[idx], target[idx]
                )
        bucket.last_advance[rows[eligible]] = to_time
        if rollup is not None:
            rollup.record_playback(
                self.costs.topology.column()[bucket.peer_ids[rows]],
                width,
                row_missed,
            )
        return int(width.sum()), int(row_missed.sum())

    # ------------------------------------------------------------------
    # Introspection / invariants (used by the staleness tests)
    # ------------------------------------------------------------------
    def check_consistency(self, peers: Dict[int, Peer], tracker=None) -> None:
        """Assert the store's membership and columns match ``peers``.

        Cheap enough for tests to call after every mutation: the online
        ids and each video's member table (and, when a ``tracker`` is
        given, its registry), the candidate-table pool (every span lies
        inside it, its live count is the online tables' edges, and no
        offline id holds a table), that every online peer's buffer,
        session and peer share one handle bound to the row the row
        table names, and the values written at admission (seed flag,
        departure time and video).
        """
        ids = sorted(peers)
        assert self._online_ids.tolist() == ids, "online ids drifted from peers"
        counts = self._table_count
        held = self._online_ids[counts[self._online_ids] >= 0]
        assert np.count_nonzero(counts >= 0) == len(held), (
            "an offline id holds a candidate table"
        )
        starts = self._table_start[held]
        ends = starts + counts[held]
        assert (starts >= 0).all() and (ends <= len(self._pool_ids)).all(), (
            "a candidate table's span leaves the pool"
        )
        assert int(counts[held].sum()) == self._pool_live, (
            "the pool's live count drifted from the tables"
        )
        by_video: Dict[int, List[int]] = {}
        for pid in ids:
            by_video.setdefault(peers[pid].video.video_id, []).append(pid)
        for vid in set(self.groups) | set(by_video):
            group = self.groups.get(vid)
            members = [] if group is None else group.member_ids.tolist()
            assert members == by_video.get(vid, []), (
                f"member table of video {vid} drifted from peers"
            )
        if tracker is not None:
            for vid, group in self.groups.items():
                assert set(group.member_ids.tolist()) == set(
                    tracker.members_view(vid)
                ), f"store/tracker membership drifted for video {vid}"
            assert len(tracker) == len(ids), "tracker holds peers the store lacks"
        for pid, peer in peers.items():
            bucket = self.groups[peer.video.video_id].bucket
            row = int(self._row_table[pid])
            handle = peer.peer_row
            assert (
                handle.cols is bucket
                and handle.row == row
                and handle.tally is self
                and handle.index == pid
            ), f"peer {pid} is not bound to its row"
            assert bucket.peer_ids[row] == pid, (
                f"bucket row {row} holds peer {bucket.peer_ids[row]}, not {pid}"
            )
            assert self._bucket_key[pid] == bucket.n_chunks, (
                f"bucket key of peer {pid} drifted"
            )
            assert peer.buffer.peer_row is handle and (
                peer.session is None or peer.session.peer_row is handle
            ), f"peer {pid}'s buffer or session has another handle"
            assert self._seed_table[pid] == peer.is_seed, (
                f"seed flag of peer {pid} drifted"
            )
            departure = (
                np.inf if peer.departure_time is None else peer.departure_time
            )
            assert self._departure_table[pid] == departure, (
                f"departure time of peer {pid} drifted"
            )
            assert self._video_table[pid] == peer.video.video_id, (
                f"video of peer {pid} drifted"
            )
