"""Persistent columnar (SoA) peer-state store behind the slot pipeline.

Before this module, every :meth:`~repro.p2p.system.P2PSystem.build_problem`
call re-derived its columnar inputs from the Python object graph: it
re-stacked every peer's buffer bitmap into per-video matrices, re-read
every playback position, and walked a per-peer loop to assemble the
candidate CSR — ~0.2 s of the ~0.23 s slot at 2 000 peers.  The store
keeps those columns *alive across slots* and updates them incrementally
at the few places state actually changes:

* **Buffer bitmaps** are not copies at all: each online peer's
  :class:`~repro.vod.buffer.ChunkBuffer` is *rebound* so its backing
  storage is a row of a shared bitmap matrix
  (:meth:`ChunkBuffer.rebind_storage`).  Chunk deliveries in
  ``_apply_transfers`` therefore update the matrix in place — there is
  one storage, so the matrix can never drift from the buffers.
* **Layout**: rows live in :class:`StateBucket` matrices keyed by chunk
  count, so every video of the paper's uniform catalog shares one
  matrix and the batched playback pass is a *single* vectorized sweep,
  not one per video.  :class:`VideoGroup` keeps the per-video sorted
  member-id tables the candidate lookups binary-search; its rows index
  into the bucket.
* **Membership** (member tables, row assignments, capacity / ISP
  columns in peer-dict order) is updated in :meth:`PeerStateStore.admit`
  / :meth:`PeerStateStore.remove`, guarded by
  :attr:`PeerStateStore.membership_version`.
* **Candidate tables** (same-video neighbor rows/ids/costs per peer)
  are invalidated per peer from the overlay's dirty set
  (:meth:`OverlayGraph.consume_dirty`) instead of being version-swept
  wholesale.  Missing entries are built in peer-dict order so the cost
  model samples never-seen pairs in exactly the order the pre-store
  pipeline did (trajectory preservation).  Each video group also keeps
  the flat candidate CSR of its last build, which the next build
  splices forward segment by segment (:class:`_CandCache`).
* **Playback** columns (start time/position, last-advance, a
  ``missed``-chunk bitmap matrix mirroring each session's ``missed``
  set) feed both the batched :meth:`PeerStateStore.advance_playback`
  and the window/valuation assembly in
  :meth:`PeerStateStore.assemble_requests`.  Positions are cheaply
  re-validated against the session objects every call (one ``fromiter``
  per bucket), so state mutated outside the store — tests, benchmark
  snapshot/restore — is detected and the affected rows resynced rather
  than silently trusted.

:meth:`PeerStateStore.assemble_requests` is the one request assembler:
one fused pass per bucket over word-packed windows.  It matches
:meth:`P2PSystem.build_problem_reference` bit for bit (request order,
valuations, candidate sets, costs), and the batched advance matches the
per-session ``advance_to`` / ``advance_to_reference`` pins; the property
suite under ``tests/properties/`` fuzzes whole scenarios against these
and against the cold per-group assembler in ``tests/oracles/``.

Window gathers use :func:`numpy.lib.stride_tricks.sliding_window_view`
over the matrices, which are padded with ``window`` always-False columns
so a window starting at any playback position stays in bounds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

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

#: Candidate drop-log length at which :meth:`PeerStateStore._trim_cand_log`
#: compacts (caches lagging further than this are dropped, not waited for).
_CAND_LOG_LIMIT = 4096

#: Widest request window the packed-word branch supports: a window
#: starting at any bit offset within a word must fit the two-word read
#: below (63 offset bits + W ≤ 2·64 always holds, but the single right
#: shift needs W ≤ 64 − 7 to stay exact for byte-grained fallbacks).
#: Wider windows use the boolean branch.
_PACKED_WINDOW_MAX = 57


def _window_words(words_flat, wpr, rows, starts, W):
    """Request windows of word-packed rows, one ``uint64`` each.

    ``words_flat`` is a row-major ``(n_rows, wpr)`` uint64 matrix from
    :meth:`PeerStateStore._packed_matrices`, flattened, holding chunk
    ``64·q + j`` of each row at bit ``63 - j`` of word ``q`` (big-endian
    ``np.packbits`` order).  A window is then two aligned word gathers
    and a shift: bit ``W - 1 - k`` of the result is chunk ``start + k``
    (MSB-first), so word-wise AND/OR over windows is bit-for-bit the
    boolean-matrix computation.  Requires ``wpr`` wide enough that word
    ``(start >> 6) + 1`` stays inside the row.
    """
    q = starts >> np.int64(6)
    r = (starts & np.int64(63)).astype(np.uint64)
    base = rows * np.int64(wpr) + q
    hi = words_flat[base] << r
    lo = words_flat[base + 1] >> ((np.uint64(64) - r) & np.uint64(63))
    np.multiply(lo, r != 0, out=lo)
    return (hi | lo) >> np.uint64(64 - W)


class _CandCache:
    """One video group's flat candidate CSR from its last build.

    Holds the pooled per-active-watcher segments the previous
    :meth:`PeerStateStore._flat_candidates_cached` call returned, plus
    the validity cursor: the drop-log position and cost-regime epoch the
    copy was taken at.  Segments of peers dropped from the entry dict
    since ``log_pos`` (or the whole cache, after an epoch bump) are
    stale; everything else can be spliced forward verbatim.
    """

    __slots__ = (
        "active_ids", "counts", "indptr", "rows", "ids", "costs",
        "log_pos", "reset_epoch",
    )

    def __init__(
        self, active_ids, counts, indptr, rows, ids, costs,
        log_pos, reset_epoch,
    ) -> None:
        self.active_ids = active_ids
        self.counts = counts
        self.indptr = indptr
        self.rows = rows
        self.ids = ids
        self.costs = costs
        self.log_pos = log_pos
        self.reset_epoch = reset_epoch


class StateBucket:
    """Row storage shared by every video with the same chunk count.

    Rows are assigned on admission and stay stable until the peer
    departs (freed rows are zeroed and recycled — possibly by a peer of
    a *different* video with the same chunk count).  Holding all
    same-shape videos in one matrix lets the batched playback advance
    run as one vectorized sweep regardless of catalog size.
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
        self.peer_by_row: List[Optional[Peer]] = [None] * cap
        self.start_time = np.zeros(cap, dtype=float)
        self.start_pos = np.zeros(cap, dtype=np.int64)
        self.position = np.zeros(cap, dtype=np.int64)
        self.last_advance = np.zeros(cap, dtype=float)
        self.cps = np.zeros(cap, dtype=float)  # chunks per second
        self.has_session = np.zeros(cap, dtype=bool)
        # Bucket-wide watcher view (rows with sessions, row order).
        self._watchers_stale = True
        self._watcher_rows = _EMPTY_INT
        self._watcher_sessions: List = []
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
        masks = np.zeros((new_cap, self.padded), dtype=bool)
        missed = np.zeros((new_cap, self.padded), dtype=bool)
        masks[:old_cap] = self.masks
        missed[:old_cap] = self.missed
        self.masks = masks
        self.missed = missed
        self._swv = None
        for arr_name in (
            "start_time", "start_pos", "position", "last_advance",
            "cps", "has_session",
        ):
            old = getattr(self, arr_name)
            new = np.zeros(new_cap, dtype=old.dtype)
            new[:old_cap] = old
            setattr(self, arr_name, new)
        self.peer_by_row.extend([None] * (new_cap - old_cap))
        # Re-point every bound buffer at its (already copied) new row.
        for row, peer in enumerate(self.peer_by_row[:old_cap]):
            if peer is not None:
                peer.buffer.rebind_storage(
                    self.masks[row, : self.n_chunks], copy=False
                )

    def admit_row(self, peer: Peer) -> int:
        """Assign ``peer`` a row, bind its buffer, fill its columns."""
        if self.free_rows:
            row = self.free_rows.pop()
        else:
            if self.n_rows >= self.masks.shape[0]:
                self._grow()
            row = self.n_rows
            self.n_rows += 1
        self.masks[row] = False
        self.missed[row] = False
        peer.buffer.rebind_storage(self.masks[row, : self.n_chunks])
        self.peer_by_row[row] = peer
        self.cps[row] = peer.video.chunks_per_second
        session = peer.session
        if session is not None:
            self.start_time[row] = session.start_time
            self.start_pos[row] = session.start_position
            self.position[row] = session.position
            self.last_advance[row] = session._last_advance
            self.has_session[row] = True
            if session.missed:
                idx = np.fromiter(
                    session.missed, dtype=np.int64, count=len(session.missed)
                )
                self.missed[row, idx] = True
        else:
            self.has_session[row] = False
        self._watchers_stale = True
        return row

    def release_row(self, peer: Peer, row: int) -> None:
        """Free ``row``; the peer's buffer takes back owned storage."""
        peer.buffer.unbind_storage()
        self.masks[row] = False
        self.missed[row] = False
        self.peer_by_row[row] = None
        self.has_session[row] = False
        self.free_rows.append(row)
        self._watchers_stale = True

    def watcher_arrays(self) -> Tuple[np.ndarray, List]:
        """``(rows, sessions)`` of every occupied row with a session."""
        if self._watchers_stale:
            occupied = self.has_session[: self.n_rows]
            rows = np.nonzero(occupied)[0].astype(np.int64)
            self._watcher_rows = rows
            self._watcher_sessions = [
                self.peer_by_row[r].session for r in rows.tolist()
            ]
            self._watchers_stale = False
        return self._watcher_rows, self._watcher_sessions

    def resync_row(self, row: int, session) -> None:
        """Rebuild one row's playback state from the session object."""
        self.position[row] = session.position
        self.last_advance[row] = session._last_advance
        self.missed[row] = False
        if session.missed:
            idx = np.fromiter(
                session.missed, dtype=np.int64, count=len(session.missed)
            )
            self.missed[row, idx] = True


class VideoGroup:
    """Per-video membership tables over a :class:`StateBucket`.

    ``member_ids`` / ``member_rows`` keep the sorted-id view the
    candidate lookups binary-search; rows index into :attr:`bucket`.
    """

    def __init__(self, video: Video, bucket: StateBucket) -> None:
        self.video = video
        self.bucket = bucket
        self.n_chunks = int(video.n_chunks)
        self.window = bucket.window
        self.row_of: Dict[int, int] = {}
        self.member_ids = _EMPTY_INT  # sorted peer ids
        self.member_rows = _EMPTY_INT  # bucket rows aligned with member_ids
        # Watcher view (members with playback sessions), member order.
        self._watchers_stale = True
        self._watcher_rows = _EMPTY_INT
        self._watcher_ids = _EMPTY_INT
        # Flat candidate CSR from the last build (or None).
        self._cand_cache: Optional[_CandCache] = None

    def admit(self, peer: Peer) -> int:
        row = self.bucket.admit_row(peer)
        self.row_of[peer.peer_id] = row
        at = int(np.searchsorted(self.member_ids, peer.peer_id))
        self.member_ids = np.insert(self.member_ids, at, peer.peer_id)
        self.member_rows = np.insert(self.member_rows, at, row)
        self._watchers_stale = True
        return row

    def remove(self, peer: Peer) -> None:
        row = self.row_of.pop(peer.peer_id)
        self.bucket.release_row(peer, row)
        at = int(np.searchsorted(self.member_ids, peer.peer_id))
        self.member_ids = np.delete(self.member_ids, at)
        self.member_rows = np.delete(self.member_rows, at)
        self._watchers_stale = True

    @property
    def n_members(self) -> int:
        return len(self.member_ids)

    def watcher_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, ids)`` of members with sessions, sorted-id order."""
        if self._watchers_stale:
            with_session = self.bucket.has_session[self.member_rows]
            self._watcher_rows = self.member_rows[with_session]
            self._watcher_ids = self.member_ids[with_session]
            self._watchers_stale = False
        return self._watcher_rows, self._watcher_ids


class PeerStateStore:
    """All columnar peer state, maintained incrementally across slots.

    Owned by :class:`~repro.p2p.system.P2PSystem`; mutated only through
    :meth:`admit` / :meth:`remove` plus the batched playback commit.
    Buffer bitmaps need no hook at all — delivery writes go straight
    into the matrices because the buffers are views into them.
    """

    def __init__(
        self, overlay: OverlayGraph, costs: CostModel, window: int
    ) -> None:
        self.overlay = overlay
        self.costs = costs
        self.window = max(1, int(window))
        self.buckets: Dict[int, StateBucket] = {}
        self.groups: Dict[int, VideoGroup] = {}
        #: Bumped on every admit/remove; keys membership-derived caches.
        self.membership_version = 0
        #: Bumped whenever any candidate entry is dropped; lets tests
        #: (and future caches) observe candidate invalidation.
        self.candidate_epoch = 0
        self.seed_ids: Set[int] = set()
        # Peer-dict-order columns (ids ascend because admission ids are
        # monotone; an out-of-order admit flips the fast-path flag).
        cap = 16
        self._order_ids = np.zeros(cap, dtype=np.int64)
        self._order_caps = np.zeros(cap, dtype=np.int64)
        self._order_isps = np.zeros(cap, dtype=np.int64)
        self._order_departure = np.full(cap, np.inf, dtype=float)
        self._order_seed = np.zeros(cap, dtype=bool)
        self._n = 0
        self._ids_monotone = True
        # Peer-id-indexed ISP lookup (−1 = offline).
        self._isp_table = np.full(64, -1, dtype=np.int64)
        # Per-peer candidate entries: pid -> (nb_rows, nb_ids, nb_costs),
        # mirrored by a pid-indexed presence column so the fast
        # assembler can find missing entries without a Python probe per
        # watcher.  Every _cand insert/pop/clear updates both.
        self._cand: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._cand_have = np.zeros(64, dtype=bool)
        self._overlay_version_seen = overlay.version
        # Candidate invalidation stream for the per-group CSR caches:
        # every entry popped from _cand is appended here; wholesale
        # clears (cost shocks) bump the epoch instead of logging pids.
        self._cand_log: List[int] = []
        self._cand_reset_epoch = 0
        #: Running totals of candidate segments the builds spliced:
        #: ``reused`` from a group's cache, ``rebuilt`` from the entry
        #: dict, ``dropped`` (cached watchers no longer active).  The
        #: slot trace reports their per-slot differences.
        self.splice_counts: Dict[str, int] = {
            "reused": 0, "rebuilt": 0, "dropped": 0,
        }

    def snapshot_delta_state(self):
        """Capture the per-group CSR caches and drop log for exact replay.

        The bench harness times ``build_problem`` min-of-N on identical
        state; without restoring the caches between repeats every repeat
        after the first would hit the all-clean fast path and the timing
        would be a lie.  Cache records are captured by reference — a
        later splice installs a *new* record and mutates the old one
        only through ``log_pos``, which is saved and restored here.
        """
        caches = {}
        for vid, group in self.groups.items():
            cache = group._cand_cache
            if cache is not None:
                caches[vid] = (cache, cache.log_pos)
        return caches, list(self._cand_log), self._cand_reset_epoch

    def restore_delta_state(self, snap) -> None:
        """Restore state captured by :meth:`snapshot_delta_state`."""
        caches, log, epoch = snap
        for vid, group in self.groups.items():
            entry = caches.get(vid)
            if entry is None:
                group._cand_cache = None
            else:
                cache, log_pos = entry
                cache.log_pos = log_pos
                group._cand_cache = cache
        self._cand_log = list(log)
        self._cand_reset_epoch = epoch

    # ------------------------------------------------------------------
    # Membership hooks
    # ------------------------------------------------------------------
    _ORDER_COLUMNS = (
        "_order_ids", "_order_caps", "_order_isps",
        "_order_departure", "_order_seed",
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

    def _append_order(self, peer: Peer) -> None:
        """Append one peer to the dict-order columns and id-indexed tables."""
        if peer.is_seed:
            self.seed_ids.add(peer.peer_id)
        n = self._n
        if n >= len(self._order_ids):
            for name in self._ORDER_COLUMNS:
                old = getattr(self, name)
                new = np.zeros(len(old) * 2, dtype=old.dtype)
                new[:n] = old[:n]
                setattr(self, name, new)
        if n and peer.peer_id <= self._order_ids[n - 1]:
            self._ids_monotone = False
        self._order_ids[n] = peer.peer_id
        self._order_caps[n] = peer.upload_capacity_chunks
        self._order_isps[n] = peer.isp
        self._order_departure[n] = (
            np.inf if peer.departure_time is None else peer.departure_time
        )
        self._order_seed[n] = peer.is_seed
        self._n = n + 1
        if peer.peer_id >= len(self._isp_table):
            new_size = max(len(self._isp_table) * 2, peer.peer_id + 1)
            table = np.full(new_size, -1, dtype=np.int64)
            table[: len(self._isp_table)] = self._isp_table
            self._isp_table = table
        self._isp_table[peer.peer_id] = peer.isp

    def admit(self, peer: Peer) -> None:
        group = self._ensure_group(peer)
        row = group.admit(peer)
        peer.state_group = group
        peer.state_row = row
        self._append_order(peer)
        self.membership_version += 1

    def admit_batch(self, peers: Sequence[Peer]) -> None:
        """Admit many peers at once (batched :meth:`admit`).

        Final store state is identical to admitting the peers one by one
        in order, but each touched video's sorted member table is merged
        once instead of paying one ``np.insert`` rebuild per peer — the
        arrival-burst path of the churn slot boundary.
        """
        if not peers:
            return
        per_group: Dict[int, Tuple[List[int], List[int]]] = {}
        for peer in peers:
            group = self._ensure_group(peer)
            row = group.bucket.admit_row(peer)
            group.row_of[peer.peer_id] = row
            peer.state_group = group
            peer.state_row = row
            ids, rows = per_group.setdefault(peer.video.video_id, ([], []))
            ids.append(peer.peer_id)
            rows.append(row)
            self._append_order(peer)
        for vid, (id_list, row_list) in per_group.items():
            group = self.groups[vid]
            add_ids = np.asarray(id_list, dtype=np.int64)
            add_rows = np.asarray(row_list, dtype=np.int64)
            order = np.argsort(add_ids, kind="stable")  # ids are unique
            add_ids, add_rows = add_ids[order], add_rows[order]
            at = np.searchsorted(group.member_ids, add_ids)
            group.member_ids = np.insert(group.member_ids, at, add_ids)
            group.member_rows = np.insert(group.member_rows, at, add_rows)
            group._watchers_stale = True
        self.membership_version += len(peers)

    def remove(self, peer: Peer) -> None:
        group = peer.state_group
        if group is None:
            raise KeyError(f"peer {peer.peer_id} is not in the store")
        group.remove(peer)
        peer.state_group = None
        peer.state_row = None
        self.seed_ids.discard(peer.peer_id)
        idx = int(np.nonzero(self._order_ids[: self._n] == peer.peer_id)[0][0])
        for name in self._ORDER_COLUMNS:
            arr = getattr(self, name)
            arr[idx : self._n - 1] = arr[idx + 1 : self._n]
        self._n -= 1
        self._isp_table[peer.peer_id] = -1
        if self._cand.pop(peer.peer_id, None) is not None:
            self._cand_have[peer.peer_id] = False
            self.candidate_epoch += 1
            self._cand_log.append(peer.peer_id)
        self.membership_version += 1

    def remove_batch(self, peers: Sequence[Peer]) -> None:
        """Remove many peers at once (batched :meth:`remove`).

        One mask compaction over the order columns and one per touched
        member table, instead of an O(online) shift per departure — the
        departure path of the churn slot boundary.
        """
        if not peers:
            return
        per_group: Dict[int, List[Peer]] = {}
        for peer in peers:
            if peer.state_group is None:
                raise KeyError(f"peer {peer.peer_id} is not in the store")
            per_group.setdefault(peer.video.video_id, []).append(peer)
        for vid, members in per_group.items():
            group = self.groups[vid]
            for peer in members:
                row = group.row_of.pop(peer.peer_id)
                group.bucket.release_row(peer, row)
                peer.state_group = None
                peer.state_row = None
            gone = np.fromiter(
                (p.peer_id for p in members), dtype=np.int64, count=len(members)
            )
            keep = ~np.isin(group.member_ids, gone)
            group.member_ids = group.member_ids[keep]
            group.member_rows = group.member_rows[keep]
            group._watchers_stale = True
        ids = np.fromiter(
            (p.peer_id for p in peers), dtype=np.int64, count=len(peers)
        )
        n = self._n
        keep_order = ~np.isin(self._order_ids[:n], ids)
        kept = int(keep_order.sum())
        for name in self._ORDER_COLUMNS:
            arr = getattr(self, name)
            arr[:kept] = arr[:n][keep_order]
        self._n = kept
        self._isp_table[ids] = -1
        for peer in peers:
            self.seed_ids.discard(peer.peer_id)
            if self._cand.pop(peer.peer_id, None) is not None:
                self._cand_have[peer.peer_id] = False
                self.candidate_epoch += 1
                self._cand_log.append(peer.peer_id)
        self.membership_version += len(peers)

    def update_capacity(self, peer: Peer) -> None:
        """Re-read one online peer's upload capacity into the column.

        Scenario-engine hook (capacity ramps, seeder outage/recovery):
        the caller mutates ``peer.upload_capacity_chunks`` and this
        re-syncs the dict-order capacity column so the next
        ``build_problem`` sees the new budget.
        """
        self.update_capacities([peer])

    def update_capacities(self, peers: Sequence[Peer]) -> None:
        """Batched :meth:`update_capacity` (one pass over the column)."""
        if not peers:
            return
        by_id = {p.peer_id: p for p in peers}
        n = self._n
        ids = self._order_ids[:n]
        hit = np.isin(ids, np.fromiter(by_id, dtype=np.int64, count=len(by_id)))
        idx = np.nonzero(hit)[0]
        if len(idx) != len(by_id):
            missing = set(by_id) - set(ids[idx].tolist())
            raise KeyError(f"peers {sorted(missing)} are not in the store")
        self._order_caps[idx] = np.fromiter(
            (by_id[pid].upload_capacity_chunks for pid in ids[idx].tolist()),
            dtype=np.int64,
            count=len(idx),
        )

    def invalidate_costs(self) -> None:
        """Drop every cached candidate-cost table (cost-regime change).

        Scenario-engine hook: after a mid-run ISP price shock the cached
        per-peer ``(rows, ids, costs)`` entries hold stale costs; this
        forces them to be rebuilt from the cost model on next use (reads
        only the model's pair cache — no random draws are consumed, so
        the run's cost trajectory is unperturbed).
        """
        if self._cand:
            self._cand.clear()
            self._cand_have[:] = False
            self.candidate_epoch += 1
        # The per-group CSR caches hold cost *copies*, so they go stale
        # even when the entry dict is already empty: always bump the
        # epoch (wholesale invalidation, no per-pid log entries).
        self._cand_reset_epoch += 1

    # ------------------------------------------------------------------
    # Columns
    # ------------------------------------------------------------------
    def capacity_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(peer_ids, upload capacities)`` in peer-dict order (views)."""
        return self._order_ids[: self._n], self._order_caps[: self._n]

    def isp_table(self) -> np.ndarray:
        """Peer-id-indexed ISP lookup table (−1 = offline; do not mutate)."""
        return self._isp_table

    def departure_scan(self, t: float, remove_finished: bool) -> List[int]:
        """Non-seed peers due to leave at slot boundary ``t``, dict order.

        One mask over the departure-time column (``inf`` = stays), plus
        — when ``remove_finished`` — a per-bucket finished check on the
        synced playback positions.  Matches the reference loop over
        ``peers.values()`` (``departure_time <= t`` or
        ``session.finished``) including its dict iteration order, which
        the batched removal preserves.
        """
        n = self._n
        if not n:
            return []
        ids = self._order_ids[:n]
        doomed = (self._order_departure[:n] <= t) & ~self._order_seed[:n]
        if remove_finished:
            for bucket in self.buckets.values():
                self._sync_bucket(bucket)
            finished: List[np.ndarray] = []
            for group in self.groups.values():
                rows, g_ids = group.watcher_arrays()
                if not len(rows):
                    continue
                done = group.bucket.position[rows] >= group.n_chunks
                if done.any():
                    finished.append(g_ids[done])
            if finished:
                doomed |= np.isin(ids, np.concatenate(finished))
        if not doomed.any():
            return []
        return ids[doomed].tolist()

    # ------------------------------------------------------------------
    # Candidate tables
    # ------------------------------------------------------------------
    def _drain_overlay(self) -> None:
        """Invalidate candidate entries of peers whose links changed."""
        if self.overlay.version == self._overlay_version_seen:
            return
        dirty = self.overlay.consume_dirty()
        if dirty:
            dropped = False
            for pid in dirty:
                if self._cand.pop(pid, None) is not None:
                    self._cand_have[pid] = False
                    dropped = True
                    self._cand_log.append(pid)
            if dropped:
                self.candidate_epoch += 1
        else:
            # Version moved without dirty marks (defensive): full sweep.
            if self._cand:
                self._cand.clear()
                self._cand_have[:] = False
                self.candidate_epoch += 1
            self._cand_reset_epoch += 1
        self._overlay_version_seen = self.overlay.version

    def _candidate_entry(
        self, pid: int, group: VideoGroup
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Same-video neighbor ``(rows, ids, costs)``, sorted by id."""
        entry = self._cand.get(pid)
        if entry is None:
            members = group.member_ids
            nb = self.overlay.neighbor_array(pid)
            if nb.size and members.size:
                pos = np.searchsorted(members, nb)
                pos[pos >= members.size] = 0
                hit = members[pos] == nb
                mpos = pos[hit]
                nb_ids = members[mpos]
                nb_rows = group.member_rows[mpos]
            else:
                nb_ids = _EMPTY_INT
                nb_rows = _EMPTY_INT
            nb_costs = self.costs.costs_for_pairs(nb_ids, pid)
            entry = (nb_rows, nb_ids, nb_costs)
            self._cand[pid] = entry
            have = self._cand_have
            if pid >= len(have):
                grown = np.zeros(max(pid + 1, 2 * len(have)), dtype=bool)
                grown[: len(have)] = have
                self._cand_have = have = grown
            have[pid] = True
        return entry

    def _flat_candidates(
        self, group: VideoGroup, active_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Flat candidate CSR over ``active_ids`` (entries pre-built)."""
        entries = [
            self._candidate_entry(pid, group) for pid in active_ids.tolist()
        ]
        d = len(entries)
        counts = np.fromiter(
            (len(e[0]) for e in entries), dtype=np.int64, count=d
        )
        indptr = np.zeros(d + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        if d and int(indptr[-1]):
            rows = np.concatenate([e[0] for e in entries])
            ids = np.concatenate([e[1] for e in entries])
            costs = np.concatenate([e[2] for e in entries])
        else:
            rows, ids, costs = _EMPTY_INT, _EMPTY_INT, _EMPTY_FLOAT
        return counts, indptr, rows, ids, costs

    def _flat_candidates_cached(
        self, group: VideoGroup, active_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`_flat_candidates`, spliced forward from the group's cache.

        Byte-identical output to the flat build: per-watcher segments
        whose entry survived untouched since the cached copy (not in the
        drop log, no cost-regime epoch bump) are gathered straight out
        of the previous call's pooled arrays; only fresh or invalidated
        segments are re-read from the entry dict.  The common steady
        slot — same active set, nothing dropped — returns the cached
        arrays outright.  A group with no valid cache (the first build
        of a run, or after a cost shock) builds flat.  Every segment is
        counted into :attr:`splice_counts`.
        """
        cache = group._cand_cache
        log = self._cand_log
        tally = self.splice_counts
        d = len(active_ids)
        if cache is None or cache.reset_epoch != self._cand_reset_epoch:
            if cache is not None:
                tally["dropped"] += int(
                    np.count_nonzero(~np.isin(cache.active_ids, active_ids))
                )
            out = self._flat_candidates(group, active_ids)
            group._cand_cache = _CandCache(
                active_ids, *out, len(log), self._cand_reset_epoch
            )
            tally["rebuilt"] += d
            return out
        gone = log[cache.log_pos :]
        stale = (
            np.isin(active_ids, np.asarray(gone, dtype=np.int64))
            if gone
            else None
        )
        if (stale is None or not stale.any()) and np.array_equal(
            active_ids, cache.active_ids
        ):
            cache.log_pos = len(log)
            tally["reused"] += d
            return (
                cache.counts, cache.indptr, cache.rows,
                cache.ids, cache.costs,
            )
        # Splice: cached segments for surviving actives, dict entries
        # (pre-built by assemble_requests) for the rest, one pooled
        # gather in active order.
        if len(cache.active_ids):
            pos = np.searchsorted(cache.active_ids, active_ids)
            np.minimum(pos, len(cache.active_ids) - 1, out=pos)
            in_cache = cache.active_ids[pos] == active_ids
        else:
            pos = np.zeros(d, dtype=np.int64)
            in_cache = np.zeros(d, dtype=bool)
        tally["dropped"] += len(cache.active_ids) - int(
            np.count_nonzero(in_cache)
        )
        if stale is not None:
            in_cache &= ~stale
        counts = np.empty(d, dtype=np.int64)
        starts = np.empty(d, dtype=np.int64)
        hit_pos = pos[in_cache]
        counts[in_cache] = cache.counts[hit_pos]
        starts[in_cache] = cache.indptr[:-1][hit_pos]
        fresh = ~in_cache
        fresh_ids = active_ids[fresh]
        tally["reused"] += d - len(fresh_ids)
        tally["rebuilt"] += len(fresh_ids)
        pool_rows, pool_ids, pool_costs = cache.rows, cache.ids, cache.costs
        if len(fresh_ids):
            entries = [
                self._candidate_entry(pid, group)
                for pid in fresh_ids.tolist()
            ]
            f_counts = np.fromiter(
                (len(e[0]) for e in entries),
                dtype=np.int64,
                count=len(entries),
            )
            f_offs = np.zeros(len(entries), dtype=np.int64)
            np.cumsum(f_counts[:-1], out=f_offs[1:])
            counts[fresh] = f_counts
            starts[fresh] = f_offs + len(pool_rows)
            if int(f_counts[-1] + f_offs[-1]):
                pool_rows = np.concatenate([pool_rows] + [e[0] for e in entries])
                pool_ids = np.concatenate([pool_ids] + [e[1] for e in entries])
                pool_costs = np.concatenate(
                    [pool_costs] + [e[2] for e in entries]
                )
        indptr = np.zeros(d + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        total = int(indptr[-1])
        edge_idx = np.repeat(starts - indptr[:-1], counts)
        edge_idx += np.arange(total, dtype=np.int64)
        rows = pool_rows[edge_idx]
        ids = pool_ids[edge_idx]
        costs = pool_costs[edge_idx]
        group._cand_cache = _CandCache(
            active_ids, counts, indptr, rows, ids, costs,
            len(log), self._cand_reset_epoch,
        )
        return counts, indptr, rows, ids, costs

    def _trim_cand_log(self) -> None:
        """Compact the drop log once it outgrows the limit.

        The log prefix every live cache has already consumed is deleted
        and the cursors rebased; a cache lagging more than the limit (a
        group that stopped producing requests) is dropped rather than
        allowed to pin the log forever.  With no caches at all the whole
        log clears.  Runs at the end of every build, so the log stays
        bounded between builds whatever the churn rate.
        """
        log = self._cand_log
        if len(log) <= _CAND_LOG_LIMIT:
            return
        floor = len(log) - _CAND_LOG_LIMIT
        cut = len(log)
        for group in self.groups.values():
            cache = group._cand_cache
            if cache is None:
                continue
            if cache.log_pos < floor:
                group._cand_cache = None
            elif cache.log_pos < cut:
                cut = cache.log_pos
        if cut:
            del log[:cut]
            for group in self.groups.values():
                cache = group._cand_cache
                if cache is not None:
                    cache.log_pos -= cut

    # ------------------------------------------------------------------
    # Batched delivery (transfer-apply hot path)
    # ------------------------------------------------------------------
    def deliver_runs(
        self,
        run_peers: Sequence[Peer],
        starts: np.ndarray,
        stops: np.ndarray,
        chunks: np.ndarray,
    ) -> np.ndarray:
        """Write per-peer chunk runs into the bucket matrices; returns
        the number of newly held chunks per run.

        ``chunks[starts[i]:stops[i]]`` is the (unique, in-range) chunk
        batch for ``run_peers[i]`` — the downloader-grouped runs
        ``_apply_transfers`` derives from the served columns.  Instead
        of one small bitmap write per receiving buffer, runs are grouped
        by state bucket and each bucket takes *one* fancy-indexed
        read-then-write over its shared mask matrix (the buffers are
        views into it, so they observe the delivery with no extra sync).
        Caller contract matches :meth:`ChunkBuffer.receive_batch_trusted`:
        every peer is store-bound with an uncapped buffer, and no
        (peer, chunk) pair repeats within the batch.
        """
        n_runs = len(run_peers)
        lens = stops - starts
        added = np.zeros(n_runs, dtype=np.int64)
        per_bucket: Dict[int, List[int]] = {}
        buckets: Dict[int, StateBucket] = {}
        for i, peer in enumerate(run_peers):
            bucket = peer.state_group.bucket
            per_bucket.setdefault(id(bucket), []).append(i)
            buckets[id(bucket)] = bucket
        for key, run_list in per_bucket.items():
            bucket = buckets[key]
            run_idx = np.asarray(run_list, dtype=np.int64)
            s = starts[run_idx]
            l = lens[run_idx]
            total = int(l.sum())
            offs = np.zeros(len(run_idx), dtype=np.int64)
            np.cumsum(l[:-1], out=offs[1:])
            edge_idx = np.repeat(s - offs, l) + np.arange(total, dtype=np.int64)
            rows_e = np.repeat(
                np.fromiter(
                    (run_peers[i].state_row for i in run_list),
                    dtype=np.int64,
                    count=len(run_list),
                ),
                l,
            )
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
        for peer, add in zip(run_peers, added.tolist()):
            if add:
                peer.buffer.note_external_writes(add)
        return added

    # ------------------------------------------------------------------
    # Session sync
    # ------------------------------------------------------------------
    def _sync_bucket(self, bucket: StateBucket) -> np.ndarray:
        """Fresh playback positions; resyncs rows mutated out-of-band.

        Positions are read from the session objects (one ``fromiter``)
        and compared to the stored column: a mismatch means the session
        moved outside the batched path (direct ``advance_to`` calls,
        benchmark snapshot/restore), so its row — position,
        last-advance, the ``missed`` bitmap — is rebuilt from the
        session before anything trusts it.
        """
        rows, sessions = bucket.watcher_arrays()
        n = len(rows)
        if not n:
            return _EMPTY_INT
        fresh = np.fromiter(
            (s.position for s in sessions), dtype=np.int64, count=n
        )
        stored = bucket.position[rows]
        if not np.array_equal(fresh, stored):
            stale = np.nonzero(fresh != stored)[0]
            for i in stale.tolist():
                bucket.resync_row(int(rows[i]), sessions[i])
        return fresh

    # ------------------------------------------------------------------
    # Request assembly (build_problem hot path)
    # ------------------------------------------------------------------
    def assemble_requests(
        self,
        now: float,
        valuation: DeadlineValuation,
        lookahead: float = 0.0,
    ):
        """All slot requests as flat columns in reference request order.

        Returns ``None`` when no peer requests anything, else
        ``(peers, chunk_pairs, valuations, cand_ids, cand_costs,
        indptr)`` where ``chunk_pairs`` is the ``(R, 2)``
        ``(video_id, chunk_index)`` column and the CSR candidate arrays
        are sorted by uploader id within each request — exactly the
        problem :meth:`P2PSystem.build_problem_reference` constructs.

        Every call drains the overlay's dirty set, resyncs the playback
        columns from the session objects, assembles in one fused pass
        per bucket (:meth:`_assemble_buckets`) and then compacts the
        candidate drop log.  Windows and valuations are recomputed on
        every call (playback shifts the deadline fractions); only the
        candidate CSR carries over between builds.
        """
        self._drain_overlay()
        for bucket in self.buckets.values():
            self._sync_bucket(bucket)
        parts = self._assemble_buckets(now, valuation, lookahead)
        self._trim_cand_log()
        return parts

    def _pack_requests(self, peers, vids, chunks, vals, counts,
                       cand_ids, cand_costs):
        """Permute concatenated request columns into peer-dict order.

        Shared with the cold oracle assembler.  Any concatenation
        order is acceptable on entry as long as each peer's requests
        stay window-ordered relative to each other (a peer watches one
        video, so its requests come from a single group): the stable
        dict-order permutation then lands every column on identical
        bytes.
        """
        n_req = len(peers)
        # The permutation may only be skipped when ascending id *is*
        # peer-dict order; with out-of-order admissions an incidentally
        # sorted column must still be permuted into dict order.
        if not (self._ids_monotone and np.all(peers[1:] >= peers[:-1])):
            perm = self._request_permutation(peers)
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

    def _request_permutation(self, peers: np.ndarray) -> np.ndarray:
        """Permutation restoring peer-dict request order."""
        if self._ids_monotone:
            # Dict order == ascending id; stable sort keeps each peer's
            # window-ordered block intact.
            return np.argsort(peers, kind="stable")
        rank = {
            pid: i for i, pid in enumerate(self._order_ids[: self._n].tolist())
        }
        key = np.fromiter(
            (rank[pid] for pid in peers.tolist()),
            dtype=np.int64,
            count=len(peers),
        )
        return np.argsort(key, kind="stable")

    def _dict_order_key(self):
        """Sort key putting ``(pid, group)`` items in peer-dict order."""
        if self._ids_monotone:
            return lambda item: item[0]
        rank = {
            pid: i for i, pid in enumerate(self._order_ids[: self._n].tolist())
        }
        return lambda item: rank[item[0]]

    def _assemble_buckets(
        self, now: float, valuation: DeadlineValuation, lookahead: float
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

        Candidate tables come from the per-group
        :meth:`_flat_candidates_cached` splice.  Group concatenation
        order is free here: each peer watches one video, so the
        dict-order permutation in :meth:`_pack_requests` lands on
        identical bytes regardless.
        """
        staged = []
        need_entry: List[Tuple[int, VideoGroup]] = []
        per_bucket: Dict[int, list] = {}
        bucket_order: List[StateBucket] = []
        for group in self.groups.values():
            rows, ids = group.watcher_arrays()
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
                pw, mw, wpr = self._packed_matrices(bucket)
                held_w = _window_words(pw, wpr, act_rows, due, W)
                miss_w = _window_words(mw, wpr, act_rows, due, W)
                full = np.uint64((1 << W) - 1)
                dead = np.uint64(W) - np.clip(
                    n_chunks - due, 0, W
                ).astype(np.uint64)
                in_range_w = (full >> dead) << dead
                avail = in_range_w & ~held_w & ~miss_w
                gated = avail != 0
                packed = (pw, wpr)
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
            have = self._cand_have
            in_tab = act_ids < len(have)
            hit = np.zeros(len(act_ids), dtype=bool)
            hit[in_tab] = have[act_ids[in_tab]]
            if not hit.all():
                for i in np.nonzero(~hit)[0].tolist():
                    need_entry.append(
                        (int(act_ids[i]), entries[int(agidx[i])][0])
                    )
        if need_entry:
            # Build missing candidate tables in peer-dict order so the
            # cost model samples never-seen pairs in exactly the order
            # the pre-store pipeline did (trajectory preservation).
            need_entry.sort(key=self._dict_order_key())
            for pid, group in need_entry:
                self._candidate_entry(pid, group)
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

    def _packed_matrices(self, bucket: StateBucket):
        """Word-packed ``(masks, missed)`` rows plus words-per-row.

        Each row becomes ``wpr`` native uint64 words in big-endian
        packbits bit order (chunk ``64q + j`` at bit ``63 - j`` of word
        ``q``), padded so the two-word read in :func:`_window_words`
        stays inside the row for any window start up to ``n_chunks``.
        Packed fresh on every assemble — the matrices mutate
        between builds and packing is linear in the bitmap size.
        """
        n = bucket.n_rows
        width = max((bucket.padded + 7) >> 3, (bucket.n_chunks >> 3) + 16)
        width = (width + 7) & ~7
        pm = np.zeros((n, width), dtype=np.uint8)
        mm = np.zeros((n, width), dtype=np.uint8)
        pb = np.packbits(bucket.masks[:n], axis=1)
        pm[:, : pb.shape[1]] = pb
        mb = np.packbits(bucket.missed[:n], axis=1)
        mm[:, : mb.shape[1]] = mb
        wpr = width >> 3
        pw = pm.reshape(-1).view(">u8").astype(np.uint64)
        mw = mm.reshape(-1).view(">u8").astype(np.uint64)
        return pw, mw, wpr

    def _finish_bucket(self, stage, now, valuation, lookahead):
        """Requests and candidate edges of one prepared bucket, or ``None``.

        A requested cell is an available window cell some neighbor
        holds; its candidates are those holders.  Both come out of one
        ``(watcher, chunk, neighbor)`` bit block, so no array is sized
        by the (requested cell, neighbor) pair count.
        """
        bucket, entries, act_rows, act_ids, due, avail, agidx, packed = stage
        W = bucket.window
        # Per-group candidate splices, sliced out of the fused watcher
        # columns (agidx ascends with the group concatenation).
        bounds = np.searchsorted(agidx, np.arange(len(entries) + 1))
        flats = []
        vids_of = np.empty(len(entries), dtype=np.int64)
        for gi, (group, _, _) in enumerate(entries):
            vids_of[gi] = group.video.video_id
            lo, hi = int(bounds[gi]), int(bounds[gi + 1])
            if hi > lo:
                flats.append(self._flat_candidates_cached(group, act_ids[lo:hi]))
        if len(flats) == 1:
            nb_counts, _, nb_rows, nb_ids, nb_costs = flats[0]
        else:
            nb_counts = np.concatenate([f[0] for f in flats])
            nb_rows = np.concatenate([f[2] for f in flats])
            nb_ids = np.concatenate([f[3] for f in flats])
            nb_costs = np.concatenate([f[4] for f in flats])
        sel = nb_counts > 0
        if not sel.any():
            return None
        if not sel.all():
            keep_edges = np.repeat(sel, nb_counts)
            nb_rows = nb_rows[keep_edges]
            nb_ids = nb_ids[keep_edges]
            nb_costs = nb_costs[keep_edges]
            nb_counts = nb_counts[sel]
            act_rows = act_rows[sel]
            act_ids = act_ids[sel]
            agidx = agidx[sel]
            due = due[sel]
            avail = avail[sel]
        d = len(act_rows)
        if self._ids_monotone and len(entries) > 1:
            # Pre-sort watchers by peer id so the emitted request column
            # is already in dict order and :meth:`_pack_requests` can
            # skip its request+edge permutation (requests outnumber
            # watchers many times over).  Candidate segments are
            # permuted alongside.  Stable, and each peer watches one
            # video, so per-peer window order is untouched — identical
            # bytes to permuting after the fact.
            order = np.argsort(act_ids, kind="stable")
            act_ids = act_ids[order]
            act_rows = act_rows[order]
            agidx = agidx[order]
            due = due[order]
            avail = avail[order]
            new_counts = nb_counts[order]
            old_indptr = np.zeros(d + 1, dtype=np.int64)
            np.cumsum(nb_counts, out=old_indptr[1:])
            nb_indptr = np.zeros(d + 1, dtype=np.int64)
            np.cumsum(new_counts, out=nb_indptr[1:])
            seg_idx = np.repeat(
                old_indptr[:-1][order] - nb_indptr[:-1], new_counts
            )
            seg_idx += np.arange(len(nb_rows), dtype=np.int64)
            nb_rows = nb_rows[seg_idx]
            nb_ids = nb_ids[seg_idx]
            nb_costs = nb_costs[seg_idx]
            nb_counts = new_counts
        else:
            nb_indptr = np.zeros(d + 1, dtype=np.int64)
            np.cumsum(nb_counts, out=nb_indptr[1:])
        owner = np.repeat(np.arange(d, dtype=np.int64), nb_counts)
        if packed is not None:
            # Word pipeline: one uint64 window per candidate edge.  A
            # cell is requested iff it is available and some neighbor
            # holds it, so OR-ing each watcher's edge words and masking
            # with ``avail`` gives its requested cells, and masking each
            # edge word with those leaves exactly the holders' bits.
            pw, wpr = packed
            words = _window_words(pw, wpr, nb_rows, due[owner], W)
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
        vids = vids_of[agidx[rd]]
        return req_peers, vids, req_chunks, req_vals, req_counts, cand_ids, cand_costs

    # ------------------------------------------------------------------
    # Batched playback
    # ------------------------------------------------------------------
    def advance_playback(self, to_time: float, rollup=None) -> Tuple[int, int]:
        """Advance every eligible session; returns ``(due, missed)``.

        ``rollup`` (an :class:`~repro.obs.rollup.IspRollup`, when the
        run has one attached) receives the same due/missed counts
        broken down by the watcher's home ISP — computed from the
        per-row arrays the batch pass already holds, so the disabled
        path pays nothing.

        One vectorized pass per bucket (a single pass for uniform
        catalogs) replaces the per-session ``advance_to`` loop: targets
        from the immutable session columns, held counts from one window
        gather on the bitmap matrix, miss recording into both the
        ``missed`` matrix and each session's (lazily materialized) set.
        Sessions whose ``start_time >= to_time`` are untouched — they
        have nothing due yet; mid-slot admissions advance from their
        *own* start time on the first boundary after it.  Per-session
        results are committed back to the :class:`PlaybackSession`
        objects, which remain the reference (``advance_to`` /
        ``advance_to_reference`` pin the semantics).  Unlike the
        reference loop, a backwards ``to_time`` raises *before* any
        session (in any bucket) is advanced.
        """
        preps = []
        for bucket in self.buckets.values():
            rows, sessions = bucket.watcher_arrays()
            if not len(rows):
                continue
            st = bucket.start_time[rows]
            eligible = st < to_time
            if not eligible.any():
                continue
            positions = self._sync_bucket(bucket)
            # Backwards-time validation reads the session objects, not
            # the column: a snapshot/restore can rewind _last_advance
            # without moving the position the sync check keys on.
            last = np.fromiter(
                (s._last_advance for s in sessions),
                dtype=float,
                count=len(sessions),
            )
            bucket.last_advance[rows] = last
            bad = eligible & (last > to_time)
            if bad.any():
                first = float(last[np.nonzero(bad)[0][0]])
                raise ValueError(
                    f"time went backwards: {to_time!r} < {first!r}"
                )
            preps.append((bucket, rows, sessions, st, eligible, positions))
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
        bucket, rows, sessions, st, eligible, positions = prep
        n_chunks = bucket.n_chunks
        target = bucket.start_pos[rows] + (
            np.maximum(0.0, to_time - st) * bucket.cps[rows]
        ).astype(np.int64)
        np.minimum(target, n_chunks, out=target)
        width = np.where(eligible, target - positions, 0)
        np.maximum(width, 0, out=width)
        due_total = int(width.sum())
        missed_total = 0
        row_missed = None
        if rollup is not None:
            # Per-row due snapshot before the big-session zeroing below.
            row_due = width.copy()
            row_missed = np.zeros(len(rows), dtype=np.int64)
        if int(width.max()) > _BATCH_ADVANCE_LIMIT:
            # Far-behind sessions (fresh joiners catching up a whole
            # video) advance individually; the batch window stays small.
            big = width > _BATCH_ADVANCE_LIMIT
            for i in np.nonzero(big)[0].tolist():
                session = sessions[i]
                stats = session.advance_to(to_time)
                missed_total += stats.missed
                if row_missed is not None:
                    row_missed[i] += stats.missed
                bucket.resync_row(int(rows[i]), session)
            width = np.where(big, 0, width)
        batch = width > 0
        all_move = bool(batch.all())
        if all_move or batch.any():
            b_idx = np.nonzero(batch)[0]
            rows_b = rows[b_idx]
            pos_b = positions[b_idx]
            tgt_b = target[b_idx]
            widths_b = tgt_b - pos_b
            w_max = int(widths_b.max())
            uniform = bool(widths_b.min() == w_max)
            cols = pos_b[:, None] + np.arange(w_max, dtype=np.int64)[None, :]
            if w_max > bucket.window:
                # Catch-up windows can overrun the padded columns.
                cols = np.minimum(cols, n_chunks)
            held = bucket.masks[rows_b[:, None], cols]
            if uniform:
                # Steady state: every session consumes the same number of
                # chunks, so no per-cell validity mask is needed.
                mm = ~held
                played = w_max - mm.sum(axis=1)
            else:
                valid = (
                    np.arange(w_max, dtype=np.int64)[None, :]
                    < widths_b[:, None]
                )
                mm = valid & ~held
                played = widths_b - mm.sum(axis=1)
            batch_missed = int(widths_b.sum() - played.sum())
            missed_total += batch_missed
            if row_missed is not None:
                row_missed[b_idx] += widths_b - played
            if batch_missed:
                mr, mc = np.nonzero(mm)
                missed_chunks = pos_b[mr] + mc
                bucket.missed[rows_b[mr], missed_chunks] = True
                # Per-session miss batches, one deferred run per session.
                run_starts = np.flatnonzero(
                    np.concatenate(([True], mr[1:] != mr[:-1]))
                )
                owners = b_idx[mr[run_starts]]
                bounds = np.append(run_starts, len(mr))
                for oi, s0, e0 in zip(
                    owners.tolist(), bounds[:-1].tolist(), bounds[1:].tolist()
                ):
                    sessions[oi].defer_missed(missed_chunks[s0:e0])
            bucket.position[rows_b] = tgt_b
            bucket.last_advance[rows[eligible]] = to_time
            if all_move and bool(eligible.all()):
                # One fused commit pass over every session.
                for session, tgt, plays in zip(
                    sessions, tgt_b.tolist(), played.tolist()
                ):
                    session.position = tgt
                    session.played += plays
                    session._last_advance = to_time
                if row_missed is not None:
                    self._deposit_playback_rollup(
                        bucket, rows, row_due, row_missed, rollup
                    )
                return due_total, missed_total
            for i, tgt, plays in zip(
                b_idx.tolist(), tgt_b.tolist(), played.tolist()
            ):
                session = sessions[i]
                session.position = tgt
                session.played += plays
        else:
            bucket.last_advance[rows[eligible]] = to_time
        for session, ok in zip(sessions, eligible.tolist()):
            if ok:
                session._last_advance = to_time
        if row_missed is not None:
            self._deposit_playback_rollup(
                bucket, rows, row_due, row_missed, rollup
            )
        return due_total, missed_total

    def _deposit_playback_rollup(
        self, bucket, rows, row_due, row_missed, rollup
    ) -> None:
        """Deposit one bucket's per-row due/missed into the ISP rollup."""
        ids = np.fromiter(
            (bucket.peer_by_row[int(r)].peer_id for r in rows),
            dtype=np.int64,
            count=len(rows),
        )
        rollup.record_playback(self._isp_table[ids], row_due, row_missed)

    # ------------------------------------------------------------------
    # Introspection / invariants (used by the staleness tests)
    # ------------------------------------------------------------------
    def check_consistency(self, peers: Dict[int, Peer], tracker=None) -> None:
        """Assert the store mirrors the authoritative object graph.

        Cheap enough for tests to call after every mutation: membership
        tables, row bindings, capacity/ISP columns and the missed
        bitmaps must all agree with the ``peers`` dict (and, when a
        ``tracker`` is given, with its per-video registry).
        """
        ids = sorted(peers)
        if tracker is not None:
            for vid, group in self.groups.items():
                assert set(group.member_ids.tolist()) == set(
                    tracker.members_view(vid)
                ), f"store/tracker membership drifted for video {vid}"
        all_members = sorted(
            int(pid) for g in self.groups.values() for pid in g.member_ids.tolist()
        )
        assert all_members == ids, "store membership drifted from peers dict"
        order_ids = self._order_ids[: self._n].tolist()
        assert sorted(order_ids) == ids, "capacity column ids drifted"
        assert order_ids == list(peers), "capacity column order drifted"
        for pid, peer in peers.items():
            group = self.groups[peer.video.video_id]
            bucket = group.bucket
            row = group.row_of[pid]
            assert peer.state_group is group and peer.state_row == row
            assert bucket.peer_by_row[row] is peer
            assert (
                peer.buffer.mask.base is bucket.masks
                or peer.buffer.mask.base is bucket.masks.base
            ), f"buffer of peer {pid} is not bound to the store"
            assert self._isp_table[pid] == peer.isp
            if peer.session is not None:
                missed_row = set(
                    np.nonzero(bucket.missed[row, : group.n_chunks])[0].tolist()
                )
                synced = bucket.position[row] == peer.session.position
                if synced:
                    assert missed_row == peer.session.missed, (
                        f"missed bitmap of peer {pid} drifted"
                    )
        caps = self._order_caps[: self._n]
        expect = np.fromiter(
            (peers[pid].upload_capacity_chunks for pid in order_ids),
            dtype=np.int64,
            count=self._n,
        )
        assert np.array_equal(caps, expect), "capacity column drifted"
        seed_col = self._order_seed[: self._n]
        expect_seed = np.fromiter(
            (peers[pid].is_seed for pid in order_ids),
            dtype=bool,
            count=self._n,
        )
        assert np.array_equal(seed_col, expect_seed), "seed column drifted"
        departures = self._order_departure[: self._n]
        expect_dep = np.fromiter(
            (
                np.inf
                if peers[pid].departure_time is None
                else peers[pid].departure_time
                for pid in order_ids
            ),
            dtype=float,
            count=self._n,
        )
        assert np.array_equal(departures, expect_dep), (
            "departure column drifted"
        )
