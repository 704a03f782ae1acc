"""The per-slot chunk scheduling problem (Section III).

A :class:`SchedulingProblem` is one time slot's social-welfare ILP:

* a set of *requests* ``(I_d, c)`` — peer ``d`` wants chunk ``c`` and
  values it ``v^{(c)}(d)``;
* for each request, the *candidate* upstream peers that cache ``c``
  (``∪_n N_n^{(c)}(d)``) with the network cost ``w_{u→d}`` on each edge;
* per-uploader capacities ``B(u)`` (chunks per slot).

The edge weight is the net utility ``v^{(c)}(d) − w_{u→d}``.  Solvers
(:mod:`repro.core.auction`, :mod:`repro.core.exact`,
:mod:`repro.core.baselines`) consume this object; they may not modify it.

Construction comes in two flavours:

* :meth:`SchedulingProblem.add_request` — one request at a time, fully
  validated per call.  The reference path, used by tests, tooling and
  hand-built instances.
* :meth:`SchedulingProblem.add_requests_batch` / :class:`ProblemBuilder`
  — a whole block of requests as flat CSR arrays, validated once with
  vectorized checks.  The per-slot hot path of
  :meth:`repro.p2p.system.P2PSystem.build_problem` uses this; a batch of
  tens of thousands of requests costs a handful of numpy passes instead
  of one Python dict walk per request.

Vectorized solvers read one array view, the flat
:meth:`SchedulingProblem.csr` arrays.  Its size is the edge count ``E``,
with no ``(R, K_max)`` padding, so skewed candidate counts cost nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ChunkRequest",
    "CSRView",
    "ProblemBuilder",
    "SchedulingProblem",
    "random_problem",
]

_EMPTY_INT = np.empty(0, dtype=np.int64)
_EMPTY_FLOAT = np.empty(0, dtype=float)


@dataclass(frozen=True)
class ChunkRequest:
    """One download request ``(I_d, c)`` with the requester's valuation."""

    peer: int
    chunk: Hashable
    valuation: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.valuation):
            raise ValueError(f"valuation must be finite, got {self.valuation!r}")

    @property
    def key(self) -> Tuple[int, Hashable]:
        """The request identity (I_d, c)."""
        return (self.peer, self.chunk)


@dataclass(frozen=True)
class CSRView:
    """Flat (CSR) numpy view of a problem for vectorized solvers.

    Request ``r``'s candidate edges occupy positions
    ``indptr[r]:indptr[r+1]`` of the flat arrays, in candidate order.
    There is no ``(R, K_max)`` padding, so the memory/compute footprint
    is the edge count ``E`` even when candidate counts are heavily
    skewed.

    Attributes
    ----------
    values:
        ``(E,)`` float array of edge net utilities ``v − w``.
    uploader_index:
        ``(E,)`` int array of uploader *indices* (into :attr:`uploaders`).
    indptr:
        ``(R + 1,)`` int array of row boundaries.
    uploaders:
        Uploader peer ids, position = index used above.
    capacity:
        ``(U,)`` int array of ``B(u)`` aligned with :attr:`uploaders`.
    """

    values: np.ndarray
    uploader_index: np.ndarray
    indptr: np.ndarray
    uploaders: np.ndarray
    capacity: np.ndarray

    @property
    def n_requests(self) -> int:
        return len(self.indptr) - 1

    @property
    def n_edges(self) -> int:
        return len(self.values)

    def counts(self) -> np.ndarray:
        """Candidate count per request, ``(R,)``."""
        return np.diff(self.indptr)

    def row(self, index: int) -> slice:
        """Slice of the flat arrays holding request ``index``'s edges."""
        return slice(int(self.indptr[index]), int(self.indptr[index + 1]))

    def edge_rows(self) -> np.ndarray:
        """Request index of every edge, ``(E,)``; cached, do not mutate."""
        cached = getattr(self, "_edge_rows", None)
        if cached is None:
            cached = np.repeat(
                np.arange(self.n_requests, dtype=np.int64), self.counts()
            )
            object.__setattr__(self, "_edge_rows", cached)
        return cached


class SchedulingProblem:
    """Immutable-after-build description of one slot's assignment problem.

    Build with :meth:`add_request` / :meth:`add_requests_batch` /
    :meth:`set_capacity`, then hand to a scheduler.  Request order is
    preserved and indexes results.

    Example
    -------
    >>> p = SchedulingProblem()
    >>> p.set_capacity(10, 1)
    >>> _ = p.add_request(peer=1, chunk="c0", valuation=5.0, candidates={10: 1.0})
    >>> p.n_requests, p.total_capacity()
    (1, 1)
    """

    def __init__(self) -> None:
        # Columnar request storage: one entry per request each.
        self._peers: List[int] = []
        self._chunks: List[Hashable] = []
        self._valuations: List[float] = []
        # Scalar blocks from add_requests_batch whose list forms have not
        # been materialized yet — batch producers hand numpy columns and
        # the hot consumers (csr(), request_peer_array) read them as
        # arrays, so the O(R) list round trip is deferred until a
        # per-request accessor actually asks for it.
        self._peer_pending: List[np.ndarray] = []
        self._val_pending: List[np.ndarray] = []
        self._n_pending_scalars = 0
        self._request_keys: set = set()
        self._keys_stale = False
        self._candidates: List[np.ndarray] = []  # uploader peer ids per request
        self._costs: List[np.ndarray] = []  # w_{u→d} aligned with candidates
        # Flat CSR blocks from add_requests_batch, not yet split into the
        # per-request view lists above; split lazily on first per-request
        # access so batch-built problems feed csr() without ever paying
        # for R slice objects.
        self._lazy_blocks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        # (m, 2) int chunk-key blocks whose tuple forms have not been
        # materialized into _chunks yet — batch producers hand chunk
        # keys as arrays and most consumers (solvers, the transfer
        # epilogue) only ever read the array form.
        self._chunk_pending: List[np.ndarray] = []
        self._cap_dict: Dict[int, int] = {}
        # Trusted (ids, capacities) column pair from prime_capacities,
        # not yet materialized into the dict; csr() reads it directly so
        # batch producers skip both the dict build and the fromiters.
        self._cap_primed: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._edge_count = 0
        self._csr: Optional[CSRView] = None
        self._peer_arr: Optional[np.ndarray] = None
        self._chunk_arr: Optional[np.ndarray] = None

    def _invalidate(self) -> None:
        self._csr = None
        self._peer_arr = None
        self._chunk_arr = None

    @property
    def _capacity(self) -> Dict[int, int]:
        """The capacity dict, materializing a primed column pair lazily.

        After materialization the dict is the single source of truth
        again (a later ``set_capacity`` write lands in it), so the
        primed arrays are dropped.
        """
        primed = self._cap_primed
        if primed is not None:
            ids, caps = primed
            self._cap_dict.update(zip(ids.tolist(), caps.tolist()))
            self._cap_primed = None
        return self._cap_dict

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def set_capacity(self, peer: int, capacity: int) -> None:
        """Declare upload capacity ``B(peer)`` in chunks per slot."""
        if capacity < 0 or int(capacity) != capacity:
            raise ValueError(f"capacity must be a non-negative int, got {capacity!r}")
        self._capacity[peer] = int(capacity)
        self._invalidate()

    def set_capacities_batch(
        self, peers: Sequence[int], capacities: Sequence[int]
    ) -> None:
        """Declare many capacities at once (vectorized :meth:`set_capacity`)."""
        ids = np.asarray(peers, dtype=np.int64)
        caps = np.asarray(capacities)
        if ids.shape != caps.shape or ids.ndim != 1:
            raise ValueError(
                f"peers and capacities must be 1-D and aligned, got shapes "
                f"{ids.shape} and {caps.shape}"
            )
        if caps.size:
            as_int = caps.astype(np.int64)
            if np.any(caps != as_int) or np.any(as_int < 0):
                bad = caps[(caps != as_int) | (as_int < 0)][0]
                raise ValueError(
                    f"capacity must be a non-negative int, got {bad!r}"
                )
            caps = as_int
        self._capacity.update(zip(ids.tolist(), caps.tolist()))
        self._invalidate()

    def prime_capacities(
        self, peers: np.ndarray, capacities: np.ndarray
    ) -> None:
        """Trusted bulk capacity declare from aligned id/value columns.

        The loop-free counterpart of :meth:`set_capacities_batch` for
        producers whose columns are invariant-checked elsewhere (the
        slot pipeline's store columns: unique ids, non-negative int
        capacities — pinned by the store consistency tests).  The
        arrays are copied and handed to :meth:`csr` verbatim, so the
        uploader/capacity columns come out byte-identical to the dict
        path while skipping both the dict build and the fromiters.
        Only legal on a problem with no capacities declared yet.
        """
        if self._cap_dict or self._cap_primed is not None:
            raise ValueError(
                "prime_capacities requires a problem with no declared "
                "capacities"
            )
        ids = np.ascontiguousarray(peers, dtype=np.int64)
        caps = np.ascontiguousarray(capacities, dtype=np.int64)
        if ids.shape != caps.shape or ids.ndim != 1:
            raise ValueError(
                f"peers and capacities must be 1-D and aligned, got shapes "
                f"{ids.shape} and {caps.shape}"
            )
        if ids is peers:
            ids = ids.copy()
        if caps is capacities:
            caps = caps.copy()
        self._cap_primed = (ids, caps)
        self._invalidate()

    def add_request(
        self,
        peer: int,
        chunk: Hashable,
        valuation: float,
        candidates: Dict[int, float],
    ) -> int:
        """Add request ``(peer, chunk)``; returns its index.

        ``candidates`` maps uploader peer id → network cost ``w_{u→d}``.
        Uploaders must have had capacity declared; the requester itself
        cannot be a candidate.  A request with no candidates is legal (it
        simply can never be served).
        """
        valuation = float(valuation)
        if not np.isfinite(valuation):
            raise ValueError(f"valuation must be finite, got {valuation!r}")
        self._materialize_scalars()
        self._ensure_keys()
        key = (peer, chunk)
        if key in self._request_keys:
            raise ValueError(f"duplicate request {key!r}")
        for uploader, cost in candidates.items():
            if uploader == peer:
                raise ValueError(f"peer {peer!r} cannot upload to itself")
            if uploader not in self._capacity:
                raise ValueError(
                    f"candidate uploader {uploader!r} has no declared capacity"
                )
            if not np.isfinite(cost) or cost < 0:
                raise ValueError(f"cost must be finite and >= 0, got {cost!r}")
        self._request_keys.add(key)
        self._peers.append(peer)
        self._chunks.append(chunk)
        self._valuations.append(valuation)
        uploaders = np.fromiter(candidates.keys(), dtype=np.int64, count=len(candidates))
        costs = np.fromiter(candidates.values(), dtype=float, count=len(candidates))
        self._materialize_views()
        self._candidates.append(uploaders)
        self._costs.append(costs)
        self._edge_count += len(uploaders)
        self._invalidate()
        return len(self._peers) - 1

    def add_requests_batch(
        self,
        peers: Sequence[int],
        chunks: Sequence[Hashable],
        valuations: Sequence[float],
        cand_uploaders: Sequence[int],
        cand_costs: Sequence[float],
        indptr: Sequence[int],
        validate: bool = True,
    ) -> range:
        """Append a block of requests from flat CSR arrays; returns their indices.

        Request ``i`` of the block is ``(peers[i], chunks[i])`` valued
        ``valuations[i]``, with candidate uploaders
        ``cand_uploaders[indptr[i]:indptr[i+1]]`` at costs
        ``cand_costs[indptr[i]:indptr[i+1]]``.  Exactly the same
        invariants as :meth:`add_request` are enforced — duplicate keys,
        self-upload, undeclared uploaders, bad costs, duplicate
        candidates within one request — but every check is one vectorized
        pass over the batch instead of per-request Python work.

        ``validate=False`` skips the invariant checks (shape checks are
        always performed) for trusted producers whose output is pinned
        elsewhere — the slot pipeline's construction is equivalence-tested
        against the per-request reference, so it does not pay for
        re-validating what the tests already guarantee.  Untrusted or
        hand-built input must keep ``validate=True``.

        ``chunks`` may be an ``(m, 2)`` int array of
        ``(video_id, chunk_index)`` pairs instead of a tuple sequence;
        the tuple keys are then materialized lazily, only if a
        per-request accessor asks for them (the slot pipeline and the
        solvers never do — they read :meth:`chunk_pair_array`).
        """
        peers_arr = np.ascontiguousarray(peers, dtype=np.int64)
        valuations_arr = np.ascontiguousarray(valuations, dtype=float)
        uploaders_arr = np.ascontiguousarray(cand_uploaders, dtype=np.int64)
        costs_arr = np.ascontiguousarray(cand_costs, dtype=float)
        indptr_arr = np.ascontiguousarray(indptr, dtype=np.int64)
        m = len(peers_arr)
        start = self.n_requests
        chunk_block: Optional[np.ndarray] = None
        if isinstance(chunks, np.ndarray):
            chunk_block = np.ascontiguousarray(chunks, dtype=np.int64)
            if chunk_block.ndim != 2 or chunk_block.shape[1] != 2:
                raise ValueError(
                    f"array chunks must have shape (m, 2), got "
                    f"{chunk_block.shape}"
                )
            n_chunks = len(chunk_block)
            chunk_list: List[Hashable] = []
        else:
            chunk_list = list(chunks)
            n_chunks = len(chunk_list)
        if n_chunks != m or len(valuations_arr) != m:
            raise ValueError(
                f"peers ({m}), chunks ({n_chunks}) and valuations "
                f"({len(valuations_arr)}) must be aligned"
            )
        if len(costs_arr) != len(uploaders_arr):
            raise ValueError(
                f"cand_uploaders ({len(uploaders_arr)}) and cand_costs "
                f"({len(costs_arr)}) must be aligned"
            )
        if (
            len(indptr_arr) != m + 1
            or (m >= 0 and (indptr_arr[0] != 0 or indptr_arr[-1] != len(uploaders_arr)))
        ):
            raise ValueError(
                f"indptr must have length {m + 1}, start at 0 and end at "
                f"{len(uploaders_arr)}, got {indptr_arr!r}"
            )
        counts = np.diff(indptr_arr)
        if np.any(counts < 0):
            raise ValueError("indptr must be non-decreasing")
        if m == 0:
            return range(start, start)
        if validate:
            if chunk_block is not None:
                chunk_list = list(map(tuple, chunk_block.tolist()))
                chunk_block = None
            self._validate_batch(
                peers_arr, valuations_arr, uploaders_arr, costs_arr, counts, m
            )
            keys = list(zip(peers_arr.tolist(), chunk_list))
            batch_keys = set(keys)
            if len(batch_keys) < len(keys):
                seen: set = set()
                for key in keys:
                    if key in seen:
                        raise ValueError(f"duplicate request {key!r}")
                    seen.add(key)
            self._ensure_keys()
            overlap = self._request_keys & batch_keys
            if overlap:
                raise ValueError(f"duplicate request {next(iter(overlap))!r}")
            # All checks passed: commit the block (views into the flat
            # arrays, so the append loop is O(R) slices, no per-edge work).
            self._request_keys |= batch_keys
        else:
            # Trusted block: the key set is rebuilt lazily if a later
            # per-request or validated add needs duplicate detection.
            self._keys_stale = True
        # The scalar blocks are retained (deferred materialization), so
        # never alias the caller's buffers — ascontiguousarray is a
        # no-op for already-conforming input.
        if peers_arr is peers:
            peers_arr = peers_arr.copy()
        if valuations_arr is valuations:
            valuations_arr = valuations_arr.copy()
        self._peer_pending.append(peers_arr)
        self._val_pending.append(valuations_arr)
        self._n_pending_scalars += m
        if chunk_block is not None:
            self._chunk_pending.append(chunk_block)
        else:
            self._materialize_chunks()
            self._chunks.extend(chunk_list)
        self._lazy_blocks.append((uploaders_arr, costs_arr, indptr_arr))
        self._edge_count += len(uploaders_arr)
        self._invalidate()
        return range(start, start + m)

    def _materialize_views(self) -> None:
        """Split pending batch blocks into per-request zero-copy views.

        Deferred until a per-request accessor needs them — the solver
        hot path (``csr()``/``welfare``) never does.
        ``map()`` keeps the slicing loop in C.
        """
        if not self._lazy_blocks:
            return
        for uploaders_arr, costs_arr, indptr_arr in self._lazy_blocks:
            bounds = indptr_arr.tolist()
            slices = list(map(slice, bounds[:-1], bounds[1:]))
            self._candidates.extend(map(uploaders_arr.__getitem__, slices))
            self._costs.extend(map(costs_arr.__getitem__, slices))
        self._lazy_blocks.clear()

    def _validate_batch(
        self,
        peers_arr: np.ndarray,
        valuations_arr: np.ndarray,
        uploaders_arr: np.ndarray,
        costs_arr: np.ndarray,
        counts: np.ndarray,
        m: int,
    ) -> None:
        """Vectorized invariant checks for one request batch."""
        if not np.all(np.isfinite(valuations_arr)):
            bad = valuations_arr[~np.isfinite(valuations_arr)][0]
            raise ValueError(f"valuation must be finite, got {bad!r}")
        if len(costs_arr) and (
            not np.all(np.isfinite(costs_arr)) or np.any(costs_arr < 0)
        ):
            bad = costs_arr[~np.isfinite(costs_arr) | (costs_arr < 0)][0]
            raise ValueError(f"cost must be finite and >= 0, got {bad!r}")
        if not len(uploaders_arr):
            return
        edge_peer = np.repeat(peers_arr, counts)
        selfish = edge_peer == uploaders_arr
        if np.any(selfish):
            offender = int(edge_peer[selfish][0])
            raise ValueError(f"peer {offender!r} cannot upload to itself")
        declared = np.fromiter(
            self._capacity.keys(), dtype=np.int64, count=len(self._capacity)
        )
        known = np.isin(uploaders_arr, declared)
        if not known.all():
            offender = int(uploaders_arr[~known][0])
            raise ValueError(
                f"candidate uploader {offender!r} has no declared capacity"
            )
        rows = np.repeat(np.arange(m, dtype=np.int64), counts)
        same_row = rows[1:] == rows[:-1]
        adjacent = uploaders_arr[1:] == uploaders_arr[:-1]
        if np.all((uploaders_arr[1:] > uploaders_arr[:-1]) | ~same_row):
            return  # strictly increasing within each row ⇒ no duplicates
        if not np.any(adjacent & same_row):
            # Not sorted: fall back to a per-row sort to find repeats.
            order = np.lexsort((uploaders_arr, rows))
            su, sr = uploaders_arr[order], rows[order]
            adjacent = su[1:] == su[:-1]
            same_row = sr[1:] == sr[:-1]
            uploaders_arr, rows = su, sr
        dup = adjacent & same_row
        if np.any(dup):
            where = int(np.nonzero(dup)[0][0])
            raise ValueError(
                f"duplicate candidate uploader {int(uploaders_arr[1:][where])!r} "
                f"for request {int(rows[1:][where])!r} of the batch"
            )

    def _materialize_chunks(self) -> None:
        """Convert pending chunk-pair blocks into the tuple-key list.

        Deferred until a per-request accessor (or key validation) needs
        the tuple form — the slot pipeline and the solvers never do.
        """
        if self._chunk_pending:
            for block in self._chunk_pending:
                self._chunks.extend(map(tuple, block.tolist()))
            self._chunk_pending.clear()

    def _materialize_scalars(self) -> None:
        """Convert pending peer/valuation blocks into the scalar lists.

        Deferred until a per-request accessor needs list indexing — the
        solver hot path reads :meth:`request_peer_array` and the cached
        CSR valuation column instead.
        """
        if self._peer_pending:
            for block in self._peer_pending:
                self._peers.extend(block.tolist())
            self._peer_pending.clear()
            for block in self._val_pending:
                self._valuations.extend(block.tolist())
            self._val_pending.clear()
            self._n_pending_scalars = 0

    def _scalar_column(
        self, materialized: List, pending: List[np.ndarray], dtype
    ) -> np.ndarray:
        """Full column over ``materialized + pending`` without list work."""
        if pending and not materialized:
            return pending[0] if len(pending) == 1 else np.concatenate(pending)
        head = np.asarray(materialized, dtype=dtype)
        if not pending:
            return head
        return np.concatenate([head, *pending])

    def _ensure_keys(self) -> None:
        """Rebuild the duplicate-detection key set after trusted batches."""
        if self._keys_stale:
            self._materialize_chunks()
            self._materialize_scalars()
            self._request_keys = set(zip(self._peers, self._chunks))
            self._keys_stale = False

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def n_requests(self) -> int:
        return len(self._peers) + self._n_pending_scalars

    @property
    def requests(self) -> Sequence[ChunkRequest]:
        return tuple(self.request(i) for i in range(self.n_requests))

    def request(self, index: int) -> ChunkRequest:
        self._materialize_chunks()
        self._materialize_scalars()
        return ChunkRequest(
            peer=self._peers[index],
            chunk=self._chunks[index],
            valuation=self._valuations[index],
        )

    def chunk_of(self, index: int) -> Hashable:
        """Chunk key of request ``index`` (no :class:`ChunkRequest` built)."""
        self._materialize_chunks()
        return self._chunks[index]

    def request_peer_array(self) -> np.ndarray:
        """Downloader peer id per request, ``(R,)`` int64; cached, do not mutate."""
        if self._peer_arr is None:
            self._peer_arr = self._scalar_column(
                self._peers, self._peer_pending, np.int64
            )
        return self._peer_arr

    def request_valuation_array(self) -> np.ndarray:
        """Valuation ``v`` per request, ``(R,)`` float; do not mutate."""
        return self._scalar_column(self._valuations, self._val_pending, float)

    def chunk_pair_array(self) -> np.ndarray:
        """Chunk keys as an ``(R, 2)`` int array; cached, do not mutate.

        Only valid when every chunk key is a ``(video_id, chunk_index)``
        int pair — the shape the P2P slot pipeline always produces.
        Raises ``ValueError``/``TypeError`` otherwise.
        """
        if self._chunk_arr is None:
            if self._chunk_pending and not self._chunks:
                # Pure array-batch construction: reuse the blocks.
                blocks = self._chunk_pending
                arr = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
            else:
                self._materialize_chunks()
                arr = np.asarray(self._chunks, dtype=np.int64)
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise ValueError(
                    "chunk keys are not (video_id, chunk_index) pairs"
                )
            self._chunk_arr = arr
        return self._chunk_arr

    def candidates_of(self, index: int) -> np.ndarray:
        """Uploader peer ids that can serve request ``index``."""
        self._materialize_views()
        return self._candidates[index]

    def costs_of(self, index: int) -> np.ndarray:
        """Edge costs ``w_{u→d}`` aligned with :meth:`candidates_of`."""
        self._materialize_views()
        return self._costs[index]

    def edge_values_of(self, index: int) -> np.ndarray:
        """Net utilities ``v − w`` aligned with :meth:`candidates_of`."""
        self._materialize_views()
        self._materialize_scalars()
        return self._valuations[index] - self._costs[index]

    def capacity_of(self, peer: int) -> int:
        """``B(peer)``; raises ``KeyError`` for unknown uploaders."""
        return self._capacity[peer]

    def uploaders(self) -> List[int]:
        """All peers with declared capacity, in declaration order."""
        return list(self._capacity)

    def total_capacity(self) -> int:
        """Σ_u B(u)."""
        return sum(self._capacity.values())

    def n_edges(self) -> int:
        """Total number of candidate edges."""
        return self._edge_count

    def cost_of_edge(self, index: int, uploader: int) -> float:
        """Cost ``w_{u→d}`` of a specific edge; raises if absent."""
        self._materialize_views()
        cands = self._candidates[index]
        pos = np.nonzero(cands == uploader)[0]
        if len(pos) == 0:
            raise KeyError(
                f"uploader {uploader!r} is not a candidate of request {index!r}"
            )
        return float(self._costs[index][pos[0]])

    def edge_value(self, index: int, uploader: int) -> float:
        """Net utility ``v − w`` of a specific edge."""
        self._materialize_scalars()
        return self._valuations[index] - self.cost_of_edge(index, uploader)

    # ------------------------------------------------------------------
    # Array views for vectorized solvers
    # ------------------------------------------------------------------
    def csr(self) -> CSRView:
        """Flat CSR arrays over a stable uploader index; cached.

        Built with a handful of array passes — no per-request Python
        loop — so it stays cheap on batch-built problems with hundreds
        of thousands of edges.
        """
        if self._csr is not None:
            return self._csr
        n = self.n_requests
        if self._lazy_blocks and not self._candidates:
            # Batch-built problem: reuse the flat block arrays directly,
            # never splitting them into per-request views.
            blocks = self._lazy_blocks
            if len(blocks) == 1:
                flat_uploaders, flat_costs, indptr = blocks[0]
                counts = np.diff(indptr)
            else:
                flat_uploaders = np.concatenate([b[0] for b in blocks])
                flat_costs = np.concatenate([b[1] for b in blocks])
                counts = np.concatenate([np.diff(b[2]) for b in blocks])
                indptr = np.zeros(n + 1, dtype=np.int64)
                np.cumsum(counts, out=indptr[1:])
        else:
            self._materialize_views()
            counts = np.fromiter(map(len, self._candidates), dtype=np.int64, count=n)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            if self._candidates and self._edge_count:
                flat_uploaders = np.concatenate(self._candidates)
                flat_costs = np.concatenate(self._costs)
            else:
                flat_uploaders = _EMPTY_INT
                flat_costs = _EMPTY_FLOAT
        valuations = self._scalar_column(self._valuations, self._val_pending, float)
        values = np.repeat(valuations, counts) - flat_costs
        if self._cap_primed is not None:
            # Primed column pair: dict insertion order would be exactly
            # the array order, so these are the same columns fromiter
            # would produce.
            uploaders, capacity = self._cap_primed
        else:
            uploaders = np.fromiter(
                self._cap_dict.keys(), dtype=np.int64, count=len(self._cap_dict)
            )
            capacity = np.fromiter(
                self._cap_dict.values(), dtype=np.int64, count=len(self._cap_dict)
            )
        if len(flat_uploaders):
            min_id = int(uploaders.min())
            max_id = int(uploaders.max())
            if 0 <= min_id and max_id < max(1 << 20, 8 * len(uploaders)):
                # Dense non-negative ids (the P2P pipeline's shape): a
                # scatter table beats the E·log U searchsorted by ~10×.
                table = np.empty(max_id + 1, dtype=np.int64)
                table[uploaders] = np.arange(len(uploaders), dtype=np.int64)
                uploader_index = table[flat_uploaders]
            else:
                sorter = np.argsort(uploaders, kind="stable")
                uploader_index = sorter[
                    np.searchsorted(uploaders, flat_uploaders, sorter=sorter)
                ]
        else:
            uploader_index = _EMPTY_INT
        self._csr = CSRView(
            values=values,
            uploader_index=uploader_index,
            indptr=indptr,
            uploaders=uploaders,
            capacity=capacity,
        )
        return self._csr

    # ------------------------------------------------------------------
    # Welfare
    # ------------------------------------------------------------------
    def welfare(self, assignment: Dict[int, Optional[int]]) -> float:
        """Social welfare Σ (v − w) of an assignment {request index → uploader}."""
        n = self.n_requests
        served = {
            index: uploader
            for index, uploader in assignment.items()
            if uploader is not None
        }
        if not all(0 <= index < n for index in served):
            return self._welfare_loop(assignment)
        count = len(served)
        indices = np.fromiter(served.keys(), dtype=np.int64, count=count)
        uploaders = np.fromiter(served.values(), dtype=np.int64, count=count)
        return self.welfare_pairs(indices, uploaders)

    def _matched_edge_mask(
        self, indices: np.ndarray, uploaders: np.ndarray
    ) -> np.ndarray:
        """Mask over CSR edges hit by the served ``(request, uploader)`` pairs.

        Each valid pair hits exactly one edge (candidate uploaders are
        unique within a request); a pair assigned to a non-candidate
        hits none, which callers detect by comparing counts.
        """
        csr = self.csr()
        assigned = np.full(self.n_requests, np.iinfo(np.int64).min, dtype=np.int64)
        assigned[indices] = uploaders
        return csr.uploaders[csr.uploader_index] == assigned[csr.edge_rows()]

    def welfare_pairs(self, indices, uploaders) -> float:
        """Vectorized welfare of served ``(request index, uploader id)`` columns.

        ``indices`` must be unique; out-of-range or non-candidate pairs
        fall back to the per-edge loop, which raises the precise error.
        """
        indices = np.asarray(indices, dtype=np.int64)
        uploaders = np.asarray(uploaders, dtype=np.int64)
        if len(indices) == 0:
            return 0.0
        n = self.n_requests
        if indices.min() < 0 or indices.max() >= n:
            return self._welfare_loop(dict(zip(indices.tolist(), uploaders.tolist())))
        csr = self.csr()
        matched = self._matched_edge_mask(indices, uploaders)
        if int(matched.sum()) != len(indices):
            return self._welfare_loop(dict(zip(indices.tolist(), uploaders.tolist())))
        return float(csr.values[matched].sum())

    def edge_value_pairs(self, indices, uploaders) -> np.ndarray:
        """Net utilities ``v − w`` of served pairs, aligned with ``indices``.

        ``indices`` must be unique and in range; raises ``KeyError`` for
        a pair whose uploader is not a candidate (like
        :meth:`edge_value`).
        """
        indices = np.asarray(indices, dtype=np.int64)
        uploaders = np.asarray(uploaders, dtype=np.int64)
        if len(indices) == 0:
            return _EMPTY_FLOAT.copy()
        csr = self.csr()
        matched = self._matched_edge_mask(indices, uploaders)
        values = csr.values[matched]
        if len(values) != len(indices):
            hit = np.isin(indices, csr.edge_rows()[matched])
            where = int(np.nonzero(~hit)[0][0])
            raise KeyError(
                f"uploader {int(uploaders[where])!r} is not a candidate of "
                f"request {int(indices[where])!r}"
            )
        # Matched edges come out in CSR (ascending request) order; undo
        # that to align with the caller's order.
        out = np.empty(len(indices), dtype=float)
        out[np.argsort(indices, kind="stable")] = values
        return out

    def has_edge_pairs(self, indices, uploaders) -> np.ndarray:
        """Bool per pair: is ``uploaders[i]`` a candidate of ``indices[i]``?

        ``indices`` must be unique and in range.
        """
        indices = np.asarray(indices, dtype=np.int64)
        uploaders = np.asarray(uploaders, dtype=np.int64)
        if len(indices) == 0:
            return np.empty(0, dtype=bool)
        csr = self.csr()
        matched = self._matched_edge_mask(indices, uploaders)
        return np.isin(indices, csr.edge_rows()[matched])

    def _welfare_loop(self, assignment: Dict[int, Optional[int]]) -> float:
        total = 0.0
        for index, uploader in assignment.items():
            if uploader is None:
                continue
            total += self.edge_value(index, uploader)
        return total

    def max_edge_value(self) -> float:
        """Largest ``v − w`` over all edges (0 if there are no edges)."""
        csr = self.csr()
        if not csr.n_edges:
            return 0.0
        return max(0.0, float(csr.values.max()))

    def describe(self) -> str:
        """One-line summary for logs."""
        return (
            f"SchedulingProblem(requests={self.n_requests}, "
            f"uploaders={len(self._capacity)}, edges={self.n_edges()}, "
            f"capacity={self.total_capacity()})"
        )

    # ------------------------------------------------------------------
    # Derived problems
    # ------------------------------------------------------------------
    def restricted(
        self, keep: "Callable[[int], bool]"
    ) -> Tuple["SchedulingProblem", Dict[int, int]]:
        """Copy containing only the requests with ``keep(index)`` true.

        Capacities are copied unchanged.  Returns the sub-problem and a
        map new-index → original-index.  Used by the VCG extension
        (welfare without one peer's requests) and by scenario tooling.
        """
        self._materialize_views()
        self._materialize_chunks()
        self._materialize_scalars()
        sub = SchedulingProblem()
        for uploader, capacity in self._capacity.items():
            sub.set_capacity(uploader, capacity)
        index_map: Dict[int, int] = {}
        for index in range(self.n_requests):
            if not keep(index):
                continue
            candidates = {
                int(u): float(c)
                for u, c in zip(self._candidates[index], self._costs[index])
            }
            new_index = sub.add_request(
                self._peers[index],
                self._chunks[index],
                self._valuations[index],
                candidates,
            )
            index_map[new_index] = index
        return sub, index_map

    def without_peer(self, peer: int) -> Tuple["SchedulingProblem", Dict[int, int]]:
        """Copy with every request of ``peer`` removed (capacities intact)."""
        return self.restricted(lambda r: self._peers[r] != peer)

    def reweighted(
        self, valuation_of: "Callable[[int], float]"
    ) -> "SchedulingProblem":
        """Copy with per-request valuations replaced (same edges/capacities).

        ``valuation_of(index)`` returns the (possibly misreported)
        valuation for the request at ``index`` — the strategic-bidding
        tooling uses this to model manipulation.
        """
        self._materialize_views()
        self._materialize_chunks()
        self._materialize_scalars()
        sub = SchedulingProblem()
        for uploader, capacity in self._capacity.items():
            sub.set_capacity(uploader, capacity)
        for index in range(self.n_requests):
            candidates = {
                int(u): float(c)
                for u, c in zip(self._candidates[index], self._costs[index])
            }
            sub.add_request(
                self._peers[index],
                self._chunks[index],
                float(valuation_of(index)),
                candidates,
            )
        return sub


class ProblemBuilder:
    """Columnar accumulator that assembles a :class:`SchedulingProblem`.

    Collect capacity declarations and CSR *blocks* of requests (e.g. one
    block per requesting peer), then :meth:`build` concatenates every
    block once and performs a single vectorized
    :meth:`SchedulingProblem.add_requests_batch` call.  This is the
    construction path the per-slot pipeline uses: total cost is O(E) in
    array ops, independent of how many blocks were added.

    Example
    -------
    >>> b = ProblemBuilder()
    >>> b.set_capacity(10, 2)
    >>> b.add_block(peers=1, chunks=["a", "b"], valuations=[5.0, 4.0],
    ...             cand_uploaders=[10, 10], cand_costs=[1.0, 2.0],
    ...             indptr=[0, 1, 2])
    >>> p = b.build()
    >>> p.n_requests, p.n_edges()
    (2, 2)
    """

    def __init__(self) -> None:
        self._capacity: Dict[int, int] = {}
        self._peer_blocks: List[np.ndarray] = []
        self._chunk_blocks: List[List[Hashable]] = []
        self._valuation_blocks: List[np.ndarray] = []
        self._uploader_blocks: List[np.ndarray] = []
        self._cost_blocks: List[np.ndarray] = []
        self._count_blocks: List[np.ndarray] = []

    # ------------------------------------------------------------------
    # Capacities
    # ------------------------------------------------------------------
    def set_capacity(self, peer: int, capacity: int) -> None:
        """Declare one uploader capacity (order of declaration preserved)."""
        self._capacity[int(peer)] = int(capacity)

    def set_capacities(self, peers: Sequence[int], capacities: Sequence[int]) -> None:
        """Declare many uploader capacities at once."""
        ids = np.asarray(peers, dtype=np.int64)
        caps = np.asarray(capacities, dtype=np.int64)
        if ids.shape != caps.shape:
            raise ValueError(
                f"peers and capacities must be aligned, got shapes "
                f"{ids.shape} and {caps.shape}"
            )
        self._capacity.update(zip(ids.tolist(), caps.tolist()))

    # ------------------------------------------------------------------
    # Request blocks
    # ------------------------------------------------------------------
    def add_block(
        self,
        peers,
        chunks: Sequence[Hashable],
        valuations,
        cand_uploaders,
        cand_costs,
        indptr=None,
        counts=None,
    ) -> int:
        """Queue one CSR block of requests; returns the block's size.

        ``peers`` may be a scalar (one downloader for the whole block —
        the common per-peer case) or an array aligned with ``chunks``.
        Provide either ``indptr`` (length ``len(chunks) + 1``) or
        ``counts`` (length ``len(chunks)``).  Arrays are stored as-is
        and validated at :meth:`build` time by ``add_requests_batch``.
        """
        chunk_list = list(chunks)
        m = len(chunk_list)
        if counts is None:
            if indptr is None:
                raise ValueError("provide either indptr or counts")
            indptr_arr = np.asarray(indptr, dtype=np.int64)
            if len(indptr_arr) != m + 1:
                raise ValueError(
                    f"indptr must have length {m + 1}, got {len(indptr_arr)}"
                )
            counts_arr = np.diff(indptr_arr)
        else:
            if indptr is not None:
                raise ValueError("provide indptr or counts, not both")
            counts_arr = np.asarray(counts, dtype=np.int64)
            if len(counts_arr) != m:
                raise ValueError(
                    f"counts must have length {m}, got {len(counts_arr)}"
                )
        peers_arr = np.asarray(peers, dtype=np.int64)
        if peers_arr.ndim == 0:
            peers_arr = np.full(m, int(peers_arr), dtype=np.int64)
        if m == 0:
            return 0
        self._peer_blocks.append(peers_arr)
        self._chunk_blocks.append(chunk_list)
        self._valuation_blocks.append(np.asarray(valuations, dtype=float))
        self._uploader_blocks.append(np.asarray(cand_uploaders, dtype=np.int64))
        self._cost_blocks.append(np.asarray(cand_costs, dtype=float))
        self._count_blocks.append(counts_arr)
        return m

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def build(self, validate: bool = True) -> SchedulingProblem:
        """Concatenate all blocks into one :class:`SchedulingProblem`.

        ``validate`` is forwarded to
        :meth:`SchedulingProblem.add_requests_batch`.
        """
        problem = SchedulingProblem()
        if self._capacity:
            problem.set_capacities_batch(
                np.fromiter(self._capacity.keys(), dtype=np.int64, count=len(self._capacity)),
                np.fromiter(self._capacity.values(), dtype=np.int64, count=len(self._capacity)),
            )
        if not self._peer_blocks:
            return problem
        peers = np.concatenate(self._peer_blocks)
        chunks: List[Hashable] = []
        for block in self._chunk_blocks:
            chunks.extend(block)
        valuations = np.concatenate(self._valuation_blocks)
        cand_uploaders = np.concatenate(self._uploader_blocks)
        cand_costs = np.concatenate(self._cost_blocks)
        counts = np.concatenate(self._count_blocks)
        indptr = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        problem.add_requests_batch(
            peers, chunks, valuations, cand_uploaders, cand_costs, indptr,
            validate=validate,
        )
        return problem


def random_problem(
    rng: np.random.Generator,
    n_requests: int = 50,
    n_uploaders: int = 10,
    max_candidates: int = 5,
    capacity_range: Tuple[int, int] = (1, 4),
    valuation_range: Tuple[float, float] = (0.8, 8.0),
    cost_range: Tuple[float, float] = (0.0, 10.0),
    integer_weights: bool = False,
) -> SchedulingProblem:
    """Generate a random problem instance (testing/benchmark helper).

    ``integer_weights`` draws integer valuations/costs, which makes the
    auction with ε < 1/n exactly optimal — handy for theorem tests.
    Requesters are numbered ``0..n_requests-1`` and uploaders from
    ``max(10_000, n_requests)``, so the two id ranges never meet.
    """
    if n_uploaders < 1:
        raise ValueError("need at least one uploader")
    problem = SchedulingProblem()
    first = max(10_000, n_requests)
    uploader_ids = [first + i for i in range(n_uploaders)]
    for u in uploader_ids:
        problem.set_capacity(u, int(rng.integers(capacity_range[0], capacity_range[1] + 1)))
    for r in range(n_requests):
        peer = r  # requester ids disjoint from uploader ids
        k = int(rng.integers(1, max_candidates + 1))
        chosen = rng.choice(n_uploaders, size=min(k, n_uploaders), replace=False)
        if integer_weights:
            valuation = float(rng.integers(int(valuation_range[0]), int(valuation_range[1]) + 1))
            costs = rng.integers(int(cost_range[0]), int(cost_range[1]) + 1, size=len(chosen))
        else:
            valuation = float(rng.uniform(*valuation_range))
            costs = rng.uniform(*cost_range, size=len(chosen))
        candidates = {uploader_ids[int(j)]: float(c) for j, c in zip(chosen, costs)}
        problem.add_request(peer=peer, chunk=f"chunk-{r}", valuation=valuation, candidates=candidates)
    return problem
