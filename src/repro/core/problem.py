"""The per-slot chunk scheduling problem (Section III).

A :class:`SchedulingProblem` is one time slot's social-welfare ILP:

* a set of *requests* ``(I_d, c)`` — peer ``d`` wants chunk ``c`` and
  values it ``v^{(c)}(d)``;
* for each request, the *candidate* upstream peers that cache ``c``
  (``∪_n N_n^{(c)}(d)``) with the network cost ``w_{u→d}`` on each edge;
* per-uploader capacities ``B(u)`` (chunks per slot).

The edge weight is the net utility ``v^{(c)}(d) − w_{u→d}``.  Solvers
(:mod:`repro.core.auction`, :mod:`repro.core.exact`,
:mod:`repro.core.baselines`) consume this object; nothing can modify it.

A problem is its columns, each stored once and read-only: the capacity
columns (uploader ids and ``B(u)``), the request columns (downloader,
chunk key and valuation per request) and the edge columns (candidate
uploader ids and costs, flat, with ``indptr`` bounding each request's
run).  It is made once, by its constructor, which checks every
invariant in one vectorized pass.  The slot pipeline
(:meth:`repro.p2p.system.P2PSystem.build_problem`) hands its store's
columns straight to the constructor; a problem written by hand is
assembled with :class:`ProblemBuilder`.

Vectorized solvers read one array view, the flat
:meth:`SchedulingProblem.csr` arrays, derived from the columns on first
use.  Its size is the edge count ``E``, with no ``(R, K_max)`` padding,
so skewed candidate counts cost nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple, Union

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


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array`` (``array`` itself keeps its flags)."""
    view = array.view()
    view.flags.writeable = False
    return view


def _column(values, dtype, copy: bool = False) -> np.ndarray:
    """``values`` as a contiguous read-only column of ``dtype``.

    The column is a view of ``values`` when that is already such an
    array; ``copy`` copies it in that case, so the caller's later
    writes cannot reach the problem.
    """
    array = np.ascontiguousarray(values, dtype=dtype)
    if copy and array is values:
        array = array.copy()
    return _read_only(array)


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
    """One slot's assignment problem, made once from its columns.

    * Capacities: uploader ``uploaders[i]`` may send ``capacity[i]``
      chunks this slot; :meth:`uploaders` keeps this order.
    * Requests: request ``r`` is ``(peers[r], chunks[r])``, valued
      ``valuations[r]``.  Request order indexes results.
    * Edges: request ``r``'s candidate uploaders are
      ``cand_uploaders[indptr[r]:indptr[r+1]]``, at costs
      ``cand_costs[indptr[r]:indptr[r+1]]``.  A request with no
      candidates is legal (it simply can never be served).

    ``chunks`` is either an ``(R, 2)`` int array of
    ``(video_id, chunk_index)`` pairs (the slot pipeline's form) or a
    sequence of hashable keys; the problem keeps the form it was given.
    Every column defaults to empty, so ``SchedulingProblem()`` is the
    empty problem.  The columns are stored read-only: the capacity
    columns, and the peer and valuation columns when they are the
    caller's own arrays, are copied; the edge and chunk columns are
    read-only views of the caller's arrays.

    With ``validate`` (the default) the constructor rejects, with
    ``ValueError``, a capacity that is not a non-negative int, a
    repeated uploader, a non-finite valuation, a bad cost, a
    self-upload, an uploader with no declared capacity, a repeated
    candidate within one request and a repeated request.
    ``validate=False`` skips those checks (the shape checks always run)
    for trusted producers whose output is pinned elsewhere — the slot
    pipeline's construction is equivalence-tested against the
    per-request reference, so it does not pay for re-validating what
    the tests already guarantee.  Untrusted or hand-built input must
    keep ``validate=True``.

    Example
    -------
    >>> p = SchedulingProblem(uploaders=[10], capacity=[1], peers=[1],
    ...                       chunks=["c0"], valuations=[5.0],
    ...                       cand_uploaders=[10], cand_costs=[1.0],
    ...                       indptr=[0, 1])
    >>> p.n_requests, p.total_capacity()
    (1, 1)
    """

    def __init__(
        self,
        uploaders: Sequence[int] = (),
        capacity: Sequence[int] = (),
        peers: Sequence[int] = (),
        chunks: Union[np.ndarray, Sequence[Hashable]] = (),
        valuations: Sequence[float] = (),
        cand_uploaders: Sequence[int] = (),
        cand_costs: Sequence[float] = (),
        indptr: Sequence[int] = (0,),
        validate: bool = True,
    ) -> None:
        ids = np.array(uploaders, dtype=np.int64)
        caps = np.asarray(capacity)
        if ids.ndim != 1 or ids.shape != caps.shape:
            raise ValueError(
                f"uploaders and capacity must be 1-D and aligned, got shapes "
                f"{ids.shape} and {caps.shape}"
            )
        if validate:
            _check_capacities(ids, caps)
        self._uploaders = _read_only(ids)
        self._capacity = _read_only(np.array(caps, dtype=np.int64))

        self._peers = _column(peers, np.int64, copy=True)
        self._valuations = _column(valuations, float, copy=True)
        if isinstance(chunks, np.ndarray):
            self._chunks: Union[np.ndarray, Tuple[Hashable, ...]] = _column(
                chunks, np.int64
            )
            if self._chunks.ndim != 2 or self._chunks.shape[1] != 2:
                raise ValueError(
                    f"array chunks must have shape (m, 2), got "
                    f"{self._chunks.shape}"
                )
        else:
            self._chunks = tuple(chunks)
        m = len(self._peers)
        if len(self._chunks) != m or len(self._valuations) != m:
            raise ValueError(
                f"peers ({m}), chunks ({len(self._chunks)}) and valuations "
                f"({len(self._valuations)}) must be aligned"
            )

        self._cand_uploaders = _column(cand_uploaders, np.int64)
        self._cand_costs = _column(cand_costs, float)
        self._indptr = _column(indptr, np.int64)
        n_edges = len(self._cand_uploaders)
        if len(self._cand_costs) != n_edges:
            raise ValueError(
                f"cand_uploaders ({n_edges}) and cand_costs "
                f"({len(self._cand_costs)}) must be aligned"
            )
        if (
            len(self._indptr) != m + 1
            or self._indptr[0] != 0
            or self._indptr[-1] != n_edges
        ):
            raise ValueError(
                f"indptr must have length {m + 1}, start at 0 and end at "
                f"{n_edges}, got {self._indptr!r}"
            )
        if np.any(np.diff(self._indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if validate and m:
            self._check_requests()

        self._csr: Optional[CSRView] = None
        self._capacity_map: Optional[Dict[int, int]] = None

    def _check_requests(self) -> None:
        """Vectorized invariant checks over the request and edge columns."""
        valuations, costs = self._valuations, self._cand_costs
        if not np.all(np.isfinite(valuations)):
            bad = valuations[~np.isfinite(valuations)][0].item()
            raise ValueError(f"valuation must be finite, got {bad!r}")
        if len(costs) and (not np.all(np.isfinite(costs)) or np.any(costs < 0)):
            bad = costs[~np.isfinite(costs) | (costs < 0)][0].item()
            raise ValueError(f"cost must be finite and >= 0, got {bad!r}")
        uploaders = self._cand_uploaders
        if len(uploaders):
            counts = np.diff(self._indptr)
            edge_peer = np.repeat(self._peers, counts)
            selfish = edge_peer == uploaders
            if np.any(selfish):
                offender = int(edge_peer[selfish][0])
                raise ValueError(f"peer {offender!r} cannot upload to itself")
            known = np.isin(uploaders, self._uploaders)
            if not known.all():
                offender = int(uploaders[~known][0])
                raise ValueError(
                    f"candidate uploader {offender!r} has no declared capacity"
                )
            _check_unique_candidates(uploaders, counts)
        chunks = self._chunks
        if isinstance(chunks, np.ndarray):
            chunks = map(tuple, chunks.tolist())
        keys = list(zip(self._peers.tolist(), chunks))
        if len(set(keys)) < len(keys):
            seen: set = set()
            for key in keys:
                if key in seen:
                    raise ValueError(f"duplicate request {key!r}")
                seen.add(key)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def n_requests(self) -> int:
        return len(self._peers)

    def request(self, index: int) -> ChunkRequest:
        return ChunkRequest(
            peer=int(self._peers[index]),
            chunk=self.chunk_of(index),
            valuation=float(self._valuations[index]),
        )

    def chunk_of(self, index: int) -> Hashable:
        """Chunk key of request ``index`` (no :class:`ChunkRequest` built)."""
        chunk = self._chunks[index]
        if isinstance(self._chunks, np.ndarray):
            return tuple(chunk.tolist())
        return chunk

    def request_peer_array(self) -> np.ndarray:
        """Downloader peer id per request, ``(R,)`` int64, read-only."""
        return self._peers

    def request_valuation_array(self) -> np.ndarray:
        """Valuation ``v`` per request, ``(R,)`` float, read-only."""
        return self._valuations

    def chunk_pair_array(self) -> np.ndarray:
        """Chunk keys as an ``(R, 2)`` int array, read-only.

        Only valid when every chunk key is a ``(video_id, chunk_index)``
        int pair — the shape the P2P slot pipeline always produces.
        Raises ``ValueError``/``TypeError`` otherwise.
        """
        if isinstance(self._chunks, np.ndarray):
            return self._chunks
        pairs = np.asarray(self._chunks, dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("chunk keys are not (video_id, chunk_index) pairs")
        return _read_only(pairs)

    def _row(self, index: int) -> slice:
        return slice(int(self._indptr[index]), int(self._indptr[index + 1]))

    def candidates_of(self, index: int) -> np.ndarray:
        """Uploader peer ids that can serve request ``index``."""
        return self._cand_uploaders[self._row(index)]

    def costs_of(self, index: int) -> np.ndarray:
        """Edge costs ``w_{u→d}`` aligned with :meth:`candidates_of`."""
        return self._cand_costs[self._row(index)]

    def edge_values_of(self, index: int) -> np.ndarray:
        """Net utilities ``v − w`` aligned with :meth:`candidates_of`."""
        return self.csr().values[self._row(index)]

    def capacity_of(self, peer: int) -> int:
        """``B(peer)``; raises ``KeyError`` for unknown uploaders."""
        if self._capacity_map is None:
            self._capacity_map = dict(
                zip(self._uploaders.tolist(), self._capacity.tolist())
            )
        return self._capacity_map[peer]

    def uploaders(self) -> List[int]:
        """All peers with declared capacity, in declaration order."""
        return self._uploaders.tolist()

    def total_capacity(self) -> int:
        """Σ_u B(u)."""
        return int(self._capacity.sum())

    def n_edges(self) -> int:
        """Total number of candidate edges."""
        return len(self._cand_uploaders)

    def cost_of_edge(self, index: int, uploader: int) -> float:
        """Cost ``w_{u→d}`` of a specific edge; raises if absent."""
        pos = np.nonzero(self.candidates_of(index) == uploader)[0]
        if len(pos) == 0:
            raise KeyError(
                f"uploader {uploader!r} is not a candidate of request {index!r}"
            )
        return float(self.costs_of(index)[pos[0]])

    def edge_value(self, index: int, uploader: int) -> float:
        """Net utility ``v − w`` of a specific edge."""
        return float(self._valuations[index]) - self.cost_of_edge(index, uploader)

    # ------------------------------------------------------------------
    # Array views for vectorized solvers
    # ------------------------------------------------------------------
    def csr(self) -> CSRView:
        """Flat CSR arrays over a stable uploader index.

        Derived from the columns on the first call and cached: the same
        object on every call, with every field read-only.  Built with a
        handful of array passes — no per-request Python loop — so it
        stays cheap on problems with hundreds of thousands of edges.
        """
        if self._csr is not None:
            return self._csr
        values = np.repeat(self._valuations, np.diff(self._indptr)) - self._cand_costs
        uploaders = self._uploaders
        flat_uploaders = self._cand_uploaders
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
            values=_read_only(values),
            uploader_index=_read_only(uploader_index),
            indptr=self._indptr,
            uploaders=uploaders,
            capacity=self._capacity,
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
            f"uploaders={len(self._uploaders)}, edges={self.n_edges()}, "
            f"capacity={self.total_capacity()})"
        )

    # ------------------------------------------------------------------
    # Derived problems
    # ------------------------------------------------------------------
    def without_peer(self, peer: int) -> Tuple["SchedulingProblem", Dict[int, int]]:
        """Copy with every request of ``peer`` removed (capacities intact).

        Returns the sub-problem and a map new-index → original-index.
        Used by the VCG extension (welfare without one peer's requests).
        """
        keep = self._peers != peer
        kept = np.flatnonzero(keep)
        counts = np.diff(self._indptr)
        indptr = np.zeros(len(kept) + 1, dtype=np.int64)
        np.cumsum(counts[keep], out=indptr[1:])
        if isinstance(self._chunks, np.ndarray):
            chunks = self._chunks[keep]
        else:
            chunks = [self._chunks[index] for index in kept.tolist()]
        edges = np.repeat(keep, counts)
        sub = SchedulingProblem(
            self._uploaders,
            self._capacity,
            self._peers[keep],
            chunks,
            self._valuations[keep],
            self._cand_uploaders[edges],
            self._cand_costs[edges],
            indptr,
        )
        return sub, dict(enumerate(kept.tolist()))

    def reweighted(
        self, valuation_of: "Callable[[int], float]"
    ) -> "SchedulingProblem":
        """Copy with per-request valuations replaced (same edges/capacities).

        ``valuation_of(index)`` returns the (possibly misreported)
        valuation for the request at ``index`` — the strategic-bidding
        tooling uses this to model manipulation.  A non-finite valuation
        raises ``ValueError``.
        """
        return SchedulingProblem(
            self._uploaders,
            self._capacity,
            self._peers,
            self._chunks,
            [float(valuation_of(index)) for index in range(self.n_requests)],
            self._cand_uploaders,
            self._cand_costs,
            self._indptr,
        )


def _check_capacities(ids: np.ndarray, caps: np.ndarray) -> None:
    """Capacities are non-negative ints and uploader ids are unique."""
    if not len(ids):
        return
    with np.errstate(invalid="ignore"):
        as_int = caps.astype(np.int64)
    bad = (caps != as_int) | (as_int < 0)
    if np.any(bad):
        raise ValueError(
            f"capacity must be a non-negative int, got {caps[bad][0].item()!r}"
        )
    _, first = np.unique(ids, return_index=True)
    if len(first) < len(ids):
        repeated = np.ones(len(ids), dtype=bool)
        repeated[first] = False
        raise ValueError(f"duplicate uploader {int(ids[repeated][0])!r}")


def _check_unique_candidates(uploaders: np.ndarray, counts: np.ndarray) -> None:
    """No uploader appears twice among one request's candidates."""
    rows = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    same_row = rows[1:] == rows[:-1]
    if np.all((uploaders[1:] > uploaders[:-1]) | ~same_row):
        return  # strictly increasing within each row ⇒ no duplicates
    adjacent = uploaders[1:] == uploaders[:-1]
    if not np.any(adjacent & same_row):
        # Not sorted: fall back to a per-row sort to find repeats.
        order = np.lexsort((uploaders, rows))
        uploaders, rows = uploaders[order], rows[order]
        adjacent = uploaders[1:] == uploaders[:-1]
        same_row = rows[1:] == rows[:-1]
    dup = adjacent & same_row
    if np.any(dup):
        where = int(np.nonzero(dup)[0][0])
        raise ValueError(
            f"duplicate candidate uploader {int(uploaders[1:][where])!r} "
            f"for request {int(rows[1:][where])!r} of the batch"
        )


class ProblemBuilder:
    """Assembles a :class:`SchedulingProblem` written by hand.

    Declare capacities, add requests one at a time (:meth:`add_request`)
    or as CSR *blocks* (:meth:`add_block`, e.g. one block per requesting
    peer), then :meth:`build` hands the collected columns to the
    :class:`SchedulingProblem` constructor, which checks them.  Values
    pass through unconverted, so a bad one reaches that check.

    Example
    -------
    >>> b = ProblemBuilder()
    >>> b.set_capacity(10, 2)
    >>> b.add_request(peer=1, chunk="a", valuation=5.0, candidates={10: 1.0})
    0
    >>> b.add_block(peers=2, chunks=["a", "b"], valuations=[5.0, 4.0],
    ...             cand_uploaders=[10, 10], cand_costs=[1.0, 2.0],
    ...             indptr=[0, 1, 2])
    2
    >>> p = b.build()
    >>> p.n_requests, p.n_edges()
    (3, 3)
    """

    def __init__(self) -> None:
        self._capacity: Dict[int, int] = {}
        self._peers: List[int] = []
        self._chunks: List[Hashable] = []
        self._valuations: List[float] = []
        self._cand_uploaders: List[int] = []
        self._cand_costs: List[float] = []
        self._indptr: List[int] = [0]

    # ------------------------------------------------------------------
    # Capacities
    # ------------------------------------------------------------------
    def set_capacity(self, peer: int, capacity: int) -> None:
        """Declare ``B(peer)``; a repeat declaration replaces the value.

        Uploaders keep the order of their first declaration.
        """
        self._capacity[peer] = capacity

    def set_capacities(self, peers: Sequence[int], capacities: Sequence[int]) -> None:
        """Declare many uploader capacities at once."""
        ids = np.asarray(peers)
        caps = np.asarray(capacities)
        if ids.shape != caps.shape:
            raise ValueError(
                f"peers and capacities must be aligned, got shapes "
                f"{ids.shape} and {caps.shape}"
            )
        self._capacity.update(zip(ids.tolist(), caps.tolist()))

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def add_request(
        self,
        peer: int,
        chunk: Hashable,
        valuation: float,
        candidates: Dict[int, float],
    ) -> int:
        """Add request ``(peer, chunk)``; returns its index.

        ``candidates`` maps uploader peer id → network cost ``w_{u→d}``.
        """
        self._peers.append(peer)
        self._chunks.append(chunk)
        self._valuations.append(valuation)
        self._cand_uploaders.extend(candidates)
        self._cand_costs.extend(candidates.values())
        self._indptr.append(len(self._cand_uploaders))
        return len(self._peers) - 1

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
        """Add one CSR block of requests; returns the block's size.

        ``peers`` may be a scalar (one downloader for the whole block —
        the common per-peer case) or an array aligned with ``chunks``.
        Provide either ``indptr`` (length ``len(chunks) + 1``) or
        ``counts`` (length ``len(chunks)``).
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
        peers_arr = np.asarray(peers)
        if peers_arr.ndim == 0:
            peers_arr = np.full(m, peers_arr)
        self._peers.extend(peers_arr.tolist())
        self._chunks.extend(chunk_list)
        self._valuations.extend(np.asarray(valuations).tolist())
        self._cand_uploaders.extend(np.asarray(cand_uploaders).tolist())
        self._cand_costs.extend(np.asarray(cand_costs).tolist())
        self._indptr.extend((self._indptr[-1] + np.cumsum(counts_arr)).tolist())
        return m

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def build(self, validate: bool = True) -> SchedulingProblem:
        """The :class:`SchedulingProblem` of everything added so far.

        ``validate`` is the constructor's: with it (the default) a
        rejected value raises ``ValueError`` here.
        """
        return SchedulingProblem(
            list(self._capacity),
            list(self._capacity.values()),
            self._peers,
            self._chunks,
            self._valuations,
            self._cand_uploaders,
            self._cand_costs,
            self._indptr,
            validate=validate,
        )


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
    builder = ProblemBuilder()
    first = max(10_000, n_requests)
    uploader_ids = [first + i for i in range(n_uploaders)]
    for u in uploader_ids:
        builder.set_capacity(u, int(rng.integers(capacity_range[0], capacity_range[1] + 1)))
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
        builder.add_request(peer=peer, chunk=f"chunk-{r}", valuation=valuation, candidates=candidates)
    return builder.build()
