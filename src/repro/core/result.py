"""Schedule results: assignments, prices, and feasibility checks.

Every scheduler returns a :class:`ScheduleResult`.  For the auction it
also carries the dual solution (bandwidth prices ``λ_u`` and request
utilities ``η_d^{(c)}``) so Theorem 1's optimality certificates can be
checked (:mod:`repro.core.duality`).

The result is *array-native*: the source of truth is three numpy
columns (request ids, assigned uploader ids, served mask) plus the dual
vectors, built either straight from solver arrays
(:meth:`ScheduleResult.from_arrays` — no per-request Python work) or by
converting the classic dicts once at construction.  The historical dict
API (``result.assignment`` / ``result.prices`` / ``result.etas``) is
preserved as lazily materialized, cached read-only views, so every
consumer written against the dict interface keeps working unchanged;
hot paths use the array accessors (:meth:`assignment_array`,
:meth:`served_pairs`, :meth:`served_columns`) instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, Mapping, Optional, Tuple

import numpy as np

from .problem import SchedulingProblem

__all__ = ["ScheduleResult", "SolverStats"]

_EMPTY_INT = np.empty(0, dtype=np.int64)
_EMPTY_FLOAT = np.empty(0, dtype=float)

#: Sentinel uploader id for unserved requests in :meth:`assignment_array`.
UNSERVED = -1


class _SyncedDict(dict):
    """A dict view that tells its owner when it is mutated.

    The result's arrays stay the source of truth for the hot paths; a
    consumer that mutates the historical dict API (tests patch
    assignments in place) flips a dirty flag so the arrays are rebuilt
    from the dict before the next array access.
    """

    __slots__ = ("_mark_dirty",)

    def __init__(self, data, mark_dirty) -> None:
        super().__init__(data)
        self._mark_dirty = mark_dirty

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        self._mark_dirty()

    def __delitem__(self, key) -> None:
        super().__delitem__(key)
        self._mark_dirty()

    def update(self, *args, **kwargs) -> None:
        super().update(*args, **kwargs)
        self._mark_dirty()

    def __ior__(self, other):
        out = super().__ior__(other)
        self._mark_dirty()
        return out

    def setdefault(self, key, default=None):
        out = super().setdefault(key, default)
        self._mark_dirty()
        return out

    def pop(self, *args):
        out = super().pop(*args)
        self._mark_dirty()
        return out

    def popitem(self):
        out = super().popitem()
        self._mark_dirty()
        return out

    def clear(self) -> None:
        super().clear()
        self._mark_dirty()


@dataclass
class SolverStats:
    """Work counters a solver reports for benchmarking and diagnostics."""

    rounds: int = 0
    bids_submitted: int = 0
    bids_rejected: int = 0
    evictions: int = 0
    price_updates: int = 0
    converged: bool = True

    def merge(self, other: "SolverStats") -> "SolverStats":
        """Combine counters from a sub-run (e.g., ε-scaling phases)."""
        return SolverStats(
            rounds=self.rounds + other.rounds,
            bids_submitted=self.bids_submitted + other.bids_submitted,
            bids_rejected=self.bids_rejected + other.bids_rejected,
            evictions=self.evictions + other.evictions,
            price_updates=self.price_updates + other.price_updates,
            converged=self.converged and other.converged,
        )


class ScheduleResult:
    """Outcome of scheduling one slot.

    Attributes
    ----------
    assignment:
        request index → uploader peer id (or ``None`` when unserved).
        A lazily built dict view over the backing arrays.  In-place
        mutations are supported for compatibility: they mark the view
        dirty and the arrays are rebuilt from it on the next array
        access.
    prices:
        Dual variables ``λ_u`` per uploader (zero for non-auction
        solvers).  Lazy dict view with the same mutation write-back.
    etas:
        Dual variables ``η_d^{(c)}`` per request index (auction only).
        Lazy dict view with the same mutation write-back.
    stats:
        Work counters.
    """

    __slots__ = (
        "_req_ids",
        "_assigned",
        "_served",
        "_price_ids",
        "_price_vals",
        "_eta_ids",
        "_eta_vals",
        "stats",
        "_assignment_dict",
        "_prices_dict",
        "_etas_dict",
        "_dirty",
    )

    def __init__(
        self,
        assignment: Optional[Mapping[int, Optional[int]]] = None,
        prices: Optional[Mapping[int, float]] = None,
        etas: Optional[Mapping[int, float]] = None,
        stats: Optional[SolverStats] = None,
    ) -> None:
        assignment = {} if assignment is None else assignment
        n = len(assignment)
        self._req_ids = np.fromiter(assignment.keys(), dtype=np.int64, count=n)
        self._served = np.fromiter(
            (u is not None for u in assignment.values()), dtype=bool, count=n
        )
        self._assigned = np.fromiter(
            (UNSERVED if u is None else u for u in assignment.values()),
            dtype=np.int64,
            count=n,
        )
        self._price_ids, self._price_vals = self._split_mapping(prices)
        self._eta_ids, self._eta_vals = self._split_mapping(etas)
        self.stats = stats if stats is not None else SolverStats()
        self._assignment_dict: Optional[Dict[int, Optional[int]]] = None
        self._prices_dict: Optional[Dict[int, float]] = None
        self._etas_dict: Optional[Dict[int, float]] = None
        self._dirty = False

    @staticmethod
    def _split_mapping(
        mapping: Optional[Mapping[int, float]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        if not mapping:
            return _EMPTY_INT, _EMPTY_FLOAT
        n = len(mapping)
        ids = np.fromiter(mapping.keys(), dtype=np.int64, count=n)
        vals = np.fromiter(mapping.values(), dtype=float, count=n)
        return ids, vals

    @classmethod
    def from_arrays(
        cls,
        assigned_index: np.ndarray,
        uploaders: np.ndarray,
        prices: Optional[np.ndarray] = None,
        etas: Optional[np.ndarray] = None,
        stats: Optional[SolverStats] = None,
    ) -> "ScheduleResult":
        """Build a result straight from solver arrays (no Python loops).

        Parameters
        ----------
        assigned_index:
            ``(R,)`` int array: position ``r`` holds the *index into
            uploaders* serving request ``r``, or ``-1`` when unserved.
        uploaders:
            ``(U,)`` uploader peer ids (the solver's stable index order).
        prices:
            Optional ``(U,)`` float ``λ`` aligned with ``uploaders``.
        etas:
            Optional ``(R,)`` float ``η`` per request index.
        """
        assigned_index = np.asarray(assigned_index, dtype=np.int64)
        uploaders = np.asarray(uploaders, dtype=np.int64)
        n = len(assigned_index)
        result = cls.__new__(cls)
        result._req_ids = np.arange(n, dtype=np.int64)
        result._served = assigned_index >= 0
        if len(uploaders):
            result._assigned = np.where(
                result._served,
                uploaders[np.where(result._served, assigned_index, 0)],
                UNSERVED,
            )
        else:
            # No uploaders at all ⇒ nothing can be served (a request-only
            # problem); the gather above would index an empty array.
            result._assigned = np.full(n, UNSERVED, dtype=np.int64)
        result._price_ids = uploaders
        result._price_vals = (
            np.zeros(len(uploaders), dtype=float)
            if prices is None
            else np.asarray(prices, dtype=float)
        )
        if etas is None:
            result._eta_ids, result._eta_vals = _EMPTY_INT, _EMPTY_FLOAT
        else:
            result._eta_ids = np.arange(n, dtype=np.int64)
            result._eta_vals = np.asarray(etas, dtype=float)
        result.stats = stats if stats is not None else SolverStats()
        result._assignment_dict = None
        result._prices_dict = None
        result._etas_dict = None
        result._dirty = False
        return result

    @classmethod
    def from_assignment_ids(
        cls,
        assigned_ids: np.ndarray,
        prices: Optional[Mapping[int, float]] = None,
        etas: Optional[Mapping[int, float]] = None,
        stats: Optional[SolverStats] = None,
    ) -> "ScheduleResult":
        """Build a result from a dense uploader-id column.

        ``assigned_ids`` is ``(R,)``: position ``r`` holds the uploader
        *peer id* serving request ``r``, or ``-1`` when unserved.  The
        array is taken over as backing storage — do not mutate it after.
        """
        assigned_ids = np.asarray(assigned_ids, dtype=np.int64)
        result = cls.__new__(cls)
        result._req_ids = np.arange(len(assigned_ids), dtype=np.int64)
        result._served = assigned_ids != UNSERVED
        result._assigned = assigned_ids
        result._price_ids, result._price_vals = cls._split_mapping(prices)
        result._eta_ids, result._eta_vals = cls._split_mapping(etas)
        result.stats = stats if stats is not None else SolverStats()
        result._assignment_dict = None
        result._prices_dict = None
        result._etas_dict = None
        result._dirty = False
        return result

    # ------------------------------------------------------------------
    # Dict views (compatibility API; lazily materialized, cached)
    # ------------------------------------------------------------------
    def _mark_dirty(self) -> None:
        self._dirty = True

    def _sync(self) -> None:
        """Rebuild the arrays after a consumer mutated a dict view."""
        if not self._dirty:
            return
        if self._assignment_dict is not None:
            d = self._assignment_dict
            n = len(d)
            self._req_ids = np.fromiter(d.keys(), dtype=np.int64, count=n)
            self._served = np.fromiter(
                (u is not None for u in d.values()), dtype=bool, count=n
            )
            self._assigned = np.fromiter(
                (UNSERVED if u is None else u for u in d.values()),
                dtype=np.int64,
                count=n,
            )
        if self._prices_dict is not None:
            self._price_ids, self._price_vals = self._split_mapping(self._prices_dict)
        if self._etas_dict is not None:
            self._eta_ids, self._eta_vals = self._split_mapping(self._etas_dict)
        self._dirty = False

    @property
    def assignment(self) -> Dict[int, Optional[int]]:
        if self._assignment_dict is None:
            self._assignment_dict = _SyncedDict(
                {
                    r: (u if s else None)
                    for r, u, s in zip(
                        self._req_ids.tolist(),
                        self._assigned.tolist(),
                        self._served.tolist(),
                    )
                },
                self._mark_dirty,
            )
        return self._assignment_dict

    @property
    def prices(self) -> Dict[int, float]:
        if self._prices_dict is None:
            self._prices_dict = _SyncedDict(
                dict(zip(self._price_ids.tolist(), self._price_vals.tolist())),
                self._mark_dirty,
            )
        return self._prices_dict

    @property
    def etas(self) -> Dict[int, float]:
        if self._etas_dict is None:
            self._etas_dict = _SyncedDict(
                dict(zip(self._eta_ids.tolist(), self._eta_vals.tolist())),
                self._mark_dirty,
            )
        return self._etas_dict

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScheduleResult(n={len(self._req_ids)}, "
            f"served={self.n_served()}, stats={self.stats!r})"
        )

    # ------------------------------------------------------------------
    # Array views (hot-path API)
    # ------------------------------------------------------------------
    def request_indices(self) -> np.ndarray:
        """Request ids, aligned with :meth:`assignment_array` (do not mutate)."""
        self._sync()
        return self._req_ids

    def assignment_array(self) -> np.ndarray:
        """Uploader peer id per request, ``-1`` for unserved (do not mutate).

        Aligned with :meth:`request_indices`; for solver-built results
        that is simply ``0..R-1``.
        """
        self._sync()
        return self._assigned

    def served_mask(self) -> np.ndarray:
        """Bool mask over :meth:`request_indices` (do not mutate)."""
        self._sync()
        return self._served

    def served_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(request_ids, uploader_ids)`` of the served requests."""
        self._sync()
        return self._req_ids[self._served], self._assigned[self._served]

    def price_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(uploader_ids, λ values)`` (do not mutate)."""
        self._sync()
        return self._price_ids, self._price_vals

    def eta_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(request_ids, η values)`` (do not mutate)."""
        self._sync()
        return self._eta_ids, self._eta_vals

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def welfare(self, problem: SchedulingProblem) -> float:
        """Social welfare Σ (v − w) over served requests."""
        return problem.welfare_pairs(*self.served_pairs())

    def n_served(self) -> int:
        """Number of requests that received bandwidth."""
        self._sync()
        return int(self._served.sum())

    def n_unserved(self) -> int:
        self._sync()
        return len(self._req_ids) - self.n_served()

    def served_columns(
        self, problem: SchedulingProblem
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized served-edge columns.

        Returns ``(request_ids, downstream_peers, uploader_ids,
        net_utilities)`` — everything :meth:`served_edges` yields except
        the (arbitrarily hashable, hence non-columnar) chunk keys.
        Raises ``KeyError`` if a served request is assigned to a
        non-candidate, like :meth:`SchedulingProblem.edge_value` would.
        """
        indices, uploaders = self.served_pairs()
        downstream = problem.request_peer_array()[indices]
        values = problem.edge_value_pairs(indices, uploaders)
        return indices, downstream, uploaders, values

    def served_edges(
        self, problem: SchedulingProblem
    ) -> Iterator[Tuple[int, int, Hashable, int, float]]:
        """Yield ``(request_index, downstream, chunk, uploader, net_utility)``."""
        indices, downstream, uploaders, values = self.served_columns(problem)
        for r, d, u, v in zip(
            indices.tolist(), downstream.tolist(), uploaders.tolist(), values.tolist()
        ):
            yield (r, d, problem.chunk_of(r), u, v)

    def uploader_loads(self) -> Dict[int, int]:
        """Chunks assigned per uploader."""
        self._sync()
        ids, counts = np.unique(self._assigned[self._served], return_counts=True)
        return dict(zip(ids.tolist(), counts.tolist()))

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def check_feasible(self, problem: SchedulingProblem) -> None:
        """Raise ``AssertionError`` if the assignment violates the ILP constraints."""
        self._sync()
        n = problem.n_requests
        covered = (
            len(self._req_ids) == n
            and np.array_equal(np.sort(self._req_ids), np.arange(n))
        )
        if not covered:
            raise AssertionError(
                "assignment must cover every request index exactly once"
            )
        indices, uploaders = self.served_pairs()
        candidate_ok = problem.has_edge_pairs(indices, uploaders)
        if not candidate_ok.all():
            where = int(np.nonzero(~candidate_ok)[0][0])
            raise AssertionError(
                f"request {int(indices[where])} assigned to non-candidate "
                f"{int(uploaders[where])}"
            )
        for uploader, load in self.uploader_loads().items():
            cap = problem.capacity_of(uploader)
            if load > cap:
                raise AssertionError(
                    f"uploader {uploader} over capacity: {load} > {cap}"
                )

    def summary(self, problem: SchedulingProblem) -> str:
        """Human-readable one-liner."""
        return (
            f"welfare={self.welfare(problem):.3f} served={self.n_served()}"
            f"/{len(self._req_ids)} rounds={self.stats.rounds}"
            f" converged={self.stats.converged}"
        )
