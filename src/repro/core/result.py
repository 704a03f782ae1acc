"""Schedule results: assignments, prices, and feasibility checks.

Every scheduler returns a :class:`ScheduleResult`.  For the auction it
also carries the dual solution (bandwidth prices ``λ_u`` and request
utilities ``η_d^{(c)}``) so Theorem 1's optimality certificates can be
checked (:mod:`repro.core.duality`).

The result is *array-native*: the source of truth is three numpy
columns (request ids, assigned uploader ids, served mask) plus the dual
vectors, built either straight from solver arrays
(:meth:`ScheduleResult.from_arrays` — no per-request Python work) or by
converting the classic dicts once at construction.  The dict API
(``result.assignment`` / ``result.prices`` / ``result.etas``) is a set
of lazily materialized, cached views over those arrays; an edit through
one raises ``TypeError``, so the arrays are the only state.  Hot paths
use the array accessors (:meth:`assignment_array`,
:meth:`served_pairs`, :meth:`served_columns`) instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterator, Mapping, Optional, Tuple, Union

import numpy as np

from .problem import CSRView, SchedulingProblem

__all__ = ["ScheduleResult", "SolverStats"]

_EMPTY_INT = np.empty(0, dtype=np.int64)
_EMPTY_FLOAT = np.empty(0, dtype=float)

#: Sentinel uploader id for unserved requests in :meth:`assignment_array`.
UNSERVED = -1


class _ReadOnlyDict(dict):
    """A dict view of a result's arrays that refuses every edit.

    The arrays are the result; a changed result is a new
    :class:`ScheduleResult` (the constructor or
    :meth:`ScheduleResult.from_assignment_ids`).
    """

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("ScheduleResult views are read-only; build a new result")

    __setitem__ = __delitem__ = __ior__ = _read_only
    update = setdefault = pop = popitem = clear = _read_only


@dataclass
class SolverStats:
    """Work counters a solver reports for benchmarking and diagnostics.

    What ``rounds`` counts depends on the solver:

    * the jacobi auction counts its synchronized rounds;
    * the Gauss-Seidel auction, the distributed auction
      (:mod:`repro.core.distributed`) and the three preference-queue
      baselines (``_preference_rounds`` in :mod:`repro.core.baselines`)
      count bids;
    * the greedy and random baselines report 1, and the exact oracles
      (:mod:`repro.core.exact`) leave it at 0.

    ``rows_evaluated`` (bid-phase row evaluations) and ``scalar_rounds``
    (jacobi rounds that committed bids in the tail loop, after the
    handoff from the vector rounds) describe how
    a solve did its work, not what it found, so equality ignores them:
    the dense jacobi oracle (``tests/oracles/auction.py``) evaluates
    every pending row by design.
    """

    rounds: int = 0
    bids_submitted: int = 0
    bids_rejected: int = 0
    evictions: int = 0
    price_updates: int = 0
    converged: bool = True
    rows_evaluated: int = field(default=0, compare=False)
    scalar_rounds: int = field(default=0, compare=False)

    def merge(self, other: "SolverStats") -> "SolverStats":
        """Combine counters from a sub-run (e.g., ε-scaling phases)."""
        return SolverStats(
            rounds=self.rounds + other.rounds,
            bids_submitted=self.bids_submitted + other.bids_submitted,
            bids_rejected=self.bids_rejected + other.bids_rejected,
            evictions=self.evictions + other.evictions,
            price_updates=self.price_updates + other.price_updates,
            converged=self.converged and other.converged,
            rows_evaluated=self.rows_evaluated + other.rows_evaluated,
            scalar_rounds=self.scalar_rounds + other.scalar_rounds,
        )


class ScheduleResult:
    """Outcome of scheduling one slot.

    Attributes
    ----------
    assignment:
        request index → uploader peer id (or ``None`` when unserved).
        A lazily built, read-only dict view over the backing arrays:
        an edit raises ``TypeError``.  A changed result is a new one,
        built with the constructor or :meth:`from_assignment_ids`.
    prices:
        Dual variables ``λ_u`` per uploader (zero for non-auction
        solvers).  Read-only dict view.
    etas:
        Dual variables ``η_d^{(c)}`` per request index (auction only).
        Read-only dict view.  The jacobi solver defers ``η``: it is
        computed on first read, from the solve's CSR view and the ``λ``
        the solve ended with, and cached.
    stats:
        Work counters.

    The CSR jacobi solver also hands over the CSR edge of every served
    request (the edge its kept bid is on), so :meth:`served_values` and
    :meth:`welfare` read ``v − w`` at those edges instead of matching
    the served pairs against every edge of the problem.  The pair
    lookup runs instead when the result has no edges (every other
    solver), and when it is scored against a problem whose CSR view is
    not the solve's.  The edges live on the result, so results of
    several solvers of one problem never share them.
    """

    __slots__ = (
        "_req_ids",
        "_assigned",
        "_served",
        "_price_ids",
        "_price_vals",
        "_eta_ids",
        "_eta_vals",
        "_eta_source",
        "_csr",
        "_served_edges",
        "stats",
        "_assignment_dict",
        "_prices_dict",
        "_etas_dict",
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
        self._eta_source: Optional[Callable[[], np.ndarray]] = None
        self._csr: Optional[CSRView] = None
        self._served_edges: Optional[np.ndarray] = None
        self.stats = stats if stats is not None else SolverStats()
        self._assignment_dict: Optional[Dict[int, Optional[int]]] = None
        self._prices_dict: Optional[Dict[int, float]] = None
        self._etas_dict: Optional[Dict[int, float]] = None

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
        etas: Union[np.ndarray, Callable[[], np.ndarray], None] = None,
        stats: Optional[SolverStats] = None,
        csr: Optional[CSRView] = None,
        edges: Optional[np.ndarray] = None,
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
            Optional ``(R,)`` float ``η`` per request index, or a
            function returning it: called once, on the first read of
            :attr:`etas` or :meth:`eta_arrays`.
        csr, edges:
            Optional: the CSR view the solve ran on and an ``(R,)`` int
            array holding, at each served request, the index of its
            edge in that view (other positions are ignored).  The
            result keeps the served rows' edges for
            :meth:`served_values` and :meth:`welfare`.
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
        result._eta_source = None
        if etas is None:
            result._eta_ids, result._eta_vals = _EMPTY_INT, _EMPTY_FLOAT
        elif callable(etas):
            result._eta_source = etas
        else:
            result._eta_ids = np.arange(n, dtype=np.int64)
            result._eta_vals = np.asarray(etas, dtype=float)
        result._csr = csr
        result._served_edges = (
            None if csr is None or edges is None else edges[result._served]
        )
        result.stats = stats if stats is not None else SolverStats()
        result._assignment_dict = None
        result._prices_dict = None
        result._etas_dict = None
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
        result._eta_source = None
        result._csr = None
        result._served_edges = None
        result.stats = stats if stats is not None else SolverStats()
        result._assignment_dict = None
        result._prices_dict = None
        result._etas_dict = None
        return result

    # ------------------------------------------------------------------
    # Dict views (read-only; lazily materialized, cached)
    # ------------------------------------------------------------------
    def _compute_etas(self) -> None:
        """Run a deferred ``η`` computation, once."""
        if self._eta_source is not None:
            self._eta_vals = np.asarray(self._eta_source(), dtype=float)
            self._eta_ids = np.arange(len(self._eta_vals), dtype=np.int64)
            self._eta_source = None

    @property
    def assignment(self) -> Mapping[int, Optional[int]]:
        if self._assignment_dict is None:
            self._assignment_dict = _ReadOnlyDict(
                (r, u if s else None)
                for r, u, s in zip(
                    self._req_ids.tolist(),
                    self._assigned.tolist(),
                    self._served.tolist(),
                )
            )
        return self._assignment_dict

    @property
    def prices(self) -> Mapping[int, float]:
        if self._prices_dict is None:
            self._prices_dict = _ReadOnlyDict(
                zip(self._price_ids.tolist(), self._price_vals.tolist())
            )
        return self._prices_dict

    @property
    def etas(self) -> Mapping[int, float]:
        if self._etas_dict is None:
            self._compute_etas()
            self._etas_dict = _ReadOnlyDict(
                zip(self._eta_ids.tolist(), self._eta_vals.tolist())
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
        return self._req_ids

    def assignment_array(self) -> np.ndarray:
        """Uploader peer id per request, ``-1`` for unserved (do not mutate).

        Aligned with :meth:`request_indices`; for solver-built results
        that is simply ``0..R-1``.
        """
        return self._assigned

    def served_mask(self) -> np.ndarray:
        """Bool mask over :meth:`request_indices` (do not mutate)."""
        return self._served

    def served_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(request_ids, uploader_ids)`` of the served requests."""
        return self._req_ids[self._served], self._assigned[self._served]

    def price_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(uploader_ids, λ values)`` (do not mutate)."""
        return self._price_ids, self._price_vals

    def eta_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(request_ids, η values)`` (do not mutate)."""
        self._compute_etas()
        return self._eta_ids, self._eta_vals

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def _solver_edge_values(
        self, problem: SchedulingProblem
    ) -> Optional[np.ndarray]:
        """``v − w`` at the solve's served edges, or ``None``.

        ``None`` unless the solver recorded its edges and ``problem``'s
        CSR view is the one it solved.
        """
        if self._served_edges is None or problem.csr() is not self._csr:
            return None
        return self._csr.values[self._served_edges]

    def served_values(self, problem: SchedulingProblem) -> np.ndarray:
        """Net utility ``v − w`` of each served pair, aligned with :meth:`served_pairs`.

        Read at the solver's edges when they apply (see the class
        docstring), else looked up by pair
        (:meth:`SchedulingProblem.edge_value_pairs`, ``KeyError`` for a
        non-candidate pair).
        """
        values = self._solver_edge_values(problem)
        if values is None:
            values = problem.edge_value_pairs(*self.served_pairs())
        return values

    def welfare(self, problem: SchedulingProblem) -> float:
        """Social welfare Σ (v − w) over served requests.

        The sum of :meth:`served_values` at the solver's edges: the
        values :meth:`SchedulingProblem.welfare_pairs` sums, in the same
        ascending-request order, so the float is the same.  Without
        them, :meth:`SchedulingProblem.welfare_pairs` itself.
        """
        values = self._solver_edge_values(problem)
        if values is None:
            return problem.welfare_pairs(*self.served_pairs())
        return float(values.sum())

    def n_served(self) -> int:
        """Number of requests that received bandwidth."""
        return int(self._served.sum())

    def n_unserved(self) -> int:
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
        return indices, downstream, uploaders, self.served_values(problem)

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
        ids, counts = np.unique(self._assigned[self._served], return_counts=True)
        return dict(zip(ids.tolist(), counts.tolist()))

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def check_feasible(self, problem: SchedulingProblem) -> None:
        """Raise ``AssertionError`` if the assignment violates the ILP constraints."""
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
