"""Reference twins of the auction solver's vectorized paths.

* :func:`etas_reference` — the per-request loop ``AuctionSolver._etas``
  replaced: for each request, the best surplus ``v − w − λ_u`` over its
  candidates with capacity, floored at 0.
* :func:`solve_jacobi_dense` — the synchronized (jacobi) auction over a
  padded ``(R, K_max)`` view of the problem (:func:`dense_view`), one
  heap walk per auctioneer per round.  ``AuctionSolver(mode="jacobi")``
  runs the same rounds over the flat CSR view and evaluates only the
  rows a round can change; the two give the same assignment, ``λ``,
  ``η``, stats and price-callback stream.

``tests/core/test_auction_csr.py`` and
``tests/properties/test_jacobi_frontier_equiv.py`` pin the production
paths against these; the slot-pipeline benchmark times the dense solve
as its seed path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.auction import AuctionNonConvergence, AuctionSolver, _AssignmentSet
from repro.core.problem import CSRView, SchedulingProblem
from repro.core.result import ScheduleResult, SolverStats


def etas_reference(problem: SchedulingProblem, lam: Dict[int, float]) -> Dict[int, float]:
    """Same contract as ``AuctionSolver._etas``, one request at a time."""
    etas: Dict[int, float] = {}
    for index in range(problem.n_requests):
        candidates = problem.candidates_of(index)
        values = problem.edge_values_of(index)
        best = 0.0
        for u, value in zip(candidates, values):
            if problem.capacity_of(int(u)) == 0:
                continue
            best = max(best, float(value) - lam.get(int(u), 0.0))
        etas[index] = best
    return etas


@dataclass(frozen=True)
class DenseView:
    """Padded numpy view of a problem.

    Attributes
    ----------
    values:
        ``(R, K)`` array of edge net utilities ``v − w``; ``-inf`` padding.
    uploader_index:
        ``(R, K)`` array of uploader *indices* (into :attr:`uploaders`);
        ``-1`` padding.
    uploaders:
        Uploader peer ids, position = index used above.
    capacity:
        ``(U,)`` int array of ``B(u)`` aligned with :attr:`uploaders`.
    """

    values: np.ndarray
    uploader_index: np.ndarray
    uploaders: np.ndarray
    capacity: np.ndarray

    @property
    def n_requests(self) -> int:
        return self.values.shape[0]

    @property
    def max_candidates(self) -> int:
        return self.values.shape[1]


def to_dense(csr: CSRView) -> DenseView:
    """Expand a CSR view to the padded :class:`DenseView` (vectorized scatter)."""
    n = csr.n_requests
    counts = csr.counts()
    k = int(counts.max()) if n else 0
    values = np.full((n, max(k, 1)), -np.inf, dtype=float)
    uploader_index = np.full((n, max(k, 1)), -1, dtype=np.int64)
    if csr.n_edges:
        rows = np.repeat(np.arange(n, dtype=np.int64), counts)
        cols = np.arange(csr.n_edges, dtype=np.int64) - np.repeat(
            csr.indptr[:-1], counts
        )
        values[rows, cols] = csr.values
        uploader_index[rows, cols] = csr.uploader_index
    return DenseView(
        values=values,
        uploader_index=uploader_index,
        uploaders=csr.uploaders,
        capacity=csr.capacity,
    )


def dense_view(problem: SchedulingProblem) -> DenseView:
    """The padded view of ``problem``'s CSR arrays (same uploader index)."""
    return to_dense(problem.csr())


def solve_jacobi_dense(
    solver: AuctionSolver,
    problem: SchedulingProblem,
    initial_prices: Optional[Dict[int, float]] = None,
) -> ScheduleResult:
    """Jacobi rounds over the padded view, with ``solver``'s ε, budget and hooks.

    Every round re-evaluates every pending row; each auctioneer walks
    its batch highest bid first through an ``_AssignmentSet`` heap.
    """
    dense = dense_view(problem)
    n = dense.n_requests
    stats = SolverStats()
    if n == 0:
        return solver._empty_result(dense.uploaders, initial_prices, stats)

    values = dense.values.copy()
    uidx = dense.uploader_index
    # Mask out uploaders with no capacity.
    zero_cap = np.nonzero(dense.capacity == 0)[0]
    if len(zero_cap):
        dead = np.isin(uidx, zero_cap)
        values[dead] = -np.inf

    n_uploaders = len(dense.uploaders)
    lam = AuctionSolver._initial_lam(dense.uploaders, initial_prices)
    sets = [
        _AssignmentSet(int(c)) for c in dense.capacity
    ]  # indexed by uploader index
    assigned_to = np.full(n, -1, dtype=np.int64)
    retired = np.all(np.isinf(values) & (values < 0), axis=1)

    safe_uidx = np.where(uidx >= 0, uidx, 0)
    pad = ~np.isfinite(values)

    for round_no in range(1, solver.max_rounds + 1):
        pending = (assigned_to < 0) & ~retired
        if not pending.any():
            break
        rows = np.nonzero(pending)[0]
        stats.rows_evaluated += len(rows)
        phi = values[rows] - lam[safe_uidx[rows]]
        phi[pad[rows]] = -np.inf
        j_star = np.argmax(phi, axis=1)
        phi1 = phi[np.arange(len(rows)), j_star]

        newly_retired = phi1 <= 0.0
        retired[rows[newly_retired]] = True
        live = ~newly_retired
        if not live.any():
            continue
        rows = rows[live]
        phi = phi[live]
        j_star = j_star[live]
        phi1 = phi1[live]

        phi_wo_best = phi.copy()
        phi_wo_best[np.arange(len(rows)), j_star] = -np.inf
        phi2 = phi_wo_best.max(axis=1)
        outside = np.maximum(phi2, 0.0)
        target = uidx[rows, j_star]
        bids = lam[target] + phi1 - outside + solver.epsilon
        submit = bids > lam[target]
        if not submit.any():
            break  # all remaining bidders dormant (ε = 0 ties)
        rows = rows[submit]
        bids = bids[submit]
        target = target[submit]
        stats.bids_submitted += len(rows)
        stats.rounds = round_no

        # Process each auctioneer's batch, highest bid first.
        order = np.lexsort((-bids, target))
        rows, bids, target = rows[order], bids[order], target[order]
        boundaries = np.nonzero(np.diff(target))[0] + 1
        for chunk_rows, chunk_bids, u in zip(
            np.split(rows, boundaries),
            np.split(bids, boundaries),
            target[np.concatenate(([0], boundaries))],
        ):
            aset = sets[int(u)]
            price = lam[int(u)]
            changed = False
            for r, b in zip(chunk_rows, chunk_bids):
                if b <= price:
                    stats.bids_rejected += 1
                    continue
                if aset.full:
                    if b <= aset.min_bid():
                        stats.bids_rejected += 1
                        continue
                    evicted, _ = aset.evict_min()
                    assigned_to[evicted] = -1
                    stats.evictions += 1
                aset.add(int(r), float(b))
                assigned_to[int(r)] = int(u)
                changed = True
            if changed and aset.full:
                new_price = aset.min_bid()
                if new_price > price:
                    lam[int(u)] = new_price
                    stats.price_updates += 1
                    if solver.on_price_update is not None:
                        solver.on_price_update(round_no, int(dense.uploaders[int(u)]), new_price)
        if solver.trace is not None:
            solver.trace.record(
                round_no,
                {int(dense.uploaders[i]): float(lam[i]) for i in range(n_uploaders)},
            )
    else:
        raise AuctionNonConvergence(
            f"round budget {solver.max_rounds} exceeded: "
            f"{(assigned_to >= 0).sum()}/{n} assigned, epsilon={solver.epsilon}"
        )

    return ScheduleResult.from_arrays(
        assigned_to,
        dense.uploaders,
        lam,
        etas=functools.partial(AuctionSolver._etas_array, problem.csr(), lam),
        stats=stats,
    )


def solve_in_mode(
    mode: str,
    problem: SchedulingProblem,
    initial_prices: Optional[Dict[int, float]] = None,
    **solver_kwargs,
) -> ScheduleResult:
    """Solve with ``AuctionSolver(mode=mode, **solver_kwargs)``.

    ``mode="jacobi-dense"`` names the dense oracle: it runs
    :func:`solve_jacobi_dense` with ``AuctionSolver(**solver_kwargs)``,
    so a test can parametrize over the oracle as over a solver mode.
    """
    if mode == "jacobi-dense":
        return solve_jacobi_dense(
            AuctionSolver(**solver_kwargs), problem, initial_prices
        )
    return AuctionSolver(mode=mode, **solver_kwargs).solve(problem, initial_prices)
