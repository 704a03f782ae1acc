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
* :func:`best_two_full_csr` — a bulk round's best surplus, first
  maximal edge and second best by whole-CSR passes (segment max, repeat
  and compare, ``where`` plus min-reduceat, knock-out copy, second
  segment max), which ``_best_two``'s sweep over candidate columns
  replaced.
* :func:`merge_contested_full` — the contested merge that lexsorts every
  member of each contested auctioneer with its batch, which
  ``AuctionSolver._merge_contested`` replaced by sorting only the
  members the batch can displace.
* :func:`order_bids_transpose` — the large-round commit order from a
  64-bit stable argsort of the complemented bid bits and scipy's
  csr→csc transpose, which ``_order_bids``' 16-bit radix passes
  replaced.

``tests/core/test_auction_csr.py``,
``tests/properties/test_jacobi_frontier_equiv.py`` and
``tests/properties/test_jacobi_pieces_equiv.py`` pin the production
paths against these; the slot-pipeline benchmark times the dense solve
as its seed path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.core.auction import (
    AuctionNonConvergence,
    AuctionSolver,
    _AssignmentSet,
    _segment_max,
)
from repro.core.problem import CSRView, SchedulingProblem
from repro.core.result import ScheduleResult, SolverStats


def best_two_full_csr(
    values: np.ndarray,
    indptr: np.ndarray,
    uidx: np.ndarray,
    lam: Optional[np.ndarray],
    rows: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """φ1, its first maximal CSR edge and φ2 of ``rows``, by whole-CSR passes.

    ``φ = values − lam[uidx]`` (``lam=None``: ``φ = values``).  Every
    row of ``rows`` has at least one edge; other rows may be empty.
    """
    n_edges = len(values)
    counts = np.diff(indptr)
    phi = values.copy() if lam is None else values - lam[uidx]
    phi1_all = _segment_max(phi, indptr)
    is_best = phi >= np.repeat(phi1_all, counts)
    nonempty = counts > 0
    loc_star = np.minimum.reduceat(
        np.where(is_best, np.arange(n_edges), n_edges), indptr[:-1][nonempty]
    )
    e_star_all = np.zeros(len(counts), dtype=np.int64)
    e_star_all[nonempty] = loc_star
    phi[loc_star] = -np.inf
    phi2_all = _segment_max(phi, indptr)
    return phi1_all[rows], e_star_all[rows], phi2_all[rows]


def merge_contested_full(
    member: np.ndarray,
    base: np.ndarray,
    m: np.ndarray,
    cap: np.ndarray,
    bid_of: np.ndarray,
    seq_of: np.ndarray,
    rows: np.ndarray,
    bids: np.ndarray,
    within: np.ndarray,
    starts: np.ndarray,
    lens: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``AuctionSolver._merge_contested`` by one lexsort over every member.

    Same arguments and returns; each block is rewritten in rank order,
    and the lowest kept bid is returned for every auctioneer.
    """
    held = member[AuctionSolver._concat_ranges(base, m)]
    incoming = AuctionSolver._concat_ranges(starts, lens)
    group = np.arange(len(m))
    row = np.concatenate((held, rows[incoming]))
    bid = np.concatenate((bid_of[held], bids[incoming]))
    tie = np.concatenate((-1 - seq_of[held], within[incoming]))
    owner = np.concatenate((np.repeat(group, m), np.repeat(group, lens)))
    order = np.lexsort((tie, -bid, owner))
    row, bid, tie = row[order], bid[order], tie[order]
    size = m + lens
    first = np.zeros(len(m), dtype=np.int64)
    np.cumsum(size[:-1], out=first[1:])
    rank = np.arange(len(row), dtype=np.int64) - np.repeat(first, size)
    kept = rank < np.repeat(cap, size)
    member[np.repeat(base, cap) + rank[kept]] = row[kept]
    accepted = np.bincount(
        np.repeat(group, size)[kept & (tie >= 0)], minlength=len(m)
    )
    return accepted, bid[first + cap - 1], row[~kept & (tie < 0)]


def order_bids_transpose(
    bids: np.ndarray, target: np.ndarray, n_uploaders: int
) -> np.ndarray:
    """``np.lexsort((-bids, target))`` for strictly positive bids, in two passes.

    A stable argsort of the complemented 64-bit patterns orders the
    bids descending; scipy's one-row csr→csc transpose, a stable
    counting sort, then groups them by uploader.
    """
    by_bid = np.argsort(~bids.view(np.uint64), kind="stable")
    grouped = sparse.csr_matrix(
        (by_bid, target[by_bid], np.array([0, len(bids)])),
        shape=(1, n_uploaders),
    ).tocsc()
    return grouped.data


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
