"""Per-request twin of ``AuctionSolver._etas``.

The production dual computation takes one segment-max pass over the
problem's CSR edges.  This is the loop it replaced: for each request,
the best surplus ``v − w − λ_u`` over its candidates with capacity,
floored at 0.  ``tests/core/test_auction_csr.py`` pins the two against
each other.
"""

from __future__ import annotations

from typing import Dict

from repro.core.problem import SchedulingProblem


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
