"""Per-edge twin of :func:`repro.core.exact.solve_lp_relaxation`.

:func:`solve_lp_relaxation_reference` is the loop the production LP
replaced: it lists the edges one request and one candidate at a time
through the per-request accessors, builds the constraint matrix from
per-edge coordinate triplets and reads the assignment edge by edge.
The production LP builds the same ``(c, A_ub, b_ub)`` from the CSR
columns and reads the assignment with one mask;
``tests/properties/test_lp_equiv.py`` pins the two together.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
from scipy import optimize, sparse

from repro.core.exact import LPSolution
from repro.core.problem import SchedulingProblem
from repro.core.result import ScheduleResult, SolverStats


def lp_edges_reference(problem: SchedulingProblem) -> List[Tuple[int, int, float]]:
    """Every edge as ``(request index, uploader id, value)``, in CSR order."""
    edges = []
    for r in range(problem.n_requests):
        for u, value in zip(problem.candidates_of(r), problem.edge_values_of(r)):
            edges.append((r, int(u), float(value)))
    return edges


def lp_arrays_reference(problem: SchedulingProblem):
    """``(c, A_ub, b_ub)`` of the LP relaxation, one edge at a time."""
    edges = lp_edges_reference(problem)
    n_requests = problem.n_requests
    uploaders = problem.uploaders()
    uploader_row = {u: i for i, u in enumerate(uploaders)}
    c = -np.array([value for _, __, value in edges])  # linprog minimizes
    data, row_idx, col_idx = [], [], []
    for j, (r, u, _) in enumerate(edges):
        row_idx.append(uploader_row[u])
        col_idx.append(j)
        data.append(1.0)
        row_idx.append(len(uploaders) + r)
        col_idx.append(j)
        data.append(1.0)
    a_ub = sparse.csr_matrix(
        (data, (row_idx, col_idx)),
        shape=(len(uploaders) + n_requests, len(edges)),
    )
    b_ub = np.concatenate(
        [
            np.array([problem.capacity_of(u) for u in uploaders], dtype=float),
            np.ones(n_requests),
        ]
    )
    return c, a_ub, b_ub


def solve_lp_relaxation_reference(
    problem: SchedulingProblem, integrality_tol: float = 1e-6
) -> LPSolution:
    """Same contract as ``solve_lp_relaxation``, one edge at a time."""
    edges = lp_edges_reference(problem)
    n_requests = problem.n_requests
    if not edges:
        empty = ScheduleResult.from_assignment_ids(
            np.full(n_requests, -1, dtype=np.int64),
            stats=SolverStats(converged=True),
        )
        return LPSolution(value=0.0, x=np.zeros(0), integral=True, result=empty)

    c, a_ub, b_ub = lp_arrays_reference(problem)
    lp = optimize.linprog(
        c, A_ub=a_ub, b_ub=b_ub, bounds=(0.0, 1.0), method="highs"
    )
    if not lp.success:
        raise RuntimeError(f"LP relaxation failed: {lp.message}")
    x = lp.x
    integral = bool(np.all(np.minimum(x, 1.0 - x) <= integrality_tol))

    assigned = np.full(n_requests, -1, dtype=np.int64)
    for j, (r, u, _) in enumerate(edges):
        if x[j] > 0.5:
            assigned[r] = u
    result = ScheduleResult.from_assignment_ids(
        assigned, stats=SolverStats(converged=True)
    )
    return LPSolution(value=float(-lp.fun), x=x, integral=integral, result=result)
