"""Exact reference solvers used to verify Theorem 1 numerically.

The paper proves the auction optimal; we *check* that claim against
three independent oracles:

* :func:`solve_hungarian` — scipy's Jonker-Volgenant solver on the
  Fig. 1(b) assignment expansion (exact for any weights);
* :func:`solve_lp_relaxation` — the LP relaxation via HiGHS; the
  constraint matrix is totally unimodular, so the LP optimum equals the
  ILP optimum and a vertex solution is integral;
* :func:`solve_min_cost_flow` — networkx network simplex on a flow
  formulation with integerized costs (exact on integer-weight
  instances).

These are centralized and polynomial — fine as oracles, useless as P2P
protocols, which is the paper's point in designing the auction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import networkx as nx
import numpy as np
from scipy import optimize, sparse

from .assignment import expand_to_assignment
from .problem import SchedulingProblem
from .result import ScheduleResult, SolverStats

__all__ = [
    "LPSolution",
    "solve_hungarian",
    "solve_lp_relaxation",
    "solve_min_cost_flow",
]


def solve_hungarian(problem: SchedulingProblem) -> ScheduleResult:
    """Exact optimum via linear_sum_assignment on the slot expansion."""
    expansion = expand_to_assignment(problem)
    if expansion.weights.size == 0:
        return ScheduleResult.from_assignment_ids(
            np.full(problem.n_requests, -1, dtype=np.int64),
            stats=SolverStats(converged=True),
        )
    rows, cols = optimize.linear_sum_assignment(expansion.weights, maximize=True)
    return expansion.to_result(rows, cols)


@dataclass
class LPSolution:
    """LP relaxation outcome: optimum value, solution and integrality."""

    value: float
    x: np.ndarray  # flat edge variables, ordered by (request, candidate)
    integral: bool
    result: ScheduleResult

    @property
    def max_fractionality(self) -> float:
        """Distance of the most fractional variable from {0, 1}."""
        if self.x.size == 0:
            return 0.0
        return float(np.minimum(self.x, 1.0 - self.x).max())


def _lp_arrays(problem: SchedulingProblem):
    """The LP relaxation as linprog's ``(c, A_ub, b_ub)``, from the CSR.

    One variable per CSR edge, in CSR order, with cost ``−(v − w)``
    (linprog minimizes).  Row ``i`` of ``A_ub`` is uploader ``i``'s
    capacity (its edges sum to at most ``capacity[i]``) and row
    ``U + r`` request ``r``'s one source (its edges sum to at most 1).
    """
    csr = problem.csr()
    n_uploaders, n_edges = len(csr.uploaders), csr.n_edges
    rows = np.concatenate((csr.uploader_index, n_uploaders + csr.edge_rows()))
    cols = np.tile(np.arange(n_edges), 2)
    a_ub = sparse.csr_matrix(
        (np.ones(2 * n_edges), (rows, cols)),
        shape=(n_uploaders + csr.n_requests, n_edges),
    )
    b_ub = np.concatenate((csr.capacity.astype(float), np.ones(csr.n_requests)))
    return -csr.values, a_ub, b_ub


def solve_lp_relaxation(
    problem: SchedulingProblem, integrality_tol: float = 1e-6
) -> LPSolution:
    """Solve the LP relaxation (paper eq. (1) without integrality) with HiGHS.

    Variables are the edges ``a_{u→d}^{(c)} ∈ [0, 1]``; the two
    constraint families are uploader capacity and one-source-per-request.
    The matrix is built from the problem's CSR columns, and a request is
    served by the edge whose variable exceeds 0.5.
    """
    n_requests = problem.n_requests
    assigned = np.full(n_requests, -1, dtype=np.int64)
    if problem.n_edges() == 0:
        empty = ScheduleResult.from_assignment_ids(
            assigned, stats=SolverStats(converged=True)
        )
        return LPSolution(value=0.0, x=np.zeros(0), integral=True, result=empty)

    c, a_ub, b_ub = _lp_arrays(problem)
    lp = optimize.linprog(
        c, A_ub=a_ub, b_ub=b_ub, bounds=(0.0, 1.0), method="highs"
    )
    if not lp.success:
        raise RuntimeError(f"LP relaxation failed: {lp.message}")
    x = lp.x
    integral = bool(np.all(np.minimum(x, 1.0 - x) <= integrality_tol))

    csr = problem.csr()
    taken = x > 0.5
    assigned[csr.edge_rows()[taken]] = csr.uploaders[csr.uploader_index[taken]]
    result = ScheduleResult.from_assignment_ids(
        assigned, stats=SolverStats(converged=True)
    )
    return LPSolution(value=float(-lp.fun), x=x, integral=integral, result=result)


def solve_min_cost_flow(
    problem: SchedulingProblem, scale: float = 10**6
) -> ScheduleResult:
    """Exact optimum via network simplex on integerized costs.

    Each request pushes one flow unit either through a candidate edge
    (cost ``−round(value·scale)``) or through a zero-cost bypass (the
    outside option).  Edges with non-positive value are pruned: the ILP
    never gains from them.  Exact when ``value·scale`` is integral;
    otherwise accurate to ``1/scale`` per edge.
    """
    graph = nx.DiGraph()
    n_requests = problem.n_requests
    source, sink = "S", "T"
    graph.add_node(source, demand=-n_requests)
    graph.add_node(sink, demand=n_requests)
    for r in range(n_requests):
        rnode = ("r", r)
        graph.add_edge(source, rnode, capacity=1, weight=0)
        graph.add_edge(rnode, sink, capacity=1, weight=0)  # bypass: stay unserved
        for u, value in zip(problem.candidates_of(r), problem.edge_values_of(r)):
            if value <= 0:
                continue
            graph.add_edge(
                rnode, ("u", int(u)), capacity=1, weight=-int(round(value * scale))
            )
    for u in problem.uploaders():
        unode = ("u", u)
        if unode in graph:
            graph.add_edge(unode, sink, capacity=problem.capacity_of(u), weight=0)

    _, flow = nx.network_simplex(graph)
    assigned = np.full(n_requests, -1, dtype=np.int64)
    for r in range(n_requests):
        for dst, units in flow.get(("r", r), {}).items():
            if units > 0 and isinstance(dst, tuple) and dst[0] == "u":
                assigned[r] = dst[1]
    return ScheduleResult.from_assignment_ids(
        assigned, stats=SolverStats(converged=True)
    )
