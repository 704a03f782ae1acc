"""Dual problem, complementary slackness, and optimality certificates.

The dual of the slot ILP (paper eq. (5)) is

    min  Σ_u λ_u B(u) + Σ_{d,c} η_d^{(c)}
    s.t. λ_u + η_d^{(c)} ≥ v^{(c)}(d) − w_{u→d}   on every edge
         λ, η ≥ 0

Theorem 1 says the auction's final assignment and prices satisfy the
three complementary-slackness (CS) conditions of the primal/dual pair,
certifying optimality.  This module re-checks those conditions on any
:class:`~repro.core.result.ScheduleResult` and computes the duality gap;
with bidding increment ε the certificates hold within ``ε`` per request
(gap ≤ served·ε), which the checkers account for via their tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from .problem import CSRView, SchedulingProblem
from .result import ScheduleResult

__all__ = [
    "CertificateReport",
    "check_complementary_slackness",
    "dual_objective",
    "duality_gap",
    "verify_theorem1",
]


@dataclass
class CertificateReport:
    """Outcome of the optimality-certificate checks."""

    dual_feasible: bool
    cs_capacity: bool  # λ_u > 0 → uploader saturated
    cs_assignment: bool  # assigned edge → λ + η = v − w
    cs_request: bool  # η > 0 → request served
    gap: float
    violations: List[str] = field(default_factory=list)

    @property
    def optimal(self) -> bool:
        """All certificates hold (within the tolerance used to build this report)."""
        return (
            self.dual_feasible
            and self.cs_capacity
            and self.cs_assignment
            and self.cs_request
        )


def _lookup(ids: np.ndarray, values: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``values`` of each of ``keys`` by id, 0 where ``ids`` lacks the key."""
    out = np.zeros(len(keys), dtype=values.dtype)
    if len(ids) and len(keys):
        order = np.argsort(ids, kind="stable")
        pos = order[np.minimum(np.searchsorted(ids, keys, sorter=order), len(ids) - 1)]
        hit = ids[pos] == keys
        out[hit] = values[pos[hit]]
    return out


def _dual_value(csr: CSRView, lam: np.ndarray, eta: np.ndarray) -> float:
    """Σ λ_u B(u) + Σ η_r from the ``λ`` and ``η`` columns.

    Both sums are Python ``sum`` over the columns in order, so the float
    is the one a loop over uploaders and requests gives.
    """
    return sum((lam * csr.capacity).tolist()) + sum(eta.tolist())


def _dual_columns(
    problem: SchedulingProblem, result: ScheduleResult
) -> Tuple[CSRView, np.ndarray, np.ndarray]:
    """The CSR view, ``λ`` per uploader column and ``η`` per request."""
    csr = problem.csr()
    lam = _lookup(*result.price_arrays(), csr.uploaders)
    eta = _lookup(*result.eta_arrays(), np.arange(csr.n_requests, dtype=np.int64))
    return csr, lam, eta


def dual_objective(
    problem: SchedulingProblem,
    prices: Dict[int, float],
    etas: Dict[int, float],
) -> float:
    """Dual value Σ λ_u B(u) + Σ η_d."""
    duals = ScheduleResult(prices=prices, etas=etas)
    return _dual_value(*_dual_columns(problem, duals))


def duality_gap(problem: SchedulingProblem, result: ScheduleResult) -> float:
    """Dual minus primal objective; ≥ 0 for feasible pairs, ≤ served·ε at optimum."""
    return _dual_value(*_dual_columns(problem, result)) - result.welfare(problem)


def check_complementary_slackness(
    problem: SchedulingProblem,
    result: ScheduleResult,
    tol: float = 1e-7,
) -> CertificateReport:
    """Verify dual feasibility and the three CS conditions from Appendix A.

    ``tol`` must dominate the solver's ε (use ``n·ε`` to be safe for the
    aggregate gap; per-condition slack is ``ε``).  Each condition is
    one pass over the CSR columns; violations are listed by condition,
    requests ascending and uploaders in declaration order (the
    assignment's order for CS 2).
    """
    csr, lam, eta = _dual_columns(problem, result)
    violations: List[str] = []

    # Dual feasibility: λ_u + η_r ≥ v − w on every edge.  Edges to
    # zero-capacity uploaders are skipped: λ_u·B(u) = 0 there, so the
    # dual can raise λ_u for free and the constraint never binds.
    slack = lam[csr.uploader_index] + eta[csr.edge_rows()] - csr.values
    slack[~(csr.capacity[csr.uploader_index] > 0)] = np.inf
    worst = np.full(csr.n_requests, np.inf)
    rows = np.flatnonzero(csr.counts())
    if len(rows):
        worst[rows] = np.minimum.reduceat(slack, csr.indptr[rows])
    infeasible = np.flatnonzero(worst < -tol)
    for r, w in zip(infeasible.tolist(), worst[infeasible].tolist()):
        violations.append(f"dual infeasible at request {r}: min slack {w:.3e}")

    # CS 1: λ_u > 0 → uploader fully loaded.
    indices, uploaders = result.served_pairs()
    load = _lookup(*np.unique(uploaders, return_counts=True), csr.uploaders)
    idle = np.flatnonzero((lam > tol) & (load != csr.capacity))
    for u, lam_u, load_u, cap in zip(
        csr.uploaders[idle].tolist(),
        lam[idle].tolist(),
        load[idle].tolist(),
        csr.capacity[idle].tolist(),
    ):
        violations.append(f"uploader {u}: λ={lam_u:.3e} but load {load_u}/{cap}")

    # CS 2: assigned edge → λ_u + η_r = v − w.
    resid = (
        _lookup(*result.price_arrays(), uploaders)
        + eta[indices]
        - problem.edge_value_pairs(indices, uploaders)
    )
    loose = np.abs(resid) > tol
    for r, u, x in zip(
        indices[loose].tolist(), uploaders[loose].tolist(), resid[loose].tolist()
    ):
        violations.append(f"request {r}→{u}: λ+η−(v−w) = {x:.3e}")

    # CS 3: η_r > 0 → request served.
    served = np.zeros(csr.n_requests, dtype=bool)
    served[indices] = True
    unpaid = np.flatnonzero((eta > tol) & ~served)
    for r, eta_r in zip(unpaid.tolist(), eta[unpaid].tolist()):
        violations.append(f"request {r}: η={eta_r:.3e} but unserved")

    return CertificateReport(
        dual_feasible=not len(infeasible),
        cs_capacity=not len(idle),
        cs_assignment=not loose.any(),
        cs_request=not len(unpaid),
        gap=_dual_value(csr, lam, eta) - result.welfare(problem),
        violations=violations,
    )


def verify_theorem1(
    problem: SchedulingProblem,
    result: ScheduleResult,
    epsilon: float,
    tol: float = 1e-9,
) -> CertificateReport:
    """Check Theorem 1's conclusion for an auction run with increment ``epsilon``.

    Uses a tolerance of ``epsilon + tol`` per condition and additionally
    asserts the duality gap lies in ``[-tol, served·ε + tol]``.
    """
    result.check_feasible(problem)
    report = check_complementary_slackness(problem, result, tol=epsilon + tol)
    served = result.n_served()
    if not (-tol <= report.gap <= served * epsilon + tol):
        report.violations.append(
            f"duality gap {report.gap:.3e} outside [0, served·ε = {served * epsilon:.3e}]"
        )
        report.cs_assignment = False
    return report
