"""Per-request twin of the certificate checks in ``repro.core.duality``.

:func:`check_complementary_slackness_reference` is the loop
``check_complementary_slackness`` replaced: one pass over each
request's candidates through the per-request accessors, then one over
the uploaders, the assignment and the requests.  The production check
computes each condition over the CSR columns instead, and must give the
same :class:`~repro.core.duality.CertificateReport`: every flag, every
violation string in the same order, and the gap bit for bit.
``tests/properties/test_certificate_equiv.py`` pins the two together.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.duality import CertificateReport
from repro.core.problem import SchedulingProblem
from repro.core.result import ScheduleResult


def dual_objective_reference(
    problem: SchedulingProblem,
    prices: Dict[int, float],
    etas: Dict[int, float],
) -> float:
    """Same contract as ``dual_objective``, one uploader and request at a time."""
    lam_term = sum(
        prices.get(u, 0.0) * problem.capacity_of(u) for u in problem.uploaders()
    )
    eta_term = sum(etas.get(r, 0.0) for r in range(problem.n_requests))
    return lam_term + eta_term


def check_complementary_slackness_reference(
    problem: SchedulingProblem,
    result: ScheduleResult,
    tol: float = 1e-7,
) -> CertificateReport:
    """Same contract as ``check_complementary_slackness``, as a loop."""
    violations: List[str] = []
    prices = result.prices
    etas = result.etas
    loads = result.uploader_loads()

    dual_feasible = True
    for r in range(problem.n_requests):
        candidates = problem.candidates_of(r)
        if len(candidates) == 0:
            continue
        values = problem.edge_values_of(r)
        usable = np.array(
            [problem.capacity_of(int(u)) > 0 for u in candidates], dtype=bool
        )
        if not usable.any():
            continue
        lam = np.array([prices.get(int(u), 0.0) for u in candidates[usable]])
        slack = lam + etas.get(r, 0.0) - values[usable]
        worst = float(slack.min())
        if worst < -tol:
            dual_feasible = False
            violations.append(
                f"dual infeasible at request {r}: min slack {worst:.3e}"
            )

    cs_capacity = True
    for u in problem.uploaders():
        lam_u = prices.get(u, 0.0)
        if lam_u > tol and loads.get(u, 0) != problem.capacity_of(u):
            cs_capacity = False
            violations.append(
                f"uploader {u}: λ={lam_u:.3e} but load "
                f"{loads.get(u, 0)}/{problem.capacity_of(u)}"
            )

    cs_assignment = True
    for r, uploader in result.assignment.items():
        if uploader is None:
            continue
        value = problem.edge_value(r, uploader)
        resid = prices.get(uploader, 0.0) + etas.get(r, 0.0) - value
        if abs(resid) > tol:
            cs_assignment = False
            violations.append(
                f"request {r}→{uploader}: λ+η−(v−w) = {resid:.3e}"
            )

    cs_request = True
    for r in range(problem.n_requests):
        if etas.get(r, 0.0) > tol and result.assignment.get(r) is None:
            cs_request = False
            violations.append(
                f"request {r}: η={etas.get(r, 0.0):.3e} but unserved"
            )

    return CertificateReport(
        dual_feasible=dual_feasible,
        cs_capacity=cs_capacity,
        cs_assignment=cs_assignment,
        cs_request=cs_request,
        gap=dual_objective_reference(problem, prices, etas)
        - result.welfare(problem),
        violations=violations,
    )
