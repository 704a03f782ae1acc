"""Welfare decomposition and fairness analysis.

The paper reports aggregate social welfare; downstream users of an
ISP-aware scheduler also care *who* that welfare accrues to.  This
module decomposes a slot schedule into per-peer and per-ISP utilities
and summarizes dispersion with Jain's fairness index

    J(x) = (Σ x_i)² / (n · Σ x_i²) ∈ [1/n, 1]

(1 = perfectly even).  Used by the analysis examples and tests; it has
no effect on scheduling.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from ..core.problem import SchedulingProblem
from ..core.result import ScheduleResult

__all__ = ["jain_index", "per_isp_welfare", "per_peer_utilities"]


def jain_index(values) -> float:
    """Jain's fairness index of a non-negative value vector.

    Returns 1.0 for an empty or all-zero vector (nothing to be unfair
    about).
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return 1.0
    if (arr < 0).any():
        raise ValueError("Jain's index requires non-negative values")
    total = arr.sum()
    if total == 0.0:
        return 1.0
    return float(total**2 / (arr.size * (arr**2).sum()))


def per_peer_utilities(
    problem: SchedulingProblem, result: ScheduleResult
) -> Dict[int, float]:
    """Net utility Σ (v − w) each downstream peer receives in ``result``."""
    utilities: Dict[int, float] = {}
    for index, uploader in result.assignment.items():
        if uploader is None:
            continue
        peer = problem.request(index).peer
        utilities[peer] = utilities.get(peer, 0.0) + problem.edge_value(index, uploader)
    return utilities


def per_isp_welfare(
    problem: SchedulingProblem,
    result: ScheduleResult,
    isp_of: Callable[[int], int],
    n_isps: Optional[int] = None,
) -> Dict[int, float]:
    """Welfare grouped by the downstream peer's ISP.

    ``isp_of`` maps a peer id to its ISP index (e.g. a system's
    ``topology.isp_of``, which raises ``KeyError`` once the peer has
    departed).  ISPs with no served peers report 0.0 when ``n_isps``
    is given.
    """
    welfare: Dict[int, float] = (
        {isp: 0.0 for isp in range(n_isps)} if n_isps is not None else {}
    )
    for peer, utility in per_peer_utilities(problem, result).items():
        isp = isp_of(peer)
        welfare[isp] = welfare.get(isp, 0.0) + utility
    return welfare
