"""Ablation A2 — auction vs the exact oracles: welfare parity, runtime.

Numerically demonstrates Theorem 1 at benchmark scale: the distributed-
style auction (both execution modes and the ε-scaled driver) matches
three independent centralized exact solvers on the same instance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.sweep import render_solver_comparison, solver_comparison


def run_comparison():
    return solver_comparison(
        rng=np.random.default_rng(1),
        n_requests=800,
        n_uploaders=40,
        max_candidates=8,
        epsilon=0.01,
    )


def test_ablation_solvers(benchmark, archive):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    archive("ablation_solvers", render_solver_comparison(rows))

    welfare = {r.solver: r.welfare for r in rows}
    optimum = welfare["hungarian"]
    assert welfare["lp"] == pytest.approx(optimum, abs=1e-4)
    assert welfare["min-cost-flow"] == pytest.approx(optimum, abs=1e-2)
    n_eps = 800 * 0.01
    for name in ("auction-gs", "auction-jacobi", "auction-scaled"):
        assert welfare[name] >= optimum - n_eps - 1e-6, name
