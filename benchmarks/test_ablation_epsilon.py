"""Ablation A1 — the bidding increment ε: work vs optimality.

Not a paper figure; quantifies a design choice of the reproduction:
the paper's ε = 0 rule is exact only without ties, a tiny ε explodes the
bid count under contention, and a moderate ε converges fast while
staying (empirically exactly) optimal.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.sweep import epsilon_sweep, render_epsilon_sweep

EPSILONS = [10.0, 1.0, 0.1, 0.01, 0.001]


def run_sweep():
    return epsilon_sweep(
        EPSILONS,
        rng=np.random.default_rng(0),
        n_requests=600,
        n_uploaders=30,
        max_candidates=8,
    )


def test_ablation_epsilon(benchmark, archive):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    archive("ablation_epsilon", render_epsilon_sweep(rows))

    by_eps = {r.epsilon: r for r in rows}
    # Optimality improves (weakly) as ε shrinks ...
    assert by_eps[0.001].optimality >= by_eps[10.0].optimality - 1e-9
    # ... and reaches ~exact at moderate ε already.
    assert by_eps[0.01].optimality > 0.999
    # Coarse ε does less work than fine ε.
    assert by_eps[1.0].rounds <= by_eps[0.001].rounds
