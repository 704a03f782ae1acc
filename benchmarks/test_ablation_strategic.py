"""Ablation A6 — strategic manipulation and the VCG fix (paper's future work).

The paper's conclusion: "We are improving the auction mechanism design to
enforce truthfulness of the bids in cases of selfish peers that may
manipulate the mechanism, in our ongoing work."  This bench quantifies
the manipulation gap under the paper's (payment-free) auction and shows
VCG payments close it.
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import random_problem
from repro.core.strategic import manipulation_study
from repro.metrics.report import render_table

FACTORS = [0.5, 1.0, 2.0, 4.0, 8.0]


def run_study():
    rng = np.random.default_rng(3)
    problem = random_problem(
        rng, n_requests=30, n_uploaders=3, max_candidates=3, capacity_range=(1, 2)
    )
    cheater = problem.request(0).peer
    return problem, cheater, manipulation_study(problem, cheater, FACTORS)


def test_ablation_strategic(benchmark, archive):
    problem, cheater, rows = benchmark.pedantic(run_study, rounds=1, iterations=1)
    table = render_table(
        ["factor", "chunks", "auction true utility", "true welfare", "VCG net utility"],
        [
            [r.factor, r.chunks_won, r.auction_true_utility,
             r.auction_welfare, r.vcg_net_utility]
            for r in rows
        ],
    )
    archive("ablation_strategic", table)

    truthful = next(r for r in rows if r.factor == 1.0)
    overbids = [r for r in rows if r.factor > 1.0]
    # The paper's mechanism is manipulable: some overbid weakly helps the
    # cheater and (strictly, on this instance) hurts society.
    assert max(r.auction_true_utility for r in overbids) >= truthful.auction_true_utility
    assert min(r.auction_welfare for r in overbids) < truthful.auction_welfare
    # VCG restores truthfulness: no misreport beats truth-telling.
    for row in rows:
        assert row.vcg_net_utility <= truthful.vcg_net_utility + 1e-9
