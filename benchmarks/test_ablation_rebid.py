"""Ablation A5 — multi-round re-bidding × warm-started prices.

The ROADMAP flagged this study as ready once warm starts landed: with
``bid_rounds_per_slot = R > 1`` each slot becomes R re-bid waves with
refreshed deadlines and 1/R budget shares, and ``warm_start_prices``
carries λ between waves (the paper's peers bid against *posted* prices).
This bench runs the moderately-contended static workload end to end per
(R, warm) cell and archives welfare and solver work (summed jacobi
rounds) vs rounds.
"""

from __future__ import annotations

from repro.experiments.sweep import rebid_study, render_rebid_study


def run_study():
    return rebid_study(rounds_list=(1, 2, 4, 8), seed=0)


def test_ablation_rebid(benchmark, archive):
    rows = benchmark.pedantic(run_study, rounds=1, iterations=1)
    archive("ablation_rebid", render_rebid_study(rows))

    by_cell = {(r.rounds, r.warm): r for r in rows}
    # Re-bidding within the slot rescues deadline chunks the one-shot
    # auction misses under tight supply.
    assert by_cell[(2, False)].miss_rate < by_cell[(1, False)].miss_rate
    # Warm-started re-bid waves never do more ε-auction work than cold
    # ones: they start near the last wave's clearing prices.
    for rounds in (2, 4, 8):
        warm, cold = by_cell[(rounds, True)], by_cell[(rounds, False)]
        assert warm.auction_rounds <= cold.auction_rounds
        # Price continuity must not cost welfare (CS-1 caveat shows up
        # as a large drop; small gains are the expected direction).
        assert warm.welfare_total >= 0.95 * cold.welfare_total
