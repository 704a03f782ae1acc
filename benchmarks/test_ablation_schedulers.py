"""Ablation A4 — every scheduler on one system workload.

Extends the paper's two-way comparison with the retry-enabled locality
variant, the network-agnostic strawman, the centralized greedy and the
random floor, all on the identical workload (same seed).
"""

from __future__ import annotations

from claims import assert_anchors, run_shootout

from repro.metrics.report import render_table


def test_ablation_schedulers(benchmark, archive):
    results = benchmark.pedantic(run_shootout, rounds=1, iterations=1)
    table = render_table(
        ["scheduler", "welfare/slot", "inter-ISP", "miss", "served",
         "fairness", "localization"],
        [
            [
                name,
                totals["welfare_mean_per_slot"],
                totals["inter_isp_fraction"],
                totals["miss_rate"],
                int(totals["served_total"]),
                totals["download_fairness"],
                totals["traffic_localization"],
            ]
            for name, totals in results.items()
        ],
    )
    archive("ablation_schedulers", table)
    # The auction beats every deployable baseline and is within 2 % of
    # the centralized greedy; an ISP-oblivious scheduler is the welfare
    # floor; inter-ISP share orders auction ≤ locality ≤ agnostic
    # (claims.ANCHORS).
    assert_anchors("a4", results)
