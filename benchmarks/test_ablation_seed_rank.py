"""Ablation A5 — tracker seed ranking: guaranteed vs random.

A reproduction choice (``SystemConfig.bench`` sets
``tracker_seed_rank="random"``): when every bootstrap
list is guaranteed to contain the (cheap, intra-ISP) seeds, inter-ISP
traffic collapses toward zero for any cost-aware protocol and Fig. 4's
comparison degenerates.  Ranking seeds at a random position — a tracker
that orders purely by advertised playback position — restores the
scarce-supply regime the paper's curves exhibit.
"""

from __future__ import annotations

from conftest import archive

from repro.metrics.report import render_table
from repro.p2p.config import SystemConfig
from repro.p2p.system import P2PSystem


def run_pair():
    out = {}
    for rank in ("first", "random"):
        config = SystemConfig.bench(seed=3, tracker_seed_rank=rank)
        system = P2PSystem(config)
        system.populate_static(200, stagger=False)
        collector = system.run(60.0)
        out[rank] = collector.totals()
    return out


def test_ablation_seed_rank(benchmark, results_dir):
    results = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    table = render_table(
        ["seed_rank", "welfare/slot", "inter-ISP", "miss"],
        [
            [
                rank,
                totals["welfare_mean_per_slot"],
                totals["inter_isp_fraction"],
                totals["miss_rate"],
            ]
            for rank, totals in results.items()
        ],
    )
    archive(results_dir, "ablation_seed_rank", table)

    # Guaranteed seeds ⇒ essentially no inter-ISP need; random rank ⇒ some.
    assert results["first"]["inter_isp_fraction"] <= results["random"]["inter_isp_fraction"]
    assert results["random"]["inter_isp_fraction"] > 0.0
