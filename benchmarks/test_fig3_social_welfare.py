"""Fig. 3 — social welfare per slot under dynamic arrivals.

Paper: with Poisson arrivals (peers stay to the end of their video) the
auction's per-slot welfare grows as the population grows; the simple
locality protocol achieves far less and can go negative, because it
ignores chunk valuations when scheduling (v − w can be negative).
"""

from __future__ import annotations

from claims import assert_anchors
from conftest import archive

from repro.experiments.figures import fig3_social_welfare


def test_fig3_social_welfare(benchmark, results_dir):
    result = benchmark.pedantic(
        fig3_social_welfare,
        kwargs={"scale": "bench", "seed": 0},
        rounds=1,
        iterations=1,
    )
    archive(results_dir, "fig3", result.text)
    assert result.shape_holds, result.shape
    # Who wins and by what factor (the paper shows a many-fold gap), and
    # the locality strawman dips negative at least once, Fig. 3's
    # hallmark (claims.ANCHORS).
    assert_anchors("fig3", result)
