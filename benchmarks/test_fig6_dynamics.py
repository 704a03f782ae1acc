"""Fig. 6(a–c) — welfare, inter-ISP traffic and miss rate under churn.

Paper: with Poisson arrivals and early departures (probability 0.6) the
auction still beats the locality protocol on all three metrics.
"""

from __future__ import annotations

from claims import assert_anchors
from conftest import archive

from repro.experiments.figures import fig6_peer_dynamics


def test_fig6_peer_dynamics(benchmark, results_dir):
    result = benchmark.pedantic(
        fig6_peer_dynamics,
        kwargs={"scale": "bench", "seed": 0},
        rounds=1,
        iterations=1,
    )
    archive(results_dir, "fig6", result.text)
    assert result.shape_holds, result.shape
    # (a) welfare: auction positive and ahead; (b) inter-ISP share:
    # auction lower; (c) miss rate: auction no worse (claims.ANCHORS).
    assert_anchors("fig6", result)
