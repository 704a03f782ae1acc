"""Fig. 2 — evolution of the bandwidth price λ_u at a representative peer.

Paper: in a static 500-peer network the per-slot distributed auction's
price at a busy peer starts at 0 each slot, climbs, and converges about
5 s into the 10 s slot.  We rerun the slot auctions at message level
over a latency network derived from the cost model and assert the
sawtooth: price moves, resets per slot, converges within the slot.
"""

from __future__ import annotations

from claims import assert_anchors
from conftest import archive

from repro.experiments.figures import fig2_price_convergence


def test_fig2_price_convergence(benchmark, results_dir):
    result = benchmark.pedantic(
        fig2_price_convergence,
        kwargs={"scale": "bench", "seed": 0, "n_slots": 5},
        rounds=1,
        iterations=1,
    )
    archive(results_dir, "fig2", result.text)
    assert result.shape_holds, result.shape
    # The price moves (claims.ANCHORS).
    assert_anchors("fig2", result)
