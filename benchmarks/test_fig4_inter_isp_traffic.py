"""Fig. 4 — percentage of inter-ISP traffic per slot, static network.

Paper: the auction incurs a clearly smaller inter-ISP share than the
locality protocol, because a peer only crosses an ISP boundary when the
chunk's valuation justifies the cost.
"""

from __future__ import annotations

from claims import assert_anchors

from repro.experiments.figures import fig4_inter_isp_traffic


def test_fig4_inter_isp_traffic(benchmark, archive):
    result = benchmark.pedantic(
        fig4_inter_isp_traffic,
        kwargs={"scale": "bench", "seed": 0},
        rounds=1,
        iterations=1,
    )
    archive("fig4", result.text)
    assert result.shape_holds, result.shape
    # Factor check: the paper's gap is ~1.5–2×, ours must be at least
    # 1.5×; and there IS cross-ISP demand (claims.ANCHORS).
    assert_anchors("fig4", result)
