"""Fig. 5 — average chunk miss rate per slot, static network.

Paper: under load the auction's miss rate stays small (≈1–2 %) and below
the locality protocol's (≈4–8 %), because upload bandwidth goes to the
chunks that downstream peers value most (the most urgent deadlines).
"""

from __future__ import annotations

from claims import assert_anchors

from repro.experiments.figures import fig5_miss_rate


def test_fig5_miss_rate(benchmark, archive):
    result = benchmark.pedantic(
        fig5_miss_rate,
        kwargs={"scale": "bench", "seed": 0},
        rounds=1,
        iterations=1,
    )
    archive("fig5", result.text)
    assert result.shape_holds, result.shape
    # Ordering plus rough magnitudes: auction < locality, both small
    # (claims.ANCHORS).
    assert_anchors("fig5", result)
