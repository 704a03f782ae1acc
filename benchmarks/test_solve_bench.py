"""``make solve-bench`` at unit-test size: capture, digest and timing."""

from __future__ import annotations

import solve_bench
from solve_bench import slotbench

from repro.p2p.config import SystemConfig


def test_digest_repeats_and_moves_with_epsilon(monkeypatch, capsys):
    workload = slotbench.tiny(slotbench.WORKLOADS["premiere-3k"])
    solves, epsilon = solve_bench.capture(workload, seed=1)
    rounds = SystemConfig.bench(**workload.config).bid_rounds_per_slot
    assert len(solves) == solve_bench.CAPTURED_SLOTS * rounds
    # Re-bids after the first start warm, from the captured prices.
    assert any(prices is not None for _, prices in solves)
    first = solve_bench.digest(solves, epsilon)
    assert solve_bench.digest(solves, epsilon) == first
    again, _ = solve_bench.capture(workload, seed=1)
    assert solve_bench.digest(again, epsilon) == first
    assert solve_bench.digest(solves, 2 * epsilon) != first
    assert solve_bench.solve_ms(solves, epsilon, sweeps=1) > 0.0
    # The command line prints the same digest.
    monkeypatch.setitem(slotbench.WORKLOADS, "premiere-3k", workload)
    assert solve_bench.main(["--workload", "premiere-3k", "--seed", "1"]) == 0
    assert f"digest {first}" in capsys.readouterr().out
