"""Message-level trace of one slot's distributed auction (paper Fig. 2).

Runs a single slot of a contended static system through the full
bid/accept/reject/evict/price-update protocol over a simulated latency
network, then prints the price trajectory of the busiest auctioneer and
the message-count breakdown — the microscope view of what the
centralized solver computes in one call.

Run:  python examples/distributed_auction_trace.py
"""

from __future__ import annotations

from repro.core.distributed import DistributedAuction
from repro.metrics.report import sparkline
from repro.p2p import P2PSystem, SystemConfig
from repro.sim import CostLatency, SimNetwork, Simulator


def main() -> None:
    # A contended market (few videos, tight upload) so prices move.
    config = SystemConfig.bench(
        seed=1,
        n_videos=4,
        peer_upload_min_multiple=0.5,
        peer_upload_max_multiple=1.5,
        seed_upload_multiple=2.0,
        bid_rounds_per_slot=1,
    )
    system = P2PSystem(config)
    system.populate_static(200)
    system.run(20.0)  # warm up two slots centrally

    problem = system.build_problem(system.now)
    print(f"slot at t={system.now:.0f}s: {problem.describe()}\n")

    sim = Simulator(start_time=system.now)
    network = SimNetwork(
        sim,
        latency=CostLatency(system.costs.as_cost_fn(), seconds_per_cost_unit=0.02),
    )
    auction = DistributedAuction(sim, network, problem, epsilon=0.01)
    result = auction.run_to_convergence()

    print("message traffic:")
    for kind, count in sorted(network.sent.items()):
        print(f"  {kind:12s} sent={count:6d} delivered={network.delivered[kind]:6d}")

    busiest = max(
        auction.auctioneers,
        key=lambda u: len([e for e in auction.price_events if e.uploader == u]),
    )
    times, prices = auction.price_series(busiest)
    rel = [t - system.now for t in times]
    print(f"\nprice trajectory of busiest auctioneer (peer {busiest}):")
    print(f"  updates: {len(prices)}, final λ = {prices[-1]:.3f}" if prices else "  flat")
    if prices:
        print(f"  λ over time: {sparkline(prices)}")
        print(f"  first update at +{rel[0]:.2f}s, last at +{rel[-1]:.2f}s "
              f"(slot is {config.slot_seconds:.0f}s — converged well within it)")

    print(f"\nschedule: served {result.n_served()}/{problem.n_requests} requests, "
          f"welfare {result.welfare(problem):.1f}")
    print(f"auction stats: {result.stats}")


if __name__ == "__main__":
    main()
