"""Tests for the message-level distributed auction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distributed import DistributedAuction
from repro.core.exact import solve_hungarian
from repro.core.problem import ProblemBuilder, random_problem
from repro.sim.engine import Simulator
from repro.sim.network import ConstantLatency, SimNetwork


def run_distributed(problem, epsilon=1e-6, latency=0.01, loss=0.0, seed=0):
    sim = Simulator()
    network = SimNetwork(
        sim,
        latency=ConstantLatency(latency),
        loss_probability=loss,
        rng=np.random.default_rng(seed),
    )
    auction = DistributedAuction(sim, network, problem, epsilon=epsilon)
    result = auction.run_to_convergence()
    return auction, result


class TestEquivalence:
    def test_known_optimum(self, small_problem, small_problem_optimum):
        _, result = run_distributed(small_problem)
        result.check_feasible(small_problem)
        assert result.welfare(small_problem) == pytest.approx(small_problem_optimum)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_hungarian_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        p = random_problem(rng, n_requests=40, n_uploaders=6, capacity_range=(1, 3))
        _, result = run_distributed(p, epsilon=1e-6)
        result.check_feasible(p)
        optimum = solve_hungarian(p).welfare(p)
        assert result.welfare(p) >= optimum - p.n_requests * 1e-6 - 1e-9

    def test_interleaving_with_random_latency_still_optimal(self):
        """Stale prices from message delays must not break optimality."""
        rng = np.random.default_rng(3)
        p = random_problem(rng, n_requests=30, n_uploaders=4, capacity_range=(1, 2))
        sim = Simulator()
        network = SimNetwork(
            sim,
            latency=ConstantLatency(0.05),
            jitter=0.9,
            rng=np.random.default_rng(1),
        )
        auction = DistributedAuction(sim, network, p, epsilon=1e-6)
        result = auction.run_to_convergence()
        optimum = solve_hungarian(p).welfare(p)
        assert result.welfare(p) >= optimum - p.n_requests * 1e-6 - 1e-9


class TestProtocol:
    def test_price_events_monotone_per_uploader(self, small_problem):
        auction, _ = run_distributed(small_problem)
        by_uploader = {}
        for event in auction.price_events:
            by_uploader.setdefault(event.uploader, []).append(event.price)
        for prices in by_uploader.values():
            assert prices == sorted(prices)

    def test_convergence_time_positive_under_contention(self):
        builder = ProblemBuilder()
        builder.set_capacity(10, 1)
        builder.add_request(1, "a", 8.0, {10: 1.0})
        builder.add_request(2, "b", 5.0, {10: 1.0})
        p = builder.build()
        auction, _ = run_distributed(p)
        assert auction.convergence_time() > 0.0
        times, prices = auction.price_series(10)
        assert len(times) == len(prices) >= 1

    def test_cannot_start_twice(self, small_problem):
        sim = Simulator()
        network = SimNetwork(sim, latency=ConstantLatency(0.01))
        auction = DistributedAuction(sim, network, small_problem)
        auction.start()
        with pytest.raises(RuntimeError):
            auction.start()

    def test_time_limit_enforced(self):
        builder = ProblemBuilder()
        builder.set_capacity(10, 1)
        builder.add_request(1, "a", 8.0, {10: 1.0})
        builder.add_request(2, "b", 5.0, {10: 1.0})
        p = builder.build()
        sim = Simulator()
        network = SimNetwork(sim, latency=ConstantLatency(10.0))  # glacial
        auction = DistributedAuction(sim, network, p, epsilon=1e-6)
        with pytest.raises(RuntimeError):
            auction.run_to_convergence(time_limit=1.0)

    def test_message_stats_populated(self, small_problem):
        sim = Simulator()
        network = SimNetwork(sim, latency=ConstantLatency(0.01))
        auction = DistributedAuction(sim, network, small_problem, epsilon=1e-6)
        auction.run_to_convergence()
        assert network.sent["bid"] >= 3
        assert network.delivered["accept"] >= 3


class TestFailures:
    def test_terminates_under_message_loss(self):
        """Lost messages may strand requests but the auction must quiesce
        and stay feasible."""
        rng = np.random.default_rng(5)
        p = random_problem(rng, n_requests=30, n_uploaders=5, capacity_range=(1, 3))
        _, result = run_distributed(p, loss=0.2, seed=2)
        result.check_feasible(p)

    def test_peer_departure_mid_auction(self):
        """Section IV-C: a departed uploader's winners re-bid elsewhere."""
        builder = ProblemBuilder()
        builder.set_capacity(10, 2)
        builder.set_capacity(20, 2)
        builder.add_request(1, "a", 8.0, {10: 0.5, 20: 1.0})
        builder.add_request(2, "b", 7.0, {10: 0.5, 20: 1.0})
        p = builder.build()
        sim = Simulator()
        network = SimNetwork(sim, latency=ConstantLatency(0.01))
        auction = DistributedAuction(sim, network, p, epsilon=1e-6)
        auction.start()
        sim.run(until=0.05)  # let initial bids land at uploader 10
        auction.depart_peer(10)
        result = auction.run_to_convergence()
        # Both requests must end up at the surviving uploader.
        assert result.assignment[0] == 20
        assert result.assignment[1] == 20

    def test_departing_bidder_retires_its_requests(self, small_problem):
        sim = Simulator()
        network = SimNetwork(sim, latency=ConstantLatency(0.01))
        auction = DistributedAuction(sim, network, small_problem, epsilon=1e-6)
        auction.start()
        sim.run(until=0.005)  # before any bid arrives (latency 0.01)
        auction.depart_peer(1)  # peer 1 owns request 0
        result = auction.run_to_convergence()
        assert result.assignment[0] is None


class TestEvictAcceptReordering:
    """Regression: an Evict that overtakes its Accept must not freeze a bidder.

    Under heavy jitter an auctioneer's Accept can arrive *after* the
    Evict that displaced the same allocation.  The bidder used to ignore
    the early Evict (no assigned request yet) and then trust the late
    Accept, stranding the request in a phantom assigned state while the
    auctioneer had already given its unit away — a permanent welfare
    loss the duality tests bound.
    """

    def make_problem(self):
        builder = ProblemBuilder()
        for u, c in {100: 0, 101: 1, 102: 1}.items():
            builder.set_capacity(u, c)
        requests = [
            (10.98, {}),
            (10.43, {100: 1.27, 101: 0.74, 102: 0.7}),
            (8.08, {100: 4.97, 101: 1.64}),
            (5.52, {100: 3.18, 101: 7.11}),
            (6.95, {100: 7.9, 101: 0.93}),
            (5.87, {100: 1.97, 101: 8.08}),
            (9.61, {100: 1.83, 101: 9.63}),
            (7.86, {100: 4.81, 101: 8.14, 102: 6.03}),
            (10.02, {100: 0.65}),
            (9.37, {100: 3.82, 101: 3.26, 102: 9.94}),
            (5.07, {}),
        ]
        for r, (v, cands) in enumerate(requests):
            builder.add_request(peer=r, chunk=f"c{r}", valuation=v, candidates=cands)
        p = builder.build()
        return p

    def test_jittered_run_stays_optimal(self):
        from repro.core.exact import solve_hungarian

        p = self.make_problem()
        epsilon = 1e-6
        optimum = solve_hungarian(p).welfare(p)
        # Jitter seed 1 used to deliver uploader 102's Evict before its
        # Accept and converge to welfare 8.27 against an optimum of 16.17.
        for jitter_seed in range(6):
            sim = Simulator()
            network = SimNetwork(
                sim,
                latency=ConstantLatency(0.1),
                jitter=0.9,
                rng=np.random.default_rng(jitter_seed),
            )
            auction = DistributedAuction(sim, network, p, epsilon=epsilon)
            result = auction.run_to_convergence()
            result.check_feasible(p)
            assert result.welfare(p) >= optimum - p.n_requests * epsilon - 1e-9
            # Bidder belief must match auctioneer state at quiescence.
            for bidder in auction.bidders.values():
                for state in bidder.requests:
                    if state.assigned_to is not None:
                        key = (bidder.peer, state.chunk)
                        aset = auction.auctioneers[state.assigned_to].aset
                        assert key in aset.bids
