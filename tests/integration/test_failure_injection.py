"""Integration: behaviour under injected failures (Section IV-C claims)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distributed import DistributedAuction
from repro.core.exact import solve_hungarian
from repro.core.problem import ProblemBuilder, random_problem
from repro.p2p.config import SystemConfig
from repro.p2p.system import P2PSystem
from repro.sim.engine import Simulator
from repro.sim.network import ConstantLatency, SimNetwork


class TestDistributedAuctionFailures:
    @pytest.mark.parametrize("loss", [0.05, 0.3, 0.7])
    def test_quiesces_and_feasible_under_any_loss(self, loss):
        rng = np.random.default_rng(3)
        p = random_problem(rng, n_requests=30, n_uploaders=5, capacity_range=(1, 3))
        sim = Simulator()
        network = SimNetwork(
            sim,
            latency=ConstantLatency(0.01),
            loss_probability=loss,
            rng=np.random.default_rng(7),
        )
        auction = DistributedAuction(sim, network, p, epsilon=1e-6)
        result = auction.run_to_convergence()
        result.check_feasible(p)

    def test_partition_confines_to_reachable_uploaders(self):
        builder = ProblemBuilder()
        builder.set_capacity(10, 1)
        builder.set_capacity(20, 1)
        builder.add_request(1, "a", 8.0, {10: 0.5, 20: 3.0})
        p = builder.build()
        sim = Simulator()
        network = SimNetwork(sim, latency=ConstantLatency(0.01))
        network.partition(1, 10)  # the cheap uploader is unreachable
        auction = DistributedAuction(sim, network, p, epsilon=1e-6)
        result = auction.run_to_convergence()
        assert result.assignment[0] == 20

    def test_mass_departure_mid_auction(self):
        """Half the uploaders leave mid-run: the auction converges on the
        survivors (Section IV-C's claim, numerically checked)."""
        rng = np.random.default_rng(4)
        p = random_problem(rng, n_requests=40, n_uploaders=8, capacity_range=(2, 4))
        sim = Simulator()
        network = SimNetwork(sim, latency=ConstantLatency(0.01))
        auction = DistributedAuction(sim, network, p, epsilon=1e-6)
        auction.start()
        sim.run(until=0.02)
        departed = p.uploaders()[:4]
        for uploader in departed:
            auction.depart_peer(uploader)
        result = auction.run_to_convergence()
        result.check_feasible(p)
        for uploader in departed:
            assert uploader not in result.assignment.values()

        # Compare against the optimum of the reduced problem.
        builder = ProblemBuilder()
        for u in p.uploaders():
            builder.set_capacity(u, 0 if u in departed else p.capacity_of(u))
        for r in range(p.n_requests):
            request = p.request(r)
            candidates = {
                int(u): float(c)
                for u, c in zip(p.candidates_of(r), p.costs_of(r))
                if int(u) not in departed
            }
            builder.add_request(request.peer, request.chunk, request.valuation, candidates)
        reduced = builder.build()
        optimum = solve_hungarian(reduced).welfare(reduced)
        welfare = result.welfare(p)
        assert welfare >= optimum - p.n_requests * 1e-6 - 1e-9


class TestSystemFailures:
    def test_zero_upload_population(self):
        """Peers with minimal upload still play (seeds carry the system)."""
        config = SystemConfig.tiny(
            seed=5, peer_upload_min_multiple=0.01, peer_upload_max_multiple=0.02
        )
        system = P2PSystem(config)
        system.populate_static(10)
        collector = system.run(30.0)
        assert len(collector.slots) == 3

    def test_flash_crowd_arrivals(self):
        """A burst of arrivals (10×) must not crash or deadlock the slot loop."""
        config = SystemConfig.tiny(seed=6, arrival_rate_per_s=10.0)
        system = P2PSystem(config)
        collector = system.run(30.0, churn=True)
        assert system.arrivals > 100
        assert len(collector.slots) == 3

    def test_everyone_departs_early(self):
        config = SystemConfig.tiny(
            seed=7, arrival_rate_per_s=1.0, early_departure_prob=1.0
        )
        system = P2PSystem(config)
        system.run(60.0, churn=True)
        # All non-seed peers eventually leave (some recent arrivals remain).
        assert system.departures > 0
        watching = [p for p in system.peers.values() if not p.is_seed]
        assert all(p.departure_time is not None for p in watching)

    def test_single_isp_degenerates_gracefully(self):
        """With one ISP there is no inter-ISP traffic at all."""
        config = SystemConfig.tiny(seed=8, n_isps=1)
        system = P2PSystem(config)
        system.populate_static(10)
        collector = system.run(30.0)
        assert all(s.inter_isp_chunks == 0 for s in collector.slots)
