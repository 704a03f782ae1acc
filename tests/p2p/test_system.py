"""Tests for the whole-system slot loop."""

from __future__ import annotations

import pytest

from repro.p2p.config import SystemConfig
from repro.p2p.system import P2PSystem


@pytest.fixture
def tiny_system():
    return P2PSystem(SystemConfig.tiny(seed=5))


class TestAdmission:
    def test_seeds_created_at_start(self, tiny_system):
        assert tiny_system.n_seeds() == 2 * 3  # 2 ISPs × 3 videos × 1

    def test_seed_isps_respected(self, tiny_system):
        """Every ISP must hold one seed of every video (regression: seeds
        used to be auto-assigned, landing all seeds of a video in one ISP)."""
        pairs = {
            (p.isp, p.video.video_id)
            for p in tiny_system.peers.values()
            if p.is_seed
        }
        assert pairs == {(i, v) for i in range(2) for v in range(3)}

    def test_watchers_balanced_across_isps(self, tiny_system):
        tiny_system.populate_static(20)
        sizes = tiny_system.topology.sizes()
        assert abs(sizes[0] - sizes[1]) <= 1

    def test_add_watching_peer_wires_everything(self, tiny_system):
        peer = tiny_system.add_watching_peer(video_id=0, upload_multiple=2.0)
        assert peer.peer_id in tiny_system.peers
        assert peer.peer_id in tiny_system.tracker
        assert peer.peer_id in tiny_system.overlay
        assert peer.peer_id in tiny_system.topology
        assert tiny_system.overlay.degree(peer.peer_id) > 0  # found neighbors

    def test_remove_peer_cleans_up(self, tiny_system):
        peer = tiny_system.add_watching_peer(video_id=0, upload_multiple=2.0)
        pid = peer.peer_id
        tiny_system.costs.cost(pid, 1)
        tiny_system.remove_peer(pid)
        assert pid not in tiny_system.peers
        assert pid not in tiny_system.tracker
        assert pid not in tiny_system.overlay
        assert pid not in tiny_system.topology
        assert all(pid not in key for key in tiny_system.costs._cache)

    def test_remove_unknown_raises(self, tiny_system):
        with pytest.raises(KeyError):
            tiny_system.remove_peer(424242)


class TestProblemConstruction:
    def test_candidates_are_neighbors_with_chunk(self, tiny_system):
        tiny_system.populate_static(15)
        problem = tiny_system.build_problem(0.0)
        for r in range(problem.n_requests):
            request = problem.request(r)
            downstream = tiny_system.peers[request.peer]
            neighbors = tiny_system.overlay.neighbors(request.peer)
            video_id, index = request.chunk
            assert video_id == downstream.video.video_id
            for u in problem.candidates_of(r):
                assert int(u) in neighbors
                assert tiny_system.peers[int(u)].holds_chunk(video_id, index)

    def test_capacity_override(self, tiny_system):
        tiny_system.populate_static(5)
        problem = tiny_system.build_problem(
            0.0, capacities={pid: 1 for pid in tiny_system.peers}
        )
        assert all(problem.capacity_of(u) == 1 for u in problem.uploaders())

    def test_round_budget_splits_exactly(self):
        budgets = [P2PSystem._round_budget(10, r, 4) for r in range(4)]
        assert sum(budgets) == 10
        assert max(budgets) - min(budgets) <= 1

    def test_request_owner_map(self, tiny_system):
        tiny_system.populate_static(10)
        problem = tiny_system.build_problem(0.0)
        owner = problem.request_peer_array()
        assert problem.n_requests > 0
        for r, pid in enumerate(owner.tolist()):
            assert problem.request(r).peer == pid


class TestSlotLoop:
    def test_run_advances_clock_and_records(self, tiny_system):
        tiny_system.populate_static(10)
        collector = tiny_system.run(30.0)
        assert tiny_system.now == pytest.approx(30.0)
        assert len(collector.slots) == 3
        times = [s.time for s in collector.slots]
        assert times == [0.0, 10.0, 20.0]

    def test_transfers_update_buffers(self, tiny_system):
        tiny_system.populate_static(10)
        before = {p.peer_id: len(p.buffer) for p in tiny_system.peers.values()}
        metrics = tiny_system.run_slot()
        gained = sum(
            len(p.buffer) - before[p.peer_id]
            for p in tiny_system.peers.values()
            if p.peer_id in before
        )
        assert gained == metrics.n_served
        assert metrics.inter_isp_chunks + metrics.intra_isp_chunks == metrics.n_served

    def test_served_never_exceeds_requests(self, tiny_system):
        tiny_system.populate_static(12)
        metrics = tiny_system.run_slot()
        assert metrics.n_served <= metrics.n_requests

    def test_upload_counters_consistent(self, tiny_system):
        tiny_system.populate_static(10)
        tiny_system.run(20.0)
        uploaded = sum(p.chunks_uploaded for p in tiny_system.peers.values())
        downloaded = sum(p.chunks_downloaded for p in tiny_system.peers.values())
        assert uploaded == downloaded

    def test_static_run_keeps_population(self, tiny_system):
        tiny_system.populate_static(10)
        tiny_system.run(40.0)
        assert len(tiny_system.peers) == 10 + tiny_system.n_seeds()


class TestChurn:
    def test_arrivals_grow_population(self):
        config = SystemConfig.tiny(seed=2, arrival_rate_per_s=1.0)
        system = P2PSystem(config)
        system.run(40.0, churn=True)
        assert system.arrivals > 10
        assert len(system.peers) > system.n_seeds()

    def test_finished_peers_leave_in_churn_mode(self):
        config = SystemConfig.tiny(seed=3, arrival_rate_per_s=0.5)
        system = P2PSystem(config)
        # Video is 40 chunks = 40 s; run long enough for early arrivals to finish.
        system.run(120.0, churn=True)
        assert system.departures > 0

    def test_early_departures_happen(self):
        config = SystemConfig.tiny(
            seed=4, arrival_rate_per_s=1.0, early_departure_prob=1.0
        )
        system = P2PSystem(config)
        system.run(60.0, churn=True)
        assert system.departures > 0

    def test_same_seed_same_workload(self):
        """The comparison methodology: arrivals identical across schedulers."""
        a = P2PSystem(SystemConfig.tiny(seed=7, scheduler="auction"))
        b = P2PSystem(SystemConfig.tiny(seed=7, scheduler="locality"))
        a.run(40.0, churn=True)
        b.run(40.0, churn=True)
        assert a.arrivals == b.arrivals
        videos_a = sorted(p.video.video_id for p in a.peers.values())
        videos_b = sorted(p.video.video_id for p in b.peers.values())
        assert videos_a == videos_b

    def test_deterministic_metrics_for_seed(self):
        def run():
            system = P2PSystem(SystemConfig.tiny(seed=11))
            system.populate_static(8)
            return [s.welfare for s in system.run(30.0).slots]

        assert run() == run()


class TestSubRounds:
    def test_more_rounds_never_breaks_run(self):
        config = SystemConfig.tiny(seed=6, bid_rounds_per_slot=5)
        system = P2PSystem(config)
        system.populate_static(8)
        metrics = system.run_slot()
        assert metrics.n_requests >= 0

    def test_single_round_pure_model(self):
        config = SystemConfig.tiny(seed=6, bid_rounds_per_slot=1)
        system = P2PSystem(config)
        system.populate_static(8)
        metrics = system.run_slot()
        assert metrics.time == 0.0
