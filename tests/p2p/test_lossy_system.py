"""System-level tests: lossy link conditions + the cross-slot retry pipeline."""

from __future__ import annotations

import pathlib
import sys

import numpy as np
import pytest

from repro.net.linkmodel import LinkParams
from repro.p2p.config import SystemConfig
from repro.p2p.system import P2PSystem

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "oracles"))
from assemble import triple_key  # noqa: E402


def _lossy_everywhere(system, loss=1.0, **kwargs):
    """Degrade every pair (intra included) — tiny systems localize fully,
    so inter-only degradation would never see a failure."""
    for isp in range(system.config.n_isps):
        system.set_link_conditions(LinkParams(loss_rate=loss, **kwargs), isp_a=isp)


def _request_triples(problem):
    pairs = problem.chunk_pair_array()
    return triple_key(
        problem.request_peer_array(), pairs[:, 0], pairs[:, 1]
    )


@pytest.fixture
def system():
    s = P2PSystem(SystemConfig.tiny(seed=5))
    s.populate_static(16)
    return s


class TestLossySlots:
    def test_total_loss_fails_every_transfer(self, system):
        _lossy_everywhere(system, loss=1.0)
        m = system.run_slot()
        assert m.n_served > 0
        assert m.transfers_failed == m.n_served
        assert m.link_regime == "custom"
        assert len(system.retry_queue) == m.transfers_failed
        # Nothing landed: no watcher has a first delivery.
        assert system.startup_delay_stats() == (0.0, 0)

    def test_failure_accounting_balances(self, system):
        _lossy_everywhere(system, loss=0.3)
        for _ in range(8):
            system.run_slot()
        totals = system.collector.totals()
        failed = totals["transfers_failed_total"]
        assert failed > 0
        evicted = sum(m.retry_evicted for m in system.collector.slots)
        # Every failed transfer leaves the pipeline exactly once —
        # delivered on retry, surrendered at TTL, evicted — or is still
        # pending at the end.
        assert failed == (
            totals["retry_succeeded_total"]
            + totals["retry_surrendered_total"]
            + evicted
            + len(system.retry_queue)
        )

    def test_retries_recover_most_of_the_loss(self, system):
        _lossy_everywhere(system, loss=0.3)
        for _ in range(8):
            system.run_slot()
        totals = system.collector.totals()
        one_shot_rate = 1.0 - 0.3
        recovered = totals["retry_succeeded_total"] / totals["transfers_failed_total"]
        assert recovered > one_shot_rate

    def test_lossy_run_is_deterministic(self):
        def trajectory():
            s = P2PSystem(SystemConfig.tiny(seed=5))
            s.populate_static(16)
            _lossy_everywhere(s, loss=0.3, delay_ms=50.0, jitter_ms=10.0)
            return [
                (m.welfare, m.n_served, m.transfers_failed, m.retry_succeeded,
                 m.link_delay_ms)
                for m in (s.run_slot() for _ in range(5))
            ]

        assert trajectory() == trajectory()

    def test_degrade_then_restore_is_byte_identical_to_ideal(self):
        """A table degraded and restored before any slot must not perturb
        the trajectory — the ideal table is never evaluated, so no RNG
        stream moves (the archived-results invariant)."""
        a = P2PSystem(SystemConfig.tiny(seed=7))
        a.populate_static(16)
        b = P2PSystem(SystemConfig.tiny(seed=7))
        b.populate_static(16)
        b.apply_link_preset("loss30-delay50")
        b.reset_link_conditions()
        for _ in range(3):
            ma, mb = a.run_slot(), b.run_slot()
            assert (ma.welfare, ma.n_served, ma.chunks_missed) == (
                mb.welfare, mb.n_served, mb.chunks_missed
            )
            assert mb.transfers_failed == 0 and mb.link_regime == "ideal"

    def test_delay_only_regime_fails_nothing_but_reports_latency(self, system):
        _lossy_everywhere(system, loss=0.0, delay_ms=10.0)
        m = system.run_slot()
        assert m.transfers_failed == 0
        assert m.n_served > 0
        assert m.link_delay_ms == pytest.approx(10.0 * m.n_served)
        assert m.mean_link_delay_ms == pytest.approx(10.0)


class TestRetryInteractions:
    def _park_first_request(self, system, uploader_id):
        """Push the first assembleable request into the retry queue."""
        problem = system.build_problem(system.now)
        assert problem.n_requests > 0
        down = int(problem.request_peer_array()[0])
        video, chunk = (int(v) for v in problem.chunk_pair_array()[0])
        system.retry_queue.push_failed(
            np.array([down]), np.array([uploader_id]),
            np.array([video]), np.array([chunk]), system.slot_index,
        )
        return problem, down, video, chunk

    def _seed_holding(self, system, video, chunk):
        for peer in system.peers.values():
            if peer.is_seed and peer.video.video_id == video and peer.buffer.holds(chunk):
                return peer.peer_id
        raise AssertionError("no seed holds the chunk")

    def test_pending_edge_suppressed_from_build_problem(self, system):
        problem, down, video, chunk = self._park_first_request(system, uploader_id=0)
        suppressed = system.build_problem(system.now)
        assert suppressed.n_requests == problem.n_requests - 1
        key = triple_key(
            np.array([down]), np.array([video]), np.array([chunk])
        )
        assert not np.isin(key, _request_triples(suppressed)).any()

    def test_ttl_surrender_reexposes_request(self, system):
        up = self._seed_holding(system, 0, 0)
        problem, down, video, chunk = self._park_first_request(system, uploader_id=up)
        system.slot_index += system.retry_queue.ttl_slots
        counters = system._process_retries(system.now)
        assert counters["surrendered"] == 1
        assert len(system.retry_queue) == 0
        reexposed = system.build_problem(system.now)
        assert reexposed.n_requests == problem.n_requests
        key = triple_key(
            np.array([down]), np.array([video]), np.array([chunk])
        )
        assert np.isin(key, _request_triples(reexposed)).any()

    def test_departed_uploader_evicts_edge(self, system):
        problem, down, video, chunk = self._park_first_request(
            system, uploader_id=self._seed_holding(system, 0, 0)
        )
        # Re-point the parked edge at a removable watcher uploader: any
        # online peer works, eviction only looks at liveness.
        up = next(
            p.peer_id for p in system.peers.values()
            if not p.is_seed and p.peer_id != down
        )
        system.retry_queue._up[:] = up
        system.remove_peer(up)
        counters = system._process_retries(system.now)
        assert counters["evicted"] == 1
        assert counters["attempts"] == 0
        assert len(system.retry_queue) == 0

    def test_departed_downstream_evicts_edge(self, system):
        problem, down, video, chunk = self._park_first_request(
            system, uploader_id=self._seed_holding(system, 0, 0)
        )
        system.remove_peer(down)
        counters = system._process_retries(system.now)
        assert counters["evicted"] == 1
        assert len(system.retry_queue) == 0

    def test_due_retry_delivers_through_store(self, system):
        problem, down, video, chunk = self._park_first_request(system, uploader_id=0)
        up = self._seed_holding(system, video, chunk)
        system.retry_queue._up[:] = up
        peer = system.peers[down]
        assert not peer.buffer.holds(chunk)
        before = peer.chunks_downloaded
        system.slot_index += 1  # first backoff
        counters = system._process_retries(system.now)
        assert counters["attempts"] == 1
        assert counters["succeeded"] == 1
        assert peer.buffer.holds(chunk)
        assert peer.chunks_downloaded == before + 1
        assert peer.first_delivery_time == system.now
        mean, n = system.startup_delay_stats()
        assert n == 1

    def test_retry_against_live_links_requeues_on_failure(self, system):
        problem, down, video, chunk = self._park_first_request(system, uploader_id=0)
        up = self._seed_holding(system, video, chunk)
        system.retry_queue._up[:] = up
        _lossy_everywhere(system, loss=1.0)
        system.slot_index += 1
        counters = system._process_retries(system.now)
        assert counters["attempts"] == 1
        assert counters["succeeded"] == 0
        assert len(system.retry_queue) == 1
        assert system.retry_queue._attempts.tolist() == [2]
