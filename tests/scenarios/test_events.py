"""Mid-run regime hooks: costs, capacities, popularity, runner events.

These pin the scenario engine's contract with the core system: a
regime change must (a) take effect, (b) keep the columnar store and
the reference paths in exact agreement, and (c) consume no randomness
(so the rest of the trajectory is unperturbed).
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np
import pytest

from repro.p2p.config import SystemConfig
from repro.p2p.system import P2PSystem
from repro.scenarios import (
    ArrivalRateChange,
    CapacityRamp,
    LocalityCap,
    RemappedPopularity,
    ScenarioRunner,
    ScenarioSpec,
    SeederOutage,
    build_scenario,
)
from repro.vod.popularity import ZipfMandelbrot

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "oracles"))
from slot import build_problem_reference  # noqa: E402


def tiny_system(seed: int = 0, **overrides) -> P2PSystem:
    system = P2PSystem(SystemConfig.tiny(seed=seed, **overrides))
    system.populate_static(20)
    system.run_slot()
    return system


def assert_same_problem(ref, new) -> None:
    """Byte-for-byte CSR equality of two slot problems."""
    assert ref.n_requests == new.n_requests
    assert ref.n_edges() == new.n_edges()
    ref_csr, new_csr = ref.csr(), new.csr()
    assert np.array_equal(ref_csr.uploaders, new_csr.uploaders)
    assert np.array_equal(ref_csr.capacity, new_csr.capacity)
    assert np.array_equal(ref.request_peer_array(), new.request_peer_array())

    def canonical(problem):
        csr = problem.csr()
        rows = csr.edge_rows()
        ups = csr.uploaders[csr.uploader_index]
        perm = np.lexsort((ups, rows))
        return rows[perm], ups[perm], csr.values[perm]

    for a, b in zip(canonical(ref), canonical(new)):
        assert np.array_equal(a, b)


class TestCostShocks:
    def test_cached_pairs_jump_in_place(self):
        system = tiny_system()
        costs = system.costs
        isp = costs.topology.column()
        pairs = [
            (a, b)
            for a in system.peers
            for b in system.peers
            if a < b and isp[a] != isp[b]
        ][:10]
        before = {p: costs.cost(*p) for p in pairs}
        system.scale_inter_isp_costs(2.0)
        for pair, value in before.items():
            assert costs.cost(*pair) == pytest.approx(2.0 * value)

    def test_future_samples_scaled_without_consuming_extra_rng(self):
        a = tiny_system(seed=7)
        b = tiny_system(seed=7)
        b.scale_inter_isp_costs(3.0)
        # A never-sampled inter-ISP pair: same underlying draw, ×3.
        ids = sorted(a.peers)
        lo, hi, _ = a.costs.cached_pairs()
        cached = set(zip(lo.tolist(), hi.tolist()))
        isp = a.costs.topology.column()
        fresh = None
        for u in ids:
            for d in ids:
                if u < d and isp[u] != isp[d]:
                    if (u, d) not in cached:
                        fresh = (u, d)
                        break
            if fresh:
                break
        assert fresh is not None, "no unsampled inter-ISP pair left"
        assert b.costs.cost(*fresh) == pytest.approx(3.0 * a.costs.cost(*fresh))

    def test_pair_scale_targets_only_that_pair(self):
        system = tiny_system()
        costs = system.costs
        isp = costs.topology.column()
        intra_pairs = [
            (a, b)
            for a in system.peers
            for b in system.peers
            if a < b and isp[a] == isp[b]
        ][:5]
        before = {p: costs.cost(*p) for p in intra_pairs}
        system.set_isp_pair_cost_scale(0, 1, 4.0)  # inter pair only
        for pair, value in before.items():
            assert costs.cost(*pair) == value
        assert costs.isp_pair_scale(0, 1) == 4.0
        assert costs.isp_pair_scale(1, 0) == 4.0  # order-insensitive

    def test_scale_validation(self):
        system = tiny_system()
        with pytest.raises(ValueError):
            system.scale_inter_isp_costs(0.0)
        with pytest.raises(ValueError):
            system.set_isp_pair_cost_scale(0, 1, -1.0)

    def test_build_problem_matches_reference_after_shock(self):
        """The store's candidate tables are dropped, not left stale."""
        system = tiny_system()
        tables = system.store._table_count
        assert (tables >= 0).any()
        system.scale_inter_isp_costs(2.5)
        assert not (tables >= 0).any()
        new_p = system.build_problem(system.now)
        ref_p, _ = build_problem_reference(system, system.now)
        assert_same_problem(ref_p, new_p)
        # And again after another slot of deliveries.
        system.run_slot()
        new_p = system.build_problem(system.now)
        ref_p, _ = build_problem_reference(system, system.now)
        assert_same_problem(ref_p, new_p)


class TestCapacityHooks:
    def test_set_upload_capacities_syncs_store(self):
        system = tiny_system()
        watchers = [p.peer_id for p in system.peers.values() if not p.is_seed]
        target = {watchers[0]: 0, watchers[1]: 7}
        assert system.set_upload_capacities(target) == 2
        ids, caps = system.store.capacity_columns()
        col = dict(zip(ids.tolist(), caps.tolist()))
        assert col[watchers[0]] == 0
        assert col[watchers[1]] == 7
        system.store.check_consistency(system.peers, system.tracker)
        problem = system.build_problem(system.now)
        assert problem.capacity_of(watchers[1]) == 7

    def test_offline_ids_ignored(self):
        system = tiny_system()
        assert system.set_upload_capacities({10**9: 5}) == 0

    def test_negative_capacity_rejected(self):
        system = tiny_system()
        pid = next(iter(system.peers))
        with pytest.raises(ValueError):
            system.set_upload_capacities({pid: -1})

    def test_scale_capacities_floors_at_one(self):
        system = tiny_system()
        watchers = [p.peer_id for p in system.peers.values() if not p.is_seed]
        system.scale_upload_capacities(0.001, watchers)
        assert all(
            system.peers[pid].upload_capacity_chunks == 1 for pid in watchers
        )
        system.scale_upload_capacities(0.0, watchers)
        assert all(
            system.peers[pid].upload_capacity_chunks == 0 for pid in watchers
        )
        system.store.check_consistency(system.peers, system.tracker)

    def test_scale_never_resurrects_zeroed_peers(self):
        """A ramp over a downed peer leaves it downed (outage survives)."""
        system = tiny_system()
        watchers = [p.peer_id for p in system.peers.values() if not p.is_seed]
        downed = watchers[0]
        system.set_upload_capacities({downed: 0})
        system.scale_upload_capacities(2.0, watchers)
        assert system.peers[downed].upload_capacity_chunks == 0
        assert all(
            system.peers[pid].upload_capacity_chunks > 0
            for pid in watchers[1:]
        )

    def test_runs_cleanly_after_churn(self):
        """Capacity updates keep working after batched admit/remove."""
        system = tiny_system(seed=3)
        system.run_slot(churn=True, remove_finished=True)
        system.scale_upload_capacities(2.0)
        system.store.check_consistency(system.peers, system.tracker)
        system.run_slot(churn=True, remove_finished=True)


class TestRemappedPopularity:
    def test_promote_moves_probability_mass(self):
        base = ZipfMandelbrot(10)
        remapped = RemappedPopularity.promote(base, 9)
        pmf = remapped.pmf()
        assert pmf[9] == pytest.approx(base.pmf()[0])
        assert pmf[0] == pytest.approx(base.pmf()[9])
        assert np.argmax(pmf) == 9
        assert pmf.sum() == pytest.approx(1.0)

    def test_rotate_shifts_all_ranks(self):
        base = ZipfMandelbrot(5)
        remapped = RemappedPopularity.rotate(base, 2)
        assert np.argmax(remapped.pmf()) == 2

    def test_sampling_consumes_exactly_base_randomness(self):
        base = ZipfMandelbrot(10)
        remapped = RemappedPopularity.promote(base, 9)
        rng_a = np.random.default_rng(1)
        rng_b = np.random.default_rng(1)
        for _ in range(50):
            remapped.sample(rng_a)
            base.sample(rng_b)
        # Both streams advanced identically.
        assert rng_a.random() == rng_b.random()

    def test_composition_flattens_to_one_layer(self):
        base = ZipfMandelbrot(6)
        twice = RemappedPopularity.rotate(
            RemappedPopularity.rotate(base, 1), 1
        )
        assert np.argmax(twice.pmf()) == 2
        # Repeated drift events must not deepen the wrapper chain.
        assert twice.base is base
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        nested_samples = [twice.sample(rng_a) for _ in range(20)]
        direct = RemappedPopularity.rotate(base, 2)
        assert nested_samples == [direct.sample(rng_b) for _ in range(20)]

    def test_bad_permutation_rejected(self):
        with pytest.raises(ValueError):
            RemappedPopularity(ZipfMandelbrot(4), [0, 1, 1, 2])


class TestRunnerEvents:
    def run_tiny(self, events, seed=2, duration=40.0, **spec_kwargs):
        spec = ScenarioSpec(
            name="probe",
            scale="tiny",
            schedulers=("auction",),
            duration_seconds=duration,
            events=tuple(events),
            **spec_kwargs,
        )
        runner = ScenarioRunner(spec, seed=seed)
        return runner, runner.run_one("auction")

    def test_arrival_rate_event_applies(self):
        _, system = self.run_tiny(
            [ArrivalRateChange(time=20.0, rate_per_s=5.0)],
            churn=True,
        )
        assert system.churn.arrival_rate_per_s == 5.0

    def test_locality_cap_event_applies(self):
        _, system = self.run_tiny(
            [LocalityCap(time=10.0, neighbor_target=3)],
            n_static_peers=15,
        )
        assert system.overlay.degree_target == 3

    def test_capacity_ramp_targets_watchers_only(self):
        _, baseline = self.run_tiny([], n_static_peers=15, duration=20.0)
        _, ramped = self.run_tiny(
            [CapacityRamp(time=10.0, factor=0.5, target="watchers")],
            n_static_peers=15,
            duration=20.0,
        )
        for pid, peer in ramped.peers.items():
            reference = baseline.peers[pid]
            if peer.is_seed:
                assert (
                    peer.upload_capacity_chunks
                    == reference.upload_capacity_chunks
                )
            else:
                assert peer.upload_capacity_chunks == max(
                    1, round(reference.upload_capacity_chunks * 0.5)
                )

    def test_seeder_outage_and_recovery(self):
        spec = build_scenario("seeder-failure", scale="tiny")
        runner = ScenarioRunner(spec.abridged(60.0, schedulers=("auction",)), seed=1)
        outage = next(r for r in runner.timeline if r.kind == "seed-outage")
        recovery = next(r for r in runner.timeline if r.kind == "seed-recovery")
        assert outage.time < recovery.time <= 60.0
        system = runner.run_one("auction")
        # After recovery every seed uploads again at its original rate.
        seed_caps = {
            p.peer_id: p.upload_capacity_chunks
            for p in system.peers.values()
            if p.is_seed
        }
        assert all(cap > 0 for cap in seed_caps.values())
        system.store.check_consistency(system.peers, system.tracker)

    def test_outage_zeroes_selected_seeds_mid_run(self):
        spec = ScenarioSpec(
            name="probe",
            scale="tiny",
            schedulers=("auction",),
            n_static_peers=10,
            duration_seconds=40.0,
            events=(SeederOutage(time=10.0, duration=100.0, fraction=0.5),),
        )
        system = ScenarioRunner(spec, seed=1).run_one("auction")
        seeds = [p for p in system.peers.values() if p.is_seed]
        downed = [p for p in seeds if p.upload_capacity_chunks == 0]
        # ceil(0.5 · k) seeds are down and stay down (no recovery yet).
        assert len(downed) == -(-len(seeds) // 2)

    def test_ramp_during_outage_compounds_into_recovery(self):
        """A seeds-targeted ramp inside an outage window applies at recovery."""
        spec = ScenarioSpec(
            name="probe",
            scale="tiny",
            schedulers=("auction",),
            n_static_peers=10,
            duration_seconds=50.0,
            events=(
                SeederOutage(time=10.0, duration=20.0, fraction=1.0),
                CapacityRamp(time=20.0, factor=2.0, target="seeds"),
            ),
        )
        baseline = ScenarioRunner(
            ScenarioSpec(
                name="probe", scale="tiny", schedulers=("auction",),
                n_static_peers=10, duration_seconds=50.0,
            ),
            seed=1,
        ).run_one("auction")
        system = ScenarioRunner(spec, seed=1).run_one("auction")
        for pid, peer in system.peers.items():
            if peer.is_seed:
                assert peer.upload_capacity_chunks == max(
                    1, baseline.peers[pid].upload_capacity_chunks * 2
                )

    def test_partial_invalid_capacity_update_leaves_state_consistent(self):
        system = ScenarioRunner(
            ScenarioSpec(
                name="probe", scale="tiny", schedulers=("auction",),
                n_static_peers=10, duration_seconds=10.0,
            ),
            seed=1,
        ).run_one("auction")
        ids = sorted(system.peers)
        before = {
            pid: system.peers[pid].upload_capacity_chunks for pid in ids
        }
        with pytest.raises(ValueError):
            system.set_upload_capacities({ids[0]: 5, ids[1]: -1})
        assert all(
            system.peers[pid].upload_capacity_chunks == before[pid]
            for pid in ids
        )
        system.store.check_consistency(system.peers, system.tracker)

    def test_overlapping_outages_nest(self):
        """A seed held by two outage windows recovers only when both end."""
        spec = ScenarioSpec(
            name="probe",
            scale="tiny",
            schedulers=("auction",),
            n_static_peers=10,
            duration_seconds=60.0,
            events=(
                SeederOutage(time=10.0, duration=20.0, fraction=1.0),
                SeederOutage(time=20.0, duration=100.0, fraction=1.0),
            ),
        )
        system = ScenarioRunner(spec, seed=1).run_one("auction")
        # First recovery (t=30) fired, second outage still holds: every
        # seed must remain at zero capacity at the end of the run.
        seeds = [p for p in system.peers.values() if p.is_seed]
        assert seeds and all(p.upload_capacity_chunks == 0 for p in seeds)

    def test_unknown_event_kind_raises(self):
        from repro.scenarios.events import TimedEvent

        runner, system = self.run_tiny([], duration=10.0)
        with pytest.raises(ValueError, match="unknown timeline event"):
            runner._apply_event(system, TimedEvent(0.0, "nope", {}), {})
