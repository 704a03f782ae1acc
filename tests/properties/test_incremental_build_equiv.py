"""Property: the one ``build_problem`` ≡ the cold per-group assembler.

``P2PSystem.build_problem`` splices each video group's candidate CSR
forward from the previous build and assembles requests in one fused
pass per bucket.  The oracle in ``tests/oracles/assemble.py`` is the
cold per-group assembler it replaced, which rebuilds everything from
the store on every call.  Random multi-slot trajectories — mixing
churn, lossy links (retry suppression), sub-slot re-bid rounds and
mid-run regime events (inter-ISP cost shocks, capacity ramps, overlay
degree changes) — are realized through the official system APIs, and
two invariants are pinned:

* **per-slot byte-identity**: at every slot boundary ``build_problem``
  equals the oracle's problem on the same state, byte for byte across
  the CSR columns (request order, valuations, candidate uploader sets,
  edge net-utilities, capacities);
* **twin-trajectory equality**: a twin system whose every build goes
  through the oracle produces exactly the same per-slot metrics and
  final peer state, slot after slot.

A wide-window variant (``prefetch_chunks`` beyond the packed-word bound)
drives the boolean branch of the fused assembler through the same
assertions.
"""

from __future__ import annotations

import pathlib
import sys
from dataclasses import dataclass
from typing import Optional

from hypothesis import given
from hypothesis import strategies as st

from repro.p2p.config import SystemConfig
from repro.p2p.state import _PACKED_WINDOW_MAX
from repro.p2p.system import P2PSystem
from support import assert_same_peer_state, assert_same_problem

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "oracles"))
from assemble import build_problem_cold  # noqa: E402


@dataclass(frozen=True)
class DeltaScenario:
    seed: int
    n_peers: int
    n_videos: int
    churn: bool
    bid_rounds: int
    slots: int
    lossy: bool
    shock: Optional[str]  # regime event fired before the middle slot
    shock_slot: int
    wide_window: bool  # W > _PACKED_WINDOW_MAX: boolean branch

    def config(self) -> SystemConfig:
        kwargs = dict(
            seed=self.seed,
            n_videos=self.n_videos,
            bid_rounds_per_slot=self.bid_rounds,
            arrival_rate_per_s=1.0,
            early_departure_prob=0.4 if self.churn else 0.0,
        )
        if self.wide_window:
            kwargs["prefetch_chunks"] = _PACKED_WINDOW_MAX + 3
        return SystemConfig.tiny(**kwargs)

    def build(self, oracle: bool = False) -> P2PSystem:
        system = P2PSystem(self.config())
        if oracle:
            # run_slot looks the build up on the instance, so the twin
            # assembles every bid round through the cold oracle.
            system.build_problem = (
                lambda now, capacities=None, capacity_array=None:
                build_problem_cold(system, now, capacities, capacity_array)
            )
        system.populate_static(self.n_peers)
        if self.lossy:
            system.apply_link_preset("loss30-delay50")
        return system

    def fire_events(self, system: P2PSystem, slot_index: int) -> None:
        """Mid-trajectory regime event, identically on either twin."""
        if self.shock is None or slot_index != self.shock_slot:
            return
        if self.shock == "cost":
            system.scale_inter_isp_costs(1.7)
        elif self.shock == "capacity":
            system.scale_upload_capacities(0.5)
        elif self.shock == "degree":
            system.set_neighbor_target(3)
        else:  # pragma: no cover - strategy is closed over these names
            raise AssertionError(self.shock)


delta_scenarios = st.builds(
    DeltaScenario,
    seed=st.integers(0, 10_000),
    n_peers=st.integers(4, 16),
    n_videos=st.integers(1, 3),
    churn=st.booleans(),
    bid_rounds=st.integers(1, 2),
    slots=st.integers(2, 5),
    lossy=st.booleans(),
    shock=st.sampled_from([None, "cost", "capacity", "degree"]),
    shock_slot=st.integers(1, 2),
    wide_window=st.just(False),
)

wide_scenarios = st.builds(
    DeltaScenario,
    seed=st.integers(0, 10_000),
    n_peers=st.integers(4, 12),
    n_videos=st.integers(1, 2),
    churn=st.booleans(),
    bid_rounds=st.integers(1, 2),
    slots=st.integers(2, 4),
    lossy=st.booleans(),
    shock=st.sampled_from([None, "cost", "degree"]),
    shock_slot=st.just(1),
    wide_window=st.just(True),
)


def _run_twins(sc: DeltaScenario) -> None:
    live = sc.build()
    twin = sc.build(oracle=True)
    for s in range(sc.slots):
        sc.fire_events(live, s)
        sc.fire_events(twin, s)
        m_live = live.run_slot(churn=sc.churn, remove_finished=sc.churn)
        m_twin = twin.run_slot(churn=sc.churn, remove_finished=sc.churn)
        assert m_live == m_twin, f"slot {s} metrics diverged"
    assert_same_peer_state(live, twin)


@given(sc=delta_scenarios)
def test_incremental_trajectory_matches_cold_twin(sc):
    _run_twins(sc)


@given(sc=wide_scenarios)
def test_incremental_trajectory_matches_cold_twin_wide_window(sc):
    """Windows beyond the packed-word bound: boolean branch."""
    _run_twins(sc)


def _check_build_byte_identity(sc: DeltaScenario) -> None:
    system = sc.build()
    for s in range(sc.slots):
        sc.fire_events(system, s)
        system.run_slot(churn=sc.churn, remove_finished=sc.churn)
        # Double build at the slot boundary: the oracle and the splice
        # of the caches run_slot just left behind (deliveries, playback,
        # churn batches, retry pushes, any regime invalidation) must
        # agree byte for byte.  The oracle goes first, so any candidate
        # tables it builds are the ones build_problem then reads.
        now = system.now
        cold = build_problem_cold(system, now)
        assert_same_problem(cold, system.build_problem(now))


@given(sc=delta_scenarios)
def test_patch_byte_identical_along_trajectory(sc):
    _check_build_byte_identity(sc)


@given(sc=wide_scenarios)
def test_patch_byte_identical_wide_window(sc):
    _check_build_byte_identity(sc)
