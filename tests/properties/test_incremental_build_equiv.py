"""Property: the one ``build_problem`` ≡ the cold per-group assembler.

``P2PSystem.build_problem`` reads each bucket's candidate tables from
the store's pool with one range gather and assembles requests in one
fused pass per bucket.  The oracle in ``tests/oracles/assemble.py`` is
the cold per-group assembler it replaced, which re-derives windows,
requests and edge order per video group on every call.  Random
multi-slot trajectories — mixing churn, lossy links (pending retries,
which the build masks out of its windows and the oracle drops after
assembly), sub-slot re-bid rounds and mid-run regime events
(inter-ISP cost shocks, capacity ramps, overlay degree changes) — are
realized through the official system APIs, and three invariants are
pinned:

* **per-slot byte-identity**: at every slot boundary ``build_problem``
  equals the oracle's problem on the same state, byte for byte across
  the CSR columns (request order, valuations, candidate uploader sets,
  edge net-utilities, capacities);
* **twin-trajectory equality**: a twin system whose every build goes
  through the oracle produces exactly the same per-slot metrics and
  final peer state, slot after slot;
* **no stale table**: after every slot of a trajectory with churn, cut
  links and a cost shock, every candidate table the store holds equals
  one computed afresh from the overlay, the member tables and
  ``CostModel.cost``, without the store's table path;
* **one pass draws what one call per table drew**: a twin whose tables
  are built one at a time, one ``costs_for_pairs`` call each (the
  per-table oracle), holds the same pool spans, the same pair-cost
  cache and the same ``costs`` RNG state after every slot of a churn
  trajectory with a cost shock.

A wide-window variant (``prefetch_chunks`` beyond the packed-word bound)
drives the boolean branch of the fused assembler through the same
assertions.  A long-video variant (a few hundred chunks, staggered or
synchronized start) drives the packed branch's column band: the
assembler packs only the columns between the smallest and the largest
due position, so bands that start past column 0, bands one window wide
and windows that straddle a 64-chunk word boundary all occur there
(with the 40-chunk videos every band starts at column 0).
"""

from __future__ import annotations

import pathlib
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.p2p.config import SystemConfig
from repro.p2p.state import _PACKED_WINDOW_MAX
from repro.p2p.system import P2PSystem
from support import assert_same_peer_state, assert_same_problem

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "oracles"))
from assemble import build_problem_cold, build_tables_per_table  # noqa: E402


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
    n_chunks: int = 40
    stagger: bool = True  # False: a synchronized audience from chunk 0

    def config(self) -> SystemConfig:
        kwargs = dict(
            seed=self.seed,
            n_videos=self.n_videos,
            video_size_bytes=self.n_chunks * 8 * 1024,
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
                lambda now, capacity_array=None:
                build_problem_cold(system, now, capacity_array)
            )
        system.populate_static(self.n_peers, stagger=self.stagger)
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

#: Long videos.  A synchronized audience shares one due position (a
#: band one window wide) that passes chunk 64 — the first band past
#: column 0 — after seven slots, with a window across the word
#: boundary on the way (10 chunks a slot).
band_scenarios = st.builds(
    DeltaScenario,
    seed=st.integers(0, 10_000),
    n_peers=st.integers(2, 10),
    n_videos=st.integers(1, 2),
    churn=st.booleans(),
    bid_rounds=st.integers(1, 2),
    slots=st.integers(2, 9),
    lossy=st.booleans(),
    shock=st.sampled_from([None, "cost", "capacity", "degree"]),
    shock_slot=st.integers(1, 2),
    wide_window=st.just(False),
    n_chunks=st.integers(100, 400),
    stagger=st.booleans(),
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


@given(sc=band_scenarios)
def test_incremental_trajectory_matches_cold_twin_long_video(sc):
    """Long videos, staggered or synchronized: the packed column band."""
    _run_twins(sc)


def _check_build_byte_identity(sc: DeltaScenario) -> None:
    system = sc.build()
    for s in range(sc.slots):
        sc.fire_events(system, s)
        system.run_slot(churn=sc.churn, remove_finished=sc.churn)
        # Double build at the slot boundary: the oracle and the build
        # on the state run_slot just left behind (deliveries, playback,
        # churn batches, retry pushes, any regime invalidation) must
        # agree byte for byte.  The oracle goes first, so any candidate
        # tables it builds are the ones build_problem then reads.
        now = system.now
        cold = build_problem_cold(system, now)
        assert_same_problem(cold, system.build_problem(now))


def assert_tables_fresh(system: P2PSystem) -> None:
    """Every held candidate table equals one computed from scratch."""
    store = system.store
    for pid, peer in system.peers.items():
        count = int(store._table_count[pid])
        if count < 0:
            continue
        members = set(store.groups[peer.video.video_id].member_ids.tolist())
        nb = sorted(system.overlay.neighbors(pid) & members)
        start = int(store._table_start[pid])
        span = slice(start, start + count)
        assert store._pool_ids[span].tolist() == nb, f"peer {pid}: neighbours"
        assert store._pool_rows[span].tolist() == [
            system.peers[u].peer_row.row for u in nb
        ], f"peer {pid}: rows"
        assert store._pool_costs[span].tolist() == [
            system.costs.cost(u, pid) for u in nb
        ], f"peer {pid}: costs"


#: Every trajectory churns and takes an inter-ISP cost shock.
churn_shock_scenarios = st.builds(
    DeltaScenario,
    seed=st.integers(0, 10_000),
    n_peers=st.integers(4, 16),
    n_videos=st.integers(1, 3),
    churn=st.just(True),
    bid_rounds=st.integers(1, 2),
    slots=st.integers(3, 6),
    lossy=st.booleans(),
    shock=st.just("cost"),
    shock_slot=st.integers(1, 2),
    wide_window=st.just(False),
)


@given(sc=churn_shock_scenarios, cut=st.integers(0, 10_000))
def test_no_table_outlives_its_inputs(sc, cut):
    """Churn, a link cut before every slot and a cost shock."""
    system = sc.build()
    for s in range(sc.slots):
        sc.fire_events(system, s)
        links = sorted(
            (a, b) for a in system.overlay.nodes()
            for b in system.overlay.neighbors(a) if a < b
        )
        if links:
            system.overlay.disconnect(*links[(cut + s) % len(links)])
        system.run_slot(churn=True, remove_finished=True)
        assert_tables_fresh(system)
    assert system.departures > 0 or system.arrivals > 0


@given(sc=churn_shock_scenarios)
def test_one_pass_tables_match_per_table_twin(sc):
    live = sc.build()
    twin = sc.build()
    store = twin.store
    store._build_tables = lambda need: build_tables_per_table(store, need)
    made = 0
    for s in range(sc.slots):
        for system in (live, twin):
            sc.fire_events(system, s)
            system.run_slot(churn=True, remove_finished=True)
        a, b = live.store, twin.store
        for name in (
            "_table_start", "_table_count", "_pool_rows", "_pool_ids",
            "_pool_costs",
        ):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a._pool_live == b._pool_live
        for col_a, col_b in zip(live.costs.cached_pairs(), twin.costs.cached_pairs()):
            assert np.array_equal(col_a, col_b)
        assert (
            live.costs.rng.bit_generator.state == twin.costs.rng.bit_generator.state
        ), f"slot {s}: the cost stream diverged"
        made = a.table_counts["rebuilt"]
    assert made > 0


@given(sc=delta_scenarios)
def test_patch_byte_identical_along_trajectory(sc):
    _check_build_byte_identity(sc)


@given(sc=wide_scenarios)
def test_patch_byte_identical_wide_window(sc):
    _check_build_byte_identity(sc)


@given(sc=band_scenarios)
def test_patch_byte_identical_long_video(sc):
    _check_build_byte_identity(sc)
