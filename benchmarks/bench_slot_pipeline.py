"""Slot-pipeline benchmark: seed path vs columnar path, per phase.

Times one slot's hot path — problem build, jacobi solve, transfer
apply, playback advance — on a matrix of scenario configurations,
comparing:

* **seed path**: ``P2PSystem.build_problem_reference`` (per-request
  dict/loop construction, as in the seed revision) + a faithful
  re-implementation of the seed's per-request padded ``dense()``
  expansion + the ``jacobi-dense`` solver + the per-edge
  ``_apply_transfers_reference`` loop + the per-chunk
  ``advance_to_reference`` playback walk;
* **columnar path**: the cold per-group assembler from
  ``tests/oracles/assemble.py`` (vectorized assembly on the persistent
  peer-state store, candidate CSR rebuilt every call) + the
  event-driven price-frontier ``jacobi`` solver + the vectorized
  ``_apply_transfers`` epilogue + the store's batched
  ``_advance_playback`` sweep;
* **delta build**: ``P2PSystem.build_problem``, which splices each
  group's candidate CSR forward from the previous build, timed on the
  same state as the cold assembler and checked byte-identical to it.

Scenarios with ``reference=False`` (the 10k tier, and the lossy row —
the seed apply path has no link model) skip every seed-path timing;
see benchmarks/README.md for the tier caveats.

Apply and playback mutate system state, so their min-of-N timing
snapshots and restores the touched state between repeats (and keeps
exactly one real application of the new path so the next slot starts
from the true trajectory).

Results are written machine-readable to ``BENCH_slot_pipeline.json`` at
the repo root so future PRs can track the trajectory.  Run via
``make bench`` or::

    PYTHONPATH=src python benchmarks/bench_slot_pipeline.py [--scenarios ...]

See benchmarks/README.md for the scenario matrix and how to read the
output.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tests" / "oracles"))

from repro.core.auction import AuctionSolver  # noqa: E402
from repro.core.problem import DenseView, SchedulingProblem  # noqa: E402
from repro.p2p.config import SystemConfig  # noqa: E402
from repro.p2p.system import P2PSystem  # noqa: E402
from repro.scenarios import (  # noqa: E402
    CostShock,
    FlashCrowd,
    ScenarioSpec,
    apply_event,
    compile_timeline,
)
from assemble import build_problem_cold  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_slot_pipeline.json"
EPSILON = 0.01  # the system config's default bidding increment

#: Scenario matrix.  ``n_peers`` drives scale; ``churn`` exercises the
#: arrival/departure path; ``overrides`` go into SystemConfig.bench.
#: ``gauss_seidel`` additionally runs the sequential reference solver
#: (only at scales where its Python loop stays reasonable).
#: ``reference=False`` skips every seed-path ("old") timing — the
#: 10k-peer tier would otherwise spend minutes in the per-request /
#: per-edge reference loops just to reproduce a known ratio; its rows
#: carry the columnar-path columns only.
SCENARIOS: Dict[str, dict] = {
    "static-small": dict(n_peers=200, slots=3, churn=False, overrides={}, gauss_seidel=True),
    "static-medium": dict(n_peers=2000, slots=3, churn=False, overrides={}, gauss_seidel=True),
    "static-large": dict(n_peers=5000, slots=2, churn=False, overrides={}, gauss_seidel=False),
    "static-xlarge": dict(
        n_peers=10_000, slots=2, churn=False, overrides={},
        gauss_seidel=False, reference=False,
    ),
    # 50k tier (``make bench-xxl``): the top anchor of the scaling
    # curve.  Reference-free like every 10k+ tier.
    "static-xxl": dict(
        n_peers=50_000, slots=2, churn=False, overrides={},
        gauss_seidel=False, reference=False,
    ),
    "churn-medium": dict(
        n_peers=2000, slots=3, churn=True,
        overrides=dict(arrival_rate_per_s=1.0, early_departure_prob=0.3),
        gauss_seidel=False,
    ),
    "multivideo-medium": dict(
        n_peers=2000, slots=3, churn=False,
        overrides=dict(n_videos=60), gauss_seidel=False,
    ),
    # Scenario rows: a scenario-engine timeline reshapes the workload
    # *between* measured slots (events due by a boundary are applied
    # there, as ScenarioRunner does), so the pipeline is timed on
    # regime-change slots instead of steady state.  The spec below only
    # contributes its compiled event trace; population/config come from
    # the row, like every other bench scenario.
    "flashcrowd-medium": dict(
        n_peers=2000, slots=3, churn=False, overrides={},
        gauss_seidel=False,
        scenario_spec=ScenarioSpec(
            name="bench-flash-crowd",
            description="400-peer burst onto one title mid-measurement",
            scale="bench",
            events=(
                FlashCrowd(
                    time=15.0, n_peers=400, over_seconds=5.0, video_id=0
                ),
            ),
        ),
    ),
    "priceshock-medium": dict(
        n_peers=2000, slots=3, churn=False, overrides={},
        gauss_seidel=False,
        scenario_spec=ScenarioSpec(
            name="bench-price-shock",
            description="inter-ISP transit ×3 mid-measurement "
            "(candidate-cost caches invalidated)",
            scale="bench",
            events=(CostShock(time=15.0, factor=3.0),),
        ),
    ),
    # Lossy row: the link-condition table stays degraded for the whole
    # run, so the timed apply pays the Bernoulli loss draw, failure
    # split and retry-queue push on every slot, and the timed build
    # pays the pending-retry request suppression.  ``reference=False``
    # because the seed apply path has no link model to compare against.
    "lossy-medium": dict(
        n_peers=2000, slots=3, churn=False, overrides={},
        gauss_seidel=False, reference=False, link_preset="loss10",
    ),
}
DEFAULT_SCENARIOS = [
    "static-small", "static-medium", "churn-medium", "multivideo-medium",
    "flashcrowd-medium", "priceshock-medium", "lossy-medium", "static-large",
]
#: The 5k/10k tier (``make bench-xl``); static-large also runs in the
#: default set so the committed JSON always carries a 5k-peer row.
XL_SCENARIOS = ["static-large", "static-xlarge"]
#: The 50k tier (``make bench-xxl``) runs the whole scaling curve so the
#: peers-vs-``slot_new_s`` table in benchmarks/README.md regenerates
#: from one JSON.
XXL_SCENARIOS = ["static-large", "static-xlarge", "static-xxl"]


def legacy_dense(problem: SchedulingProblem) -> DenseView:
    """The seed revision's ``dense()`` expansion (per-request Python loop).

    Kept here verbatim so the "before" timing reflects what the seed
    jacobi solver actually paid to build its padded view; the library's
    ``dense()`` is now a vectorized scatter and would understate it.
    """
    uploaders = np.fromiter((int(u) for u in problem.uploaders()), dtype=np.int64)
    index_of = {int(u): i for i, u in enumerate(uploaders)}
    capacity = np.fromiter(
        (problem.capacity_of(int(u)) for u in uploaders), dtype=np.int64
    )
    n = problem.n_requests
    k = max((len(problem.candidates_of(r)) for r in range(n)), default=0)
    values = np.full((n, max(k, 1)), -np.inf, dtype=float)
    uploader_index = np.full((n, max(k, 1)), -1, dtype=np.int64)
    for r in range(n):
        cands = problem.candidates_of(r)
        m = len(cands)
        if m == 0:
            continue
        values[r, :m] = problem.request(r).valuation - problem.costs_of(r)
        uploader_index[r, :m] = [index_of[int(u)] for u in cands]
    return DenseView(
        values=values,
        uploader_index=uploader_index,
        uploaders=uploaders,
        capacity=capacity,
    )


#: Inline script executed against a *seed-revision checkout* (its ``src``
#: on sys.path) to record the true pre-PR numbers in a clean interpreter.
#: argv: [src_path, spec_json, seed, slots]
_SEED_SNIPPET = r"""
import json, sys, time
sys.path.insert(0, sys.argv[1])
spec = json.loads(sys.argv[2])
seed, slots, repeats = int(sys.argv[3]), int(sys.argv[4]), int(sys.argv[5])
from repro.p2p.config import SystemConfig
from repro.p2p.system import P2PSystem
from repro.core.auction import AuctionSolver

config = SystemConfig.bench(seed=seed, bid_rounds_per_slot=1, **spec["overrides"])
system = P2PSystem(config)
system.populate_static(spec["n_peers"])
churn = spec["churn"]
system.run_slot(churn=churn, remove_finished=churn)
rows = []
for _ in range(slots):
    t = system.now
    if churn:
        system._process_departures(t, remove_finished=True)
        system._admit_arrivals(t)
        system._collect_arrivals_during(t, t + system.config.slot_seconds)
    system._refill_neighbors()
    budgets = {p.peer_id: p.upload_capacity_chunks for p in system.peers.values()}
    build_s = solve_s = float("inf")
    for _rep in range(repeats):
        t0 = time.perf_counter()
        problem, _ = system.build_problem(t, capacities=budgets)
        t1 = time.perf_counter()
        result = AuctionSolver(epsilon=0.01, mode="jacobi").solve(problem)
        t2 = time.perf_counter()
        build_s = min(build_s, t1 - t0)
        solve_s = min(solve_s, t2 - t1)
    rows.append(dict(
        build_s=build_s, solve_s=solve_s,
        n_requests=problem.n_requests, n_edges=problem.n_edges(),
        welfare=result.welfare(problem),
    ))
    system._apply_transfers(problem, result)
    system._advance_playback(t + system.config.slot_seconds)
    system.now = t + system.config.slot_seconds
    system.slot_index += 1
print(json.dumps(rows))
"""


def measure_seed_revision(
    seed_src: pathlib.Path, spec: dict, seed: int, slots: int, repeats: int = 3
) -> dict:
    """Run the seed revision's build+solve in a subprocess; aggregate."""
    out = subprocess.run(
        [
            sys.executable, "-c", _SEED_SNIPPET,
            str(seed_src), json.dumps({k: spec[k] for k in ("n_peers", "churn", "overrides")}),
            str(seed), str(slots), str(repeats),
        ],
        capture_output=True, text=True, check=True,
    )
    rows = json.loads(out.stdout.strip().splitlines()[-1])
    return dict(
        build_s=float(sum(r["build_s"] for r in rows)),
        solve_s=float(sum(r["solve_s"] for r in rows)),
        slot_s=float(sum(r["build_s"] + r["solve_s"] for r in rows)),
        n_requests_mean=float(np.mean([r["n_requests"] for r in rows])),
        n_edges_mean=float(np.mean([r["n_edges"] for r in rows])),
        slot_rows=rows,
    )


def assert_identical_problem(a: SchedulingProblem, b: SchedulingProblem) -> None:
    """Byte-identity of two column-path problems (live bench guard).

    Both sides come from the same producer ordering, so the flat CSR
    columns are directly comparable — no canonicalization needed.  The
    property suite pins the same invariant across whole trajectories;
    this inline check makes every published ``build_delta_s`` number
    self-certifying against the cold assembler.
    """
    assert a.n_requests == b.n_requests
    assert a.n_edges() == b.n_edges()
    ac, bc = a.csr(), b.csr()
    assert np.array_equal(ac.uploaders, bc.uploaders)
    assert np.array_equal(ac.capacity, bc.capacity)
    assert np.array_equal(a.request_peer_array(), b.request_peer_array())
    if a.n_requests:
        assert np.array_equal(a.chunk_pair_array(), b.chunk_pair_array())
    assert np.array_equal(ac.indptr, bc.indptr)
    assert np.array_equal(ac.values, bc.values)
    assert np.array_equal(ac.uploader_index, bc.uploader_index)


def snapshot_transfer_state(system: P2PSystem, problem, result) -> dict:
    """Save the state `_apply_transfers` will touch (peers on served edges).

    Reaches into buffer internals on purpose: the harness must restore
    bit-identical state between repeats without paying a full-system
    deep copy.
    """
    indices, uploaders = result.served_pairs()
    touched = set(problem.request_peer_array()[indices].tolist())
    touched |= set(uploaders.tolist())
    peers = {}
    for pid in touched:
        peer = system.peers[pid]
        peers[pid] = (
            peer.buffer._mask.copy(),
            len(peer.buffer),
            peer.chunks_downloaded,
            peer.chunks_uploaded,
            peer.first_delivery_time,
        )
    # Under lossy link conditions the apply path additionally draws
    # from the link-conditions RNG, pushes failures into the retry
    # queue and bumps the per-slot failure/delay accumulators — all of
    # which must rewind between repeats or min-of-N timings would see
    # different loss draws (and a growing queue) on every repeat.
    return dict(
        peers=peers,
        traffic=system.traffic_matrix._counts.copy(),
        retry=system.retry_queue.snapshot(),
        link_rng=system._link_rng.bit_generator.state,
        slot_failed=system._slot_transfers_failed,
        slot_delay=system._slot_link_delay_ms,
    )


def restore_transfer_state(system: P2PSystem, snap: dict) -> None:
    for pid, (mask, count, downloaded, uploaded, first) in snap["peers"].items():
        peer = system.peers[pid]
        peer.buffer._mask[:] = mask
        peer.buffer._count = count
        peer.chunks_downloaded = downloaded
        peer.chunks_uploaded = uploaded
        peer.first_delivery_time = first
    system.traffic_matrix._counts[:] = snap["traffic"]
    system.retry_queue.restore(snap["retry"])
    system._link_rng.bit_generator.state = snap["link_rng"]
    system._slot_transfers_failed = snap["slot_failed"]
    system._slot_link_delay_ms = snap["slot_delay"]


def snapshot_playback_state(system: P2PSystem) -> dict:
    return {
        pid: (
            peer.session.position,
            peer.session.played,
            set(peer.session.missed),
            peer.session._last_advance,
        )
        for pid, peer in system.peers.items()
        if peer.session is not None
    }


def restore_playback_state(system: P2PSystem, snap: dict) -> None:
    for pid, (position, played, missed, last_advance) in snap.items():
        session = system.peers[pid].session
        session.position = position
        session.played = played
        session.missed = set(missed)
        session._last_advance = last_advance


def advance_playback_reference(system: P2PSystem, to_time: float):
    """The seed revision's playback phase: per-chunk while loop per session."""
    due = 0
    missed = 0
    for peer in system.peers.values():
        if peer.session is None or peer.session.start_time >= to_time:
            continue
        stats = peer.session.advance_to_reference(to_time)
        due += stats.due
        missed += stats.missed
    return due, missed


def timed_apply_new_only(system: P2PSystem, problem, result, repeats: int):
    """Min-of-N timing of the vectorized apply alone (reference-free tier).

    Returns ``(apply_new_s, (inter, intra))``; the effect is left
    applied exactly once.
    """
    snap = snapshot_transfer_state(system, problem, result)
    apply_new = float("inf")
    outcome = None
    for rep in range(repeats):
        t0 = time.perf_counter()
        outcome = system._apply_transfers(problem, result)
        t1 = time.perf_counter()
        apply_new = min(apply_new, t1 - t0)
        if rep < repeats - 1:
            restore_transfer_state(system, snap)
    return apply_new, outcome


def timed_playback_new_only(system: P2PSystem, to_time: float, repeats: int):
    """Min-of-N timing of the batched playback alone (reference-free tier)."""
    snap = snapshot_playback_state(system)
    playback_new = float("inf")
    for rep in range(repeats):
        t0 = time.perf_counter()
        system._advance_playback(to_time)
        t1 = time.perf_counter()
        playback_new = min(playback_new, t1 - t0)
        if rep < repeats - 1:
            restore_playback_state(system, snap)
    return playback_new


def timed_apply(system: P2PSystem, problem, result, repeats: int):
    """Min-of-N timings of both apply paths on identical state.

    Returns ``(apply_old_s, apply_new_s, (inter, intra))``; the new
    path's effect is left applied exactly once.
    """
    snap = snapshot_transfer_state(system, problem, result)
    apply_old = apply_new = float("inf")
    outcome = None
    for rep in range(repeats):
        t0 = time.perf_counter()
        pair_old = system._apply_transfers_reference(problem, result)
        t1 = time.perf_counter()
        restore_transfer_state(system, snap)
        t2 = time.perf_counter()
        outcome = system._apply_transfers(problem, result)
        t3 = time.perf_counter()
        assert outcome == pair_old
        apply_old = min(apply_old, t1 - t0)
        apply_new = min(apply_new, t3 - t2)
        if rep < repeats - 1:
            restore_transfer_state(system, snap)
    return apply_old, apply_new, outcome


def timed_playback(system: P2PSystem, to_time: float, repeats: int):
    """Min-of-N timings of both playback paths on identical state.

    Returns ``(playback_old_s, playback_new_s)``; the batched path's
    effect is left applied exactly once.
    """
    snap = snapshot_playback_state(system)
    playback_old = playback_new = float("inf")
    for rep in range(repeats):
        t0 = time.perf_counter()
        pair_old = advance_playback_reference(system, to_time)
        t1 = time.perf_counter()
        restore_playback_state(system, snap)
        t2 = time.perf_counter()
        pair_new = system._advance_playback(to_time)
        t3 = time.perf_counter()
        assert pair_new == pair_old
        playback_old = min(playback_old, t1 - t0)
        playback_new = min(playback_new, t3 - t2)
        if rep < repeats - 1:
            restore_playback_state(system, snap)
    return playback_old, playback_new


def build_system(spec: dict, seed: int) -> P2PSystem:
    config = SystemConfig.bench(
        seed=seed, bid_rounds_per_slot=1, **spec["overrides"]
    )
    system = P2PSystem(config)
    system.populate_static(spec["n_peers"])
    if spec.get("link_preset"):
        # Degrade before the warm-up slot so the measured slots start
        # with a realistically populated retry queue.
        system.apply_link_preset(spec["link_preset"])
    return system


def bench_scenario(name: str, spec: dict, seed: int = 0, slots: Optional[int] = None,
                   verbose: bool = True, repeats: int = 3) -> dict:
    n_slots = spec["slots"] if slots is None else slots
    if n_slots < 1:
        raise ValueError(f"need at least one measured slot, got {n_slots!r}")
    system = build_system(spec, seed)
    churn = spec["churn"]

    # Warm-up slot: populates the pairwise cost cache so neither build
    # path pays the sampling cost inside the timed region, fills
    # buffers so the measured slots look like steady state, and leaves
    # the per-group candidate caches the measured builds splice forward.
    system.run_slot(churn=churn, remove_finished=churn)

    reference = spec.get("reference", True)
    scenario_spec = spec.get("scenario_spec")
    timeline = (
        compile_timeline(scenario_spec, seed) if scenario_spec is not None else []
    )
    next_event = 0
    outage_caps: Dict[int, List[int]] = {}
    rows: List[dict] = []
    for _ in range(n_slots):
        t = system.now
        if churn:
            system._process_departures(t, remove_finished=True)
            system._admit_arrivals(t)
            system._collect_arrivals_during(t, t + system.config.slot_seconds)
        while next_event < len(timeline) and timeline[next_event].time <= t:
            apply_event(system, timeline[next_event], outage_caps)
            next_event += 1
        system._refill_neighbors()
        # The retry sweep runs outside the timed region, as run_slot
        # would: it drains due retries left by the previous slot's
        # (single real) apply, so each measured build sees the pending
        # set the live pipeline would.  No-op for ideal rows.
        system._slot_transfers_failed = 0
        system._slot_link_delay_ms = 0.0
        system._process_retries(t)
        budgets = {
            p.peer_id: p.upload_capacity_chunks for p in system.peers.values()
            if p.upload_capacity_chunks > 0
        }

        # Min-of-N per phase suppresses scheduler noise; every repeat
        # rebuilds fresh problem objects so cached views never leak
        # from one timing into another.
        build_old = build_new = solve_old = solve_new = float("inf")
        result_old = None
        for _rep in range(repeats):
            if reference:
                t0 = time.perf_counter()
                problem_old, _ = system.build_problem_reference(t, capacities=budgets)
                t1 = time.perf_counter()
                build_old = min(build_old, t1 - t0)
            t2 = time.perf_counter()
            problem_new = build_problem_cold(system, t, capacities=budgets)
            t3 = time.perf_counter()
            build_new = min(build_new, t3 - t2)
            if reference:
                assert problem_old.n_requests == problem_new.n_requests
                assert problem_old.n_edges() == problem_new.n_edges()
                # Seed solve: padded dense expansion (as the seed built
                # it) + dense jacobi.  The expansion is timed because the
                # seed solver paid for it on every fresh problem.
                t4 = time.perf_counter()
                legacy_dense(problem_old)
                solver_old = AuctionSolver(epsilon=EPSILON, mode="jacobi-dense")
                result_old = solver_old.solve(problem_old)
                t5 = time.perf_counter()
                solve_old = min(solve_old, t5 - t4)
            t6 = time.perf_counter()
            solver_new = AuctionSolver(epsilon=EPSILON, mode="jacobi")
            result_new = solver_new.solve(problem_new)
            t7 = time.perf_counter()
            solve_new = min(solve_new, t7 - t6)

        # Delta build: splice the candidate caches the previous slot's
        # build left behind.  Repeats restore those caches (snapshotted
        # by reference) so every repeat splices from identical state;
        # the cold assembler above never touches them.
        dsnap = system.store.snapshot_delta_state()
        build_delta = float("inf")
        problem_delta = None
        for _rep in range(repeats):
            if _rep:
                system.store.restore_delta_state(dsnap)
            td0 = time.perf_counter()
            problem_delta = system.build_problem(t, capacities=budgets)
            td1 = time.perf_counter()
            build_delta = min(build_delta, td1 - td0)
        assert_identical_problem(problem_new, problem_delta)

        welfare_old = result_old.welfare(problem_old) if reference else None
        welfare_new = result_new.welfare(problem_new)
        n_eps = problem_new.n_requests * EPSILON

        gs_welfare = None
        if spec["gauss_seidel"]:
            gs = AuctionSolver(epsilon=EPSILON, mode="gauss-seidel").solve(problem_new)
            gs_welfare = gs.welfare(problem_new)

        if reference:
            apply_old, apply_new, (inter, intra) = timed_apply(
                system, problem_new, result_new, repeats
            )
            playback_old, playback_new = timed_playback(
                system, t + system.config.slot_seconds, repeats
            )
        else:
            apply_old = playback_old = None
            apply_new, (inter, intra) = timed_apply_new_only(
                system, problem_new, result_new, repeats
            )
            playback_new = timed_playback_new_only(
                system, t + system.config.slot_seconds, repeats
            )

        rows.append(dict(
            n_peers=len(system.peers),
            n_requests=problem_new.n_requests,
            n_edges=problem_new.n_edges(),
            build_old_s=build_old if reference else None,
            build_new_s=build_new,
            build_delta_s=build_delta,
            solve_old_s=solve_old if reference else None,
            solve_new_s=solve_new,
            apply_old_s=apply_old,
            apply_s=apply_new,
            playback_old_s=playback_old,
            playback_s=playback_new,
            welfare_old=welfare_old,
            welfare_new=welfare_new,
            gs_welfare=gs_welfare,
            n_eps_bound=n_eps,
            inter_isp=inter,
            intra_isp=intra,
        ))
        system.now = t + system.config.slot_seconds
        system.slot_index += 1

    def total(key):
        vals = [row[key] for row in rows if row[key] is not None]
        return float(sum(vals)) if vals else None

    def ratio(old, new):
        if old is None or new is None:
            return None
        return old / new if new else float("inf")

    build_old, build_new = total("build_old_s"), total("build_new_s")
    solve_old, solve_new = total("solve_old_s"), total("solve_new_s")
    slot_old = build_old + solve_old if reference else None
    slot_new = build_new + solve_new
    # Live slot: the delta build + the flat solve.
    build_delta_total = total("build_delta_s")
    slot_delta = build_delta_total + solve_new
    welfare_gap = (
        max(abs(row["welfare_old"] - row["welfare_new"]) for row in rows)
        if reference
        else None
    )
    gs_gap = None
    if spec["gauss_seidel"]:
        gs_gap = max(abs(row["gs_welfare"] - row["welfare_new"]) for row in rows)

    summary = dict(
        n_peers=rows[-1]["n_peers"],
        slots=len(rows),
        n_requests_mean=float(np.mean([r["n_requests"] for r in rows])),
        n_edges_mean=float(np.mean([r["n_edges"] for r in rows])),
        reference_measured=reference,
        build_old_s=build_old,
        build_new_s=build_new,
        build_speedup=ratio(build_old, build_new),
        build_delta_s=build_delta_total,
        delta_speedup=ratio(build_new, build_delta_total),
        solve_old_s=solve_old,
        solve_new_s=solve_new,
        solve_speedup=ratio(solve_old, solve_new),
        slot_old_s=slot_old,
        slot_new_s=slot_new,
        slot_speedup=ratio(slot_old, slot_new),
        slot_delta_s=slot_delta,
        slot_delta_speedup=ratio(slot_new, slot_delta),
        apply_old_s=total("apply_old_s"),
        apply_s=total("apply_s"),
        apply_speedup=ratio(total("apply_old_s"), total("apply_s")),
        playback_old_s=total("playback_old_s"),
        playback_s=total("playback_s"),
        playback_speedup=ratio(total("playback_old_s"), total("playback_s")),
        welfare_gap_max=welfare_gap,
        n_eps_bound=float(max(row["n_eps_bound"] for row in rows)),
        welfare_within_n_eps=(
            bool(welfare_gap <= max(row["n_eps_bound"] for row in rows) + 1e-6)
            if reference
            else None
        ),
        gauss_seidel_gap_max=gs_gap,
        slot_rows=rows,
    )
    if verbose:
        def fmt(value, pattern="{:.3f}s"):
            return pattern.format(value) if value is not None else "–"

        def fmt_x(value):
            return f"{value:.1f}×" if value is not None else "–"

        gap_note = (
            f" | welfare gap {welfare_gap:.2e} (n·ε = {summary['n_eps_bound']:.2f})"
            if welfare_gap is not None
            else ""
        )
        print(
            f"[{name}] peers={summary['n_peers']} "
            f"requests≈{summary['n_requests_mean']:.0f} "
            f"edges≈{summary['n_edges_mean']:.0f} | "
            f"build {fmt(build_old)} → {fmt(build_new)} "
            f"({fmt_x(summary['build_speedup'])}) | "
            f"delta build {fmt(build_delta_total)} "
            f"({fmt_x(summary['delta_speedup'])} vs cold, "
            f"slot {fmt_x(summary['slot_delta_speedup'])}) | "
            f"solve {fmt(solve_old)} → {fmt(solve_new)} "
            f"({fmt_x(summary['solve_speedup'])}) | "
            f"slot {fmt_x(summary['slot_speedup'])} | "
            f"apply {fmt(summary['apply_old_s'])} → {fmt(summary['apply_s'])} "
            f"({fmt_x(summary['apply_speedup'])}) | "
            f"playback {fmt(summary['playback_old_s'])} → "
            f"{fmt(summary['playback_s'])} "
            f"({fmt_x(summary['playback_speedup'])})"
            f"{gap_note}"
        )
    return summary


def run(scenario_names: List[str], seed: int = 0, slots: Optional[int] = None,
        output: Optional[pathlib.Path] = DEFAULT_OUTPUT, verbose: bool = True,
        seed_src: Optional[pathlib.Path] = None) -> dict:
    report = {
        "benchmark": "slot_pipeline",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "epsilon": EPSILON,
        "seed_revision_measured": seed_src is not None,
        "scenarios": {},
    }
    for name in scenario_names:
        spec = SCENARIOS[name]
        summary = bench_scenario(
            name, spec, seed=seed, slots=slots, verbose=verbose
        )
        if seed_src is not None:
            baseline = measure_seed_revision(
                seed_src, spec, seed, slots if slots is not None else spec["slots"]
            )
            summary["seed_revision"] = baseline
            summary["slot_speedup_vs_seed_revision"] = (
                baseline["slot_s"] / summary["slot_new_s"]
                if summary["slot_new_s"] else float("inf")
            )
            if verbose:
                print(
                    f"[{name}] seed revision slot {baseline['slot_s']:.3f}s → "
                    f"{summary['slot_new_s']:.3f}s "
                    f"({summary['slot_speedup_vs_seed_revision']:.1f}× vs seed)"
                )
        report["scenarios"][name] = summary
    if output is not None:
        output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        if verbose:
            print(f"wrote {output}")
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenarios", nargs="+", choices=sorted(SCENARIOS), default=DEFAULT_SCENARIOS,
        help=f"scenario subset (default: {' '.join(DEFAULT_SCENARIOS)})",
    )
    parser.add_argument("--all", action="store_true", help="run every scenario incl. large")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--slots", type=int, default=None, help="override measured slots per scenario")
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--no-output", action="store_true", help="skip writing the JSON")
    parser.add_argument(
        "--seed-src", type=pathlib.Path, default=None,
        help="path to a seed-revision checkout's src/ — also measures the "
        "true pre-PR numbers there (e.g. a `git worktree add` of the seed commit)",
    )
    args = parser.parse_args(argv)
    if args.slots is not None and args.slots < 1:
        parser.error("--slots must be >= 1")
    names = sorted(SCENARIOS) if args.all else args.scenarios
    run(
        names,
        seed=args.seed,
        slots=args.slots,
        output=None if args.no_output else args.output,
        seed_src=args.seed_src,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
