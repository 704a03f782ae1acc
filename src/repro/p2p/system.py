"""The emulated P2P VoD system: slot loop, churn, transfers, metrics.

This is the Python replacement for the paper's Java emulator (Section
V).  Time advances in 10-second slots.  At each slot boundary the
system:

1. admits peers that arrived during the previous slot (the paper delays
   mid-slot joiners to the next slot so running auctions are not
   disturbed) and removes departed/finished peers;
2. tops up neighbor lists via the tracker;
3. builds the slot's :class:`~repro.core.problem.SchedulingProblem` from
   every watching peer's window of interest, neighbor buffer maps and
   pairwise network costs;
4. runs the configured scheduler (the auction, the locality baseline, or
   any registry entry);
5. applies the winning transfers to the buffers, tallying welfare and
   intra/inter-ISP traffic;
6. advances playback over the slot, tallying due/missed chunks;
7. records a :class:`~repro.metrics.collectors.SlotMetrics`.

Chunks scheduled in a slot count as delivered within it ("the actual
chunk transfers happen as soon as the auction algorithm converges"), so
a chunk due 3 s into the slot can still make its deadline if scheduled
at the boundary.
"""

from __future__ import annotations

import itertools
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.problem import SchedulingProblem
from ..core.result import ScheduleResult
from ..core.scheduler import AuctionScheduler, ChunkScheduler, make_scheduler
from ..metrics.collectors import MetricsCollector, SlotMetrics
from ..metrics.traffic_matrix import TrafficMatrix
from ..net.costs import CostModel
from ..net.isp import ISPTopology
from ..net.linkmodel import LinkConditions, LinkParams
from ..net.topology import OverlayGraph
from ..net.trunc_normal import TruncatedNormal
from ..obs.rollup import IspRollup
from ..obs.trace import TRACE_SCHEMA_VERSION, SlotTracer
from ..sim.rng import RngRegistry
from ..vod.buffer import ChunkBuffer
from ..vod.playback import PlaybackSession
from ..vod.popularity import ZipfMandelbrot
from ..vod.valuation import DeadlineValuation
from ..vod.video import VideoCatalog
from .churn import ArrivalPlan, ChurnModel
from .config import SystemConfig
from .peer import Peer
from .retry import RetryQueue
from .seeding import create_seeds
from .state import PeerStateStore
from .tracker import Tracker

__all__ = ["P2PSystem"]


class P2PSystem:
    """The whole emulated system for one scheduler configuration.

    Example
    -------
    >>> config = SystemConfig.tiny(seed=1)
    >>> system = P2PSystem(config)
    >>> system.populate_static(20)
    >>> collector = system.run(duration_seconds=50)
    >>> len(collector.slots)
    5
    """

    def __init__(
        self,
        config: SystemConfig,
        scheduler: Optional[ChunkScheduler] = None,
    ) -> None:
        config.validate()
        self.config = config
        self.rngs = RngRegistry(config.seed)
        self.topology = ISPTopology(config.n_isps)
        self.costs = CostModel(
            self.topology,
            self.rngs.stream("costs"),
            inter=TruncatedNormal(
                config.inter_cost_mean,
                config.inter_cost_std,
                config.inter_cost_low,
                config.inter_cost_high,
            ),
            intra=TruncatedNormal(
                config.intra_cost_mean,
                config.intra_cost_std,
                config.intra_cost_low,
                config.intra_cost_high,
            ),
        )
        self.catalog = VideoCatalog.paper_default(
            n_videos=config.n_videos,
            size_bytes=config.video_size_bytes,
            chunk_size_bytes=config.chunk_size_bytes,
            bitrate_bps=config.bitrate_bps,
        )
        self.popularity = ZipfMandelbrot(
            config.n_videos, alpha=config.zipf_alpha, q=config.zipf_q
        )
        self.valuation = DeadlineValuation(
            alpha=config.valuation_alpha, beta=config.valuation_beta
        )
        self.overlay = OverlayGraph(degree_target=config.neighbor_target)
        self.tracker = Tracker(
            rng=self.rngs.stream("tracker"),
            seed_rank=config.tracker_seed_rank,
        )
        self.churn = ChurnModel(
            self.rngs.stream("churn"),
            self.popularity,
            arrival_rate_per_s=config.arrival_rate_per_s,
            upload_range=(
                config.peer_upload_min_multiple,
                config.peer_upload_max_multiple,
            ),
            early_departure_prob=config.early_departure_prob,
        )
        self.scheduler = scheduler or self._default_scheduler()
        self.collector = MetricsCollector()
        self.traffic_matrix = TrafficMatrix(config.n_isps)
        self.peers: Dict[int, Peer] = {}
        # Persistent columnar peer state: per-video member tables,
        # buffer-bitmap matrices (the buffers' actual storage), playback
        # and capacity/ISP columns, candidate tables — maintained
        # incrementally at admit/remove/transfer/refresh instead of
        # being rebuilt from the object graph every build_problem call.
        self.store = PeerStateStore(
            self.overlay, self.costs, window=config.prefetch_chunks
        )
        # Lossy-network layer: the per-ISP-pair link-condition table
        # (ideal by default — never evaluated, no RNG draws) and the
        # cross-slot retry queue for failed/truncated transfers.  The
        # dedicated "link-conditions" stream keeps loss/jitter draws out
        # of every other stream, so enabling the subsystem cannot
        # perturb existing trajectories.
        self.links = LinkConditions(config.n_isps)
        self.retry_queue = RetryQueue(
            backoff_base_slots=config.retry_backoff_base_slots,
            backoff_cap_slots=config.retry_backoff_cap_slots,
            ttl_slots=config.retry_ttl_slots,
        )
        self._link_rng = self.rngs.stream("link-conditions")
        # Per-slot accumulators filled by _apply_transfers while the
        # link table is active (run_slot resets and reads them).
        self._slot_transfers_failed = 0
        self._slot_link_delay_ms = 0.0
        self._ids = itertools.count(1)
        self.now = 0.0
        self.slot_index = 0
        self._pending_arrivals: List[ArrivalPlan] = []
        self._next_arrival_time: Optional[float] = None
        self.departures = 0
        self.arrivals = 0
        # Observability (repro.obs): the slot-span tracer is attached
        # explicitly (attach_tracer); None — the default — costs one
        # attribute check per slot.  The per-ISP rollup accumulates only
        # when the config opts in.
        self.tracer: Optional[SlotTracer] = None
        self.isp_rollup: Optional[IspRollup] = (
            IspRollup(config.n_isps) if config.isp_rollup else None
        )

        for seed_peer in create_seeds(config, self.catalog, self._ids):
            self._admit(seed_peer)

    def _default_scheduler(self) -> ChunkScheduler:
        if self.config.scheduler == "auction":
            return AuctionScheduler(epsilon=self.config.epsilon)
        return make_scheduler(
            self.config.scheduler, rng=self.rngs.stream("scheduler")
        )

    def close(self) -> None:
        """Release the scheduler's external resources, if it holds any.

        Idempotent; a no-op for every built-in scheduler.  Benches and
        property trajectories call it after each run so a custom
        scheduler that does own resources can release them.
        """
        close = getattr(self.scheduler, "close", None)
        if close is not None:
            close()

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def populate_static(self, n_peers: int, stagger: bool = True) -> None:
        """Create ``n_peers`` at time 0 for the static-network experiments.

        ``stagger=True``: each peer picks a uniform playback position
        within its video and starts with everything before the position
        already buffered (it "has been watching" up to there).
        ``stagger=False``: a synchronized audience — everyone starts at
        chunk 0 with an empty buffer after the configured startup delay,
        supplied by the seeds and (pipelined within slots) by each other;
        nobody finishes before ``video_duration_seconds``, which keeps
        the per-slot series steady like the paper's Figs. 4–5.
        """
        rng = self.rngs.stream("static-population")
        startup = self.config.startup_delay_slots * self.config.slot_seconds
        for _ in range(n_peers):
            video = self.catalog[self.popularity.sample(rng)]
            position = int(rng.integers(0, video.n_chunks)) if stagger else 0
            multiple = float(
                rng.uniform(
                    self.config.peer_upload_min_multiple,
                    self.config.peer_upload_max_multiple,
                )
            )
            self.add_watching_peer(
                video_id=video.video_id,
                upload_multiple=multiple,
                start_position=position,
                start_time=self.now if stagger else self.now + startup,
                prefill_history=stagger,
            )

    def add_watching_peer(
        self,
        video_id: int,
        upload_multiple: float,
        start_position: int = 0,
        start_time: Optional[float] = None,
        departure_time: Optional[float] = None,
        prefill_history: bool = False,
        defer_store: bool = False,
    ) -> Peer:
        """Create, register and wire a watching peer; returns it.

        ``defer_store=True`` skips the peer-state-store registration —
        the caller takes responsibility for a subsequent
        :meth:`PeerStateStore.admit_batch` covering the peer (the
        arrival-burst path).
        """
        video = self.catalog[video_id]
        buffer = ChunkBuffer(video)
        if prefill_history and start_position > 0:
            buffer.fill_range(0, start_position)
        session = PlaybackSession(
            video=video,
            buffer=buffer,
            start_time=self.now if start_time is None else start_time,
            start_position=start_position,
        )
        peer = Peer(
            peer_id=next(self._ids),
            isp=-1,  # assigned by _admit
            video=video,
            upload_capacity_chunks=self.config.peer_capacity_chunks(upload_multiple),
            buffer=buffer,
            session=session,
            joined_at=self.now,
            departure_time=departure_time,
        )
        self._admit(peer, defer_store=defer_store)
        return peer

    def _admit(self, peer: Peer, defer_store: bool = False) -> None:
        # Seeds come with a fixed ISP (the paper places 2 per ISP per
        # video); watchers (isp < 0) go to the least-populated ISP,
        # realizing "distributed in the 5 ISPs evenly".
        wanted_isp = None if peer.isp < 0 else peer.isp
        isp = self.topology.add_peer(peer.peer_id, isp=wanted_isp)
        peer.isp = isp
        self.overlay.add_node(peer.peer_id)
        candidates = self.tracker.bootstrap_candidates(peer)
        self.tracker.register(peer)
        self.overlay.bootstrap(peer.peer_id, candidates)
        self.peers[peer.peer_id] = peer
        if not defer_store:
            self.store.admit(peer)

    def remove_peer(self, peer_id: int) -> None:
        """Depart a peer: drop from overlay, tracker, topology and store."""
        peer = self.peers.get(peer_id)
        if peer is None:
            raise KeyError(f"peer {peer_id} is not online")
        del self.peers[peer_id]
        self.store.remove(peer)
        self.tracker.unregister(peer_id)
        self.overlay.remove_node(peer_id)
        self.topology.remove_peer(peer_id)
        self.costs.forget_peer(peer_id)
        self.departures += 1

    # ------------------------------------------------------------------
    # Slot loop
    # ------------------------------------------------------------------
    def run(
        self,
        duration_seconds: float,
        churn: bool = False,
        remove_finished: Optional[bool] = None,
    ) -> MetricsCollector:
        """Advance the system ``duration_seconds``; returns the collector.

        ``churn`` enables Poisson arrivals and departures; by default
        finished sessions leave only in churn mode (static networks keep
        all peers online as uploaders, matching the paper's "static
        network of 500 peers").
        """
        if remove_finished is None:
            remove_finished = churn
        end = self.now + duration_seconds
        while self.now < end - 1e-9:
            self.run_slot(churn=churn, remove_finished=remove_finished)
        return self.collector

    def run_slot(self, churn: bool = False, remove_finished: bool = False) -> SlotMetrics:
        """Execute one full time slot; returns its metrics.

        With ``bid_rounds_per_slot = R > 1`` the slot is divided into R
        re-bid rounds: each round re-evaluates the window with refreshed
        deadlines (urgency grows, as in the paper's within-slot bidding)
        and gives every uploader a 1/R share of its slot bandwidth.

        With ``config.warm_start_prices`` each re-bid round's auction is
        warm-started from the previous round's final λ (the paper's
        peers bid against *posted* prices, which persist between
        rounds); the first round of every slot starts cold.  Off by
        default, reproducing the cold-start trajectories of every
        archived experiment.
        """
        t = self.now
        slot = self.config.slot_seconds
        rounds = self.config.bid_rounds_per_slot
        # Tracing is branch-cheap: one enabled check per slot; every
        # perf_counter call and counter gather below sits behind it.
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        if tracing:
            t_slot0 = perf_counter()
            arrivals0 = self.arrivals
            departures0 = self.departures
            churn_s = build_s = solve_s = apply_s = playback_s = 0.0
            bids_sub = bids_rej = evictions = price_updates = rows_eval = 0
            splice0 = dict(self.store.splice_counts)

        if churn:
            self._process_departures(t, remove_finished)
            self._admit_arrivals(t)
            self._collect_arrivals_during(t, t + slot)
            if tracing:
                # Churn is the slot's first phase: it starts at t_slot0.
                churn_s = perf_counter() - t_slot0
        if tracing:
            t_refill0 = perf_counter()
        self._refill_neighbors()
        if tracing:
            refill_s = perf_counter() - t_refill0

        if self.isp_rollup is not None:
            self.isp_rollup.begin_slot()
        welfare = 0.0
        inter = intra = 0
        n_requests = n_served = sched_rounds = 0
        due = missed = 0
        # Slot-boundary retry sweep: evict churned endpoints, surrender
        # expired edges, re-attempt due ones.  A no-op (and no RNG
        # draws) while the queue is empty — i.e. always, under ideal
        # link conditions.
        self._slot_transfers_failed = 0
        self._slot_link_delay_ms = 0.0
        if tracing:
            t_retry0 = perf_counter()
        retry = self._process_retries(t)
        if tracing:
            retry_s = perf_counter() - t_retry0
        inter += retry["inter"]
        intra += retry["intra"]
        # The peer population is stable within a slot (churn is handled
        # at the boundary above), so the store's capacity columns cover
        # the whole slot; the per-round share array is passed straight
        # to build_problem — no per-peer budget dict.
        _, slot_caps = self._capacity_arrays()
        warm = self.config.warm_start_prices and getattr(
            self.scheduler, "supports_warm_start", False
        )
        prices = None
        for r in range(rounds):
            now_r = t + r * slot / rounds
            shares = (
                slot_caps
                if rounds == 1
                else slot_caps * (r + 1) // rounds - slot_caps * r // rounds
            )
            if tracing:
                t0 = perf_counter()
            problem = self.build_problem(now_r, capacity_array=shares)
            if tracing:
                t1 = perf_counter()
                build_s += t1 - t0
            if warm:
                result = self.scheduler.schedule(problem, initial_prices=prices)
                prices = result.price_arrays()
            else:
                result = self.scheduler.schedule(problem)
            if tracing:
                t2 = perf_counter()
                solve_s += t2 - t1
                s = result.stats
                bids_sub += s.bids_submitted
                bids_rej += s.bids_rejected
                evictions += s.evictions
                price_updates += s.price_updates
                rows_eval += getattr(self.scheduler, "last_rows_evaluated", 0)
            welfare += result.welfare(problem)
            round_inter, round_intra = self._apply_transfers(problem, result)
            inter += round_inter
            intra += round_intra
            n_requests += problem.n_requests
            n_served += result.n_served()
            sched_rounds += result.stats.rounds
            if tracing:
                t3 = perf_counter()
                apply_s += t3 - t2
            round_due, round_missed = self._advance_playback(t + (r + 1) * slot / rounds)
            due += round_due
            missed += round_missed
            if tracing:
                playback_s += perf_counter() - t3

        if self.isp_rollup is not None:
            self.isp_rollup.end_slot()
        metrics = SlotMetrics(
            time=t,
            n_peers=len(self.peers),
            n_requests=n_requests,
            n_served=n_served,
            welfare=welfare,
            inter_isp_chunks=inter,
            intra_isp_chunks=intra,
            chunks_due=due,
            chunks_missed=missed,
            auction_rounds=sched_rounds,
            transfers_failed=self._slot_transfers_failed,
            retry_attempts=retry["attempts"],
            retry_succeeded=retry["succeeded"],
            retry_surrendered=retry["surrendered"],
            retry_evicted=retry["evicted"],
            retry_pending=len(self.retry_queue),
            link_delay_ms=self._slot_link_delay_ms + retry["delay_ms"],
            link_regime=self.links.regime,
        )
        self.collector.record(metrics)
        if tracing:
            slot_s = perf_counter() - t_slot0
            timing = {
                "churn_s": churn_s,
                "refill_s": refill_s,
                "retry_s": retry_s,
                "build_s": build_s,
                "solve_s": solve_s,
                "apply_s": apply_s,
                "playback_s": playback_s,
            }
            # Whatever no phase claims (rollup, metrics record, glue):
            # the phases are disjoint intervals, so this stays >= 0.
            timing["other_s"] = slot_s - sum(timing.values())
            timing["slot_s"] = slot_s
            tracer.emit(
                {
                    "v": TRACE_SCHEMA_VERSION,
                    "slot": self.slot_index,
                    "time": t,
                    "n_peers": len(self.peers),
                    "arrivals": self.arrivals - arrivals0,
                    "departures": self.departures - departures0,
                    "n_requests": n_requests,
                    "n_served": n_served,
                    "welfare": welfare,
                    "build": {
                        name: count - splice0[name]
                        for name, count in self.store.splice_counts.items()
                    },
                    "solver": {
                        "rounds": sched_rounds,
                        "bids_submitted": bids_sub,
                        "bids_rejected": bids_rej,
                        "evictions": evictions,
                        "price_updates": price_updates,
                        "rows_evaluated": rows_eval,
                    },
                    "retry": {
                        "attempts": retry["attempts"],
                        "succeeded": retry["succeeded"],
                        "surrendered": retry["surrendered"],
                        "evicted": retry["evicted"],
                        "pending": len(self.retry_queue),
                    },
                    "traffic": {"inter": inter, "intra": intra},
                    "playback": {"due": due, "missed": missed},
                    "link": {
                        "regime": self.links.regime,
                        "transfers_failed": self._slot_transfers_failed,
                        "delay_ms": self._slot_link_delay_ms
                        + retry["delay_ms"],
                    },
                    "timing": timing,
                }
            )
        self.now = t + slot
        self.slot_index += 1
        return metrics

    @staticmethod
    def _round_budget(capacity: int, round_index: int, rounds: int) -> int:
        """Integer share of ``capacity`` for one sub-round (shares sum exactly)."""
        return capacity * (round_index + 1) // rounds - capacity * round_index // rounds

    # ------------------------------------------------------------------
    # Churn handling
    # ------------------------------------------------------------------
    def _collect_arrivals_during(self, start: float, end: float) -> None:
        """Sample Poisson arrivals in [start, end); admitted next slot."""
        if self._next_arrival_time is None:
            self._next_arrival_time = start + self.churn.next_interarrival()
        while self._next_arrival_time < end:
            plan = self.churn.plan_arrival(
                self._next_arrival_time,
                lambda vid: self.catalog[vid].duration_seconds,
            )
            self._pending_arrivals.append(plan)
            self._next_arrival_time += self.churn.next_interarrival()

    def _admit_arrivals(self, t: float) -> None:
        """Admit peers that arrived before ``t`` (paper: delayed to slot start).

        Tracker/overlay wiring stays per-peer (the bootstrap RNG must be
        consumed in arrival order), but the store registration of the
        whole burst is one :meth:`PeerStateStore.admit_batch` call.
        """
        ready = [p for p in self._pending_arrivals if p.time < t]
        self._pending_arrivals = [p for p in self._pending_arrivals if p.time >= t]
        startup = self.config.startup_delay_slots * self.config.slot_seconds
        batch: List[Peer] = []
        for plan in ready:
            departure = plan.departure_time
            batch.append(
                self.add_watching_peer(
                    video_id=plan.video_id,
                    upload_multiple=plan.upload_multiple,
                    start_position=0,
                    start_time=t + startup,
                    departure_time=departure,
                    defer_store=True,
                )
            )
            self.arrivals += 1
        self.store.admit_batch(batch)

    def _process_departures(self, t: float, remove_finished: bool) -> None:
        """Depart due/finished peers — columnar scan + batched removal.

        The doomed set comes from one mask over the store's departure
        and playback columns instead of a Python pass over every online
        peer, and the whole batch leaves the pair-cost cache in one
        sweep; :meth:`_process_departures_reference` keeps the per-peer
        loop this is pinned against.
        """
        doomed = self.store.departure_scan(t, remove_finished)
        if not doomed:
            return
        peers = [self.peers.pop(pid) for pid in doomed]
        self.store.remove_batch(peers)
        for peer in peers:
            self.tracker.unregister(peer.peer_id)
            self.overlay.remove_node(peer.peer_id)
            self.topology.remove_peer(peer.peer_id)
        self.costs.forget_peer(*doomed)
        self.departures += len(peers)

    def _process_departures_reference(self, t: float, remove_finished: bool) -> None:
        """Per-peer loop implementation of :meth:`_process_departures` (pin)."""
        doomed = []
        for peer in self.peers.values():
            if peer.is_seed:
                continue
            if peer.departure_time is not None and peer.departure_time <= t:
                doomed.append(peer.peer_id)
            elif remove_finished and peer.session is not None and peer.session.finished:
                doomed.append(peer.peer_id)
        for peer_id in doomed:
            self.remove_peer(peer_id)

    def _refill_neighbors(self) -> None:
        """Top up peers that fell below their neighbor target (churn losses).

        The overlay's incrementally maintained deficient set makes the
        common static case O(1): when no non-seed peer is below target,
        the whole pass (and its per-peer tracker queries) is skipped.
        When someone is, only the deficient peers are visited — ordered
        by one mask over the store's dict-order id column, so the
        tracker's ranking RNG is consumed exactly as the historical
        full-dict walk did.
        """
        deficient = self.overlay.deficient_nodes()
        needy = deficient - self.store.seed_ids
        if not needy:
            return
        ids, _ = self._capacity_arrays()
        needy_arr = np.fromiter(needy, dtype=np.int64, count=len(needy))
        for pid in ids[np.isin(ids, needy_arr)].tolist():
            if pid not in deficient:
                # Refilled as a side effect of an earlier bootstrap in
                # this very pass (links are undirected and `deficient`
                # is the overlay's live set) — the historical full-dict
                # walk skipped these, so the tracker RNG must too.
                continue
            # bootstrap() itself skips self and existing neighbors.
            candidates = self.tracker.bootstrap_candidates(self.peers[pid])
            self.overlay.bootstrap(pid, candidates)

    # ------------------------------------------------------------------
    # Scenario hooks (mid-run regime changes, driven by the scenario
    # engine in repro.scenarios — each keeps the columnar store in sync)
    # ------------------------------------------------------------------
    def set_arrival_rate(self, rate_per_s: float) -> None:
        """Change the Poisson arrival intensity from the next draw on."""
        self.churn.set_arrival_rate(rate_per_s)

    def set_popularity(self, popularity) -> None:
        """Swap the video-popularity law for future arrivals.

        Existing peers keep watching what they chose; only the churn
        model's video selection changes (popularity drift / new-release
        events).  Any object with ``sample(rng)`` qualifies.
        """
        self.popularity = popularity
        self.churn.set_popularity(popularity)

    def set_upload_capacities(self, updates: Dict[int, int]) -> int:
        """Set per-peer upload budgets mid-run; returns peers updated.

        ``updates`` maps peer id → new capacity in chunks/slot (0 takes
        an uploader offline without departing it — a seeder outage).
        Offline ids are ignored, so a scenario can target peers that may
        have churned away.  Both the peer objects and the store's
        capacity column are updated.
        """
        for pid, chunks in updates.items():
            if chunks < 0:
                raise ValueError(
                    f"upload capacity must be >= 0, got {chunks!r} for peer {pid}"
                )
        touched = []
        for pid, chunks in updates.items():
            peer = self.peers.get(pid)
            if peer is None:
                continue
            peer.upload_capacity_chunks = int(chunks)
            touched.append(peer)
        self.store.update_capacities(touched)
        return len(touched)

    def scale_upload_capacities(
        self, factor: float, peer_ids: Optional[List[int]] = None
    ) -> int:
        """Multiply upload budgets by ``factor`` (capacity heterogeneity ramp).

        ``peer_ids=None`` targets every online peer.  Capacities round to
        int and floor at 1 chunk/slot for factors > 0 (matching
        ``SystemConfig.peer_capacity_chunks``); ``factor=0`` zeroes them.
        Peers already at zero stay at zero — a seeder outage survives a
        concurrent ramp instead of being resurrected by the floor.
        Returns the number of peers updated.
        """
        if factor < 0:
            raise ValueError(f"capacity factor must be >= 0, got {factor!r}")
        ids = list(self.peers) if peer_ids is None else peer_ids
        updates = {}
        for pid in ids:
            peer = self.peers.get(pid)
            if peer is None:
                continue
            current = peer.upload_capacity_chunks
            if factor > 0 and current > 0:
                updates[pid] = max(1, int(round(current * factor)))
            else:
                updates[pid] = 0
        return self.set_upload_capacities(updates)

    def scale_inter_isp_costs(self, factor: float) -> None:
        """Multiply every cross-ISP link cost by ``factor`` (price shock).

        Cached pair costs jump in place and future samples are scaled —
        no random draws are consumed — and the store's candidate-cost
        tables are invalidated so the next ``build_problem`` prices
        candidate edges under the new regime.
        """
        self.costs.scale_inter_costs(factor)
        self.store.invalidate_costs()

    def set_isp_pair_cost_scale(self, isp_a: int, isp_b: int, scale: float) -> None:
        """Set the cost multiplier between two ISPs (``a == b``: intra)."""
        self.costs.set_isp_pair_scale(isp_a, isp_b, scale)
        self.store.invalidate_costs()

    def set_neighbor_target(self, target: int) -> None:
        """Change the overlay's soft degree target (locality-cap change)."""
        self.overlay.set_degree_target(target)

    def apply_link_preset(
        self,
        name: str,
        isp_a: Optional[int] = None,
        isp_b: Optional[int] = None,
    ) -> int:
        """Degrade link conditions with a named regime preset.

        ``isp_a``/``isp_b`` select the pairs as in
        :meth:`LinkConditions.degrade` (default: every inter-ISP pair —
        a degraded backbone).  ``name="ideal"`` restores instead.
        Returns the number of pairs touched.
        """
        return self.links.apply_preset(name, isp_a, isp_b)

    def set_link_conditions(
        self,
        params: LinkParams,
        isp_a: Optional[int] = None,
        isp_b: Optional[int] = None,
    ) -> int:
        """Install explicit :class:`LinkParams` on a pair selection."""
        touched = self.links.degrade(params, isp_a, isp_b)
        self.links.regime = "custom" if self.links.active else "ideal"
        return touched

    def reset_link_conditions(
        self,
        isp_a: Optional[int] = None,
        isp_b: Optional[int] = None,
    ) -> int:
        """Restore a pair selection (default: everything) to ideal."""
        return self.links.restore(isp_a, isp_b)

    def startup_delay_stats(self) -> Tuple[float, int]:
        """Mean startup delay over online watchers, in seconds.

        Startup delay is ``first_delivery_time - joined_at`` for every
        online non-seed peer that has received at least one chunk.
        Returns ``(mean_seconds, n_peers_counted)`` — ``(0.0, 0)`` when
        nobody has been delivered to yet.
        """
        delays = [
            p.first_delivery_time - p.joined_at
            for p in self.peers.values()
            if not p.is_seed and p.first_delivery_time is not None
        ]
        if not delays:
            return 0.0, 0
        return sum(delays) / len(delays), len(delays)

    def startup_delay_by_isp(self) -> Dict[int, Tuple[float, int]]:
        """Per-home-ISP startup delay: ``{isp: (mean_seconds, n_peers)}``.

        Same population as :meth:`startup_delay_stats` (online non-seed
        peers with at least one delivery), broken down by the
        *requesting* peer's home ISP — the attribution the per-ISP QoE
        rollup reports.  ISPs with no counted peers are omitted.
        """
        sums: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        for p in self.peers.values():
            if p.is_seed or p.first_delivery_time is None:
                continue
            isp = int(p.isp)
            sums[isp] = sums.get(isp, 0.0) + (p.first_delivery_time - p.joined_at)
            counts[isp] = counts.get(isp, 0) + 1
        return {isp: (sums[isp] / counts[isp], counts[isp]) for isp in sums}

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def attach_tracer(self, sink) -> SlotTracer:
        """Attach a :class:`~repro.obs.trace.SlotTracer` over ``sink``.

        From the next slot on, ``run_slot`` emits one span record per
        slot through the sink (when it is enabled).  Returns the tracer
        so callers can read ``emitted`` / in-memory records.
        """
        self.tracer = SlotTracer(sink)
        return self.tracer

    # ------------------------------------------------------------------
    # Problem construction / transfer application
    # ------------------------------------------------------------------
    def build_problem(
        self,
        now: float,
        capacities: Optional[Dict[int, int]] = None,
        capacity_array: Optional[np.ndarray] = None,
    ) -> SchedulingProblem:
        """One (sub-)round's assignment problem from the peer-state store.

        Fully vectorized construction on the persistent columnar store:
        window availability and valuations come from word-packed window
        gathers over the per-bucket bitmap matrices, and the candidate
        CSR is spliced forward from each video group's previous build —
        only segments invalidated since (churn, overlay changes, cost
        shocks) are re-read from the entry dict, and a group with no
        cache (the first build of a run) builds its CSR flat.  The whole
        request block is handed to
        :meth:`SchedulingProblem.add_requests_batch` in one call — no
        per-peer Python loop, no per-slot re-stacking.  Produces the
        same problem (same request order, same candidate edges and
        costs; candidates sorted by uploader id) as the per-request
        :meth:`build_problem_reference`, which the property suite pins
        byte-for-byte, as it pins the cold per-group assembler in
        ``tests/oracles/assemble.py``.

        ``capacities`` overrides per-peer upload budgets as a dict
        (missing entries mean 0); ``capacity_array`` is the loop-free
        variant aligned with the store's peer-dict-order id column (used
        by ``run_slot``'s sub-round split).  Capacities are primed from
        the store's columns without a per-peer dict.  The request-index
        → downstream peer map is ``problem.request_peer_array()``.
        """
        ids, caps = self.store.capacity_columns()
        if capacity_array is not None:
            caps = np.ascontiguousarray(capacity_array, dtype=np.int64)
            if len(caps) != len(ids):
                raise ValueError(
                    f"capacity_array must align with the {len(ids)} online "
                    f"peers, got {len(caps)} entries"
                )
        elif capacities is not None:
            caps = np.fromiter(
                (capacities.get(pid, 0) for pid in ids.tolist()),
                dtype=np.int64,
                count=len(ids),
            )
        rounds = self.config.bid_rounds_per_slot
        lookahead = self.config.slot_seconds / rounds if rounds > 1 else 0.0
        problem = SchedulingProblem()
        problem.prime_capacities(ids, caps)
        parts = self.store.assemble_requests(now, self.valuation, lookahead)
        if parts is None:
            return problem
        if len(self.retry_queue):
            # Chunks parked in the retry pipeline stay out of the
            # auction until delivered, evicted or surrendered — a
            # pending edge must not be double-assigned.
            parts = self._suppress_pending_requests(parts)
            if parts is None:
                return problem
        # validate=False: this producer is pinned against the per-request
        # reference by the construction-equivalence/property tests.
        problem.add_requests_batch(*parts, validate=False)
        return problem

    # The end-to-end benchmark's layer trace wraps build methods by name
    # and fails on a missing one; the name stays until that hook list
    # drops it.
    patch_problem = build_problem

    def build_problem_reference(
        self,
        now: float,
        capacities: Optional[Dict[int, int]] = None,
    ) -> Tuple[SchedulingProblem, Dict[int, int]]:
        """Per-request (dict/loop) construction of the same slot problem.

        This is the pre-columnar hot path, kept as the semantics
        reference: equivalence tests assert :meth:`build_problem`
        produces the identical problem, and the benchmark harness times
        the two against each other.
        """
        problem = SchedulingProblem()
        for peer in self.peers.values():
            capacity = (
                peer.upload_capacity_chunks
                if capacities is None
                else capacities.get(peer.peer_id, 0)
            )
            problem.set_capacity(peer.peer_id, capacity)
        request_owner: Dict[int, int] = {}
        for peer in self.peers.values():
            if peer.session is None:
                continue  # seeds never request
            # Peers in their startup delay do bid: they are pre-fetching
            # ahead of the (future) playback start.  With sub-slot
            # re-bidding, valuations anticipate the urgency reached by
            # the end of the bid interval (see Peer.build_requests).
            rounds = self.config.bid_rounds_per_slot
            lookahead = self.config.slot_seconds / rounds if rounds > 1 else 0.0
            wanted = peer.build_requests(
                now, self.config.prefetch_chunks, self.valuation, lookahead=lookahead
            )
            if not wanted:
                continue
            video_id = peer.video.video_id
            window = {index for index, _ in wanted}
            # One set intersection per neighbor instead of one membership
            # test per (chunk, neighbor) pair — the paper-scale problem
            # has ~100-chunk windows × 30 neighbors per peer.
            per_chunk: Dict[int, Dict[int, float]] = {}
            for nb in self.overlay.neighbors(peer.peer_id):
                other = self.peers.get(nb)
                if other is None or other.video.video_id != video_id:
                    continue
                hits = other.buffer.held_among(window)
                if not hits:
                    continue
                cost = self.costs.cost(nb, peer.peer_id)
                for index in hits:
                    per_chunk.setdefault(index, {})[nb] = cost
            for index, value in wanted:
                candidates = per_chunk.get(index)
                if not candidates:
                    continue  # nobody caches it: cannot even be requested
                r = problem.add_request(
                    peer=peer.peer_id,
                    chunk=(video_id, index),
                    valuation=value,
                    candidates=candidates,
                )
                request_owner[r] = peer.peer_id
        return problem, request_owner

    def _suppress_pending_requests(self, parts):
        """Drop requests already parked in the retry queue from ``parts``.

        ``parts`` is the tuple :meth:`PeerStateStore.assemble_requests`
        returns; rows whose (peer, video, chunk) triple matches a
        pending retry are removed, with the candidate CSR re-packed to
        match.  Returns ``None`` when nothing survives.  Only called
        with a non-empty queue, i.e. never under ideal link conditions
        (``build_problem_reference`` intentionally has no counterpart —
        the construction-equivalence pins run with an empty queue).
        """
        from .retry import _triple_key

        req_peers, pairs, vals, cand_ids, cand_costs, indptr = parts
        down, video, chunk = self.retry_queue.pending_triples()
        req_keys = _triple_key(req_peers, pairs[:, 0], pairs[:, 1])
        pending = _triple_key(down, video, chunk)
        keep = ~np.isin(req_keys, pending)
        if keep.all():
            return parts
        if not keep.any():
            return None
        counts = np.diff(indptr)
        edge_keep = np.repeat(keep, counts)
        new_counts = counts[keep]
        new_indptr = np.zeros(len(new_counts) + 1, dtype=indptr.dtype)
        np.cumsum(new_counts, out=new_indptr[1:])
        return (
            req_peers[keep],
            pairs[keep],
            vals[keep],
            cand_ids[edge_keep],
            cand_costs[edge_keep],
            new_indptr,
        )

    def _process_retries(self, t: float) -> Dict[str, int]:
        """Slot-boundary sweep of the retry queue; returns its counters.

        Order: evict edges with a departed endpoint (churn safety),
        surrender expired edges back to the auction, then re-attempt the
        due ones against the live link table — deliveries go through the
        store's grouped ``deliver_runs`` path exactly like first-pass
        transfers, failures re-park with doubled backoff and their
        original expiry.  Returns counters plus the (inter, intra)
        traffic the completed retries produced.
        """
        zero = {
            "attempts": 0, "succeeded": 0, "surrendered": 0,
            "evicted": 0, "inter": 0, "intra": 0, "delay_ms": 0.0,
        }
        queue = self.retry_queue
        if not len(queue):
            return zero
        isp_of = self._isp_id_array()
        evicted = queue.evict_departed(isp_of >= 0)
        surrendered = len(queue.pop_surrendered(self.slot_index)[0])
        batch, expire = queue.pop_due(self.slot_index)
        if not len(batch):
            zero.update(evicted=evicted, surrendered=surrendered)
            return zero
        peers = self.peers
        # Uncapped buffers only grow, but capped ones can evict the
        # chunk from the uploader, and suppression should keep the
        # downstream from obtaining it elsewhere — guard both anyway:
        # a non-viable edge can never complete, so it evicts.
        viable = np.fromiter(
            (
                peers[int(u)].buffer.holds(int(c))
                and not peers[int(d)].buffer.holds(int(c))
                for u, d, c in zip(batch.up, batch.down, batch.chunk)
            ),
            dtype=bool,
            count=len(batch),
        )
        evicted += int(len(viable) - viable.sum())
        delivered_mask = viable.copy()
        delay_ms = 0.0
        if self.links.active and viable.any():
            up_isps = isp_of[batch.up]
            down_isps = isp_of[batch.down]
            outcome = self.links.evaluate(
                up_isps[viable], down_isps[viable], self._link_rng
            )
            delivered_mask[np.nonzero(viable)[0]] = outcome.delivered
            delay_ms = float(outcome.delay_ms.sum())
        failed = viable & ~delivered_mask
        queue.requeue(batch, failed, self.slot_index, expire)
        inter = intra = 0
        sel = np.nonzero(delivered_mask)[0]
        if len(sel):
            order = np.argsort(batch.down[sel], kind="stable")
            sel = sel[order]
            down = batch.down[sel]
            up = batch.up[sel]
            chunks = batch.chunk[sel]
            up_isps = isp_of[up]
            down_isps = isp_of[down]
            inter = int((up_isps != down_isps).sum())
            intra = len(down) - inter
            self.traffic_matrix.record_batch(up_isps, down_isps)
            if self.isp_rollup is not None:
                # Retry deliveries count as traffic (no per-edge cost in
                # hand here — transit chunk counts still accumulate).
                self.isp_rollup.record_transfers(up_isps, down_isps)
            starts = np.concatenate(([0], np.nonzero(np.diff(down))[0] + 1))
            stops = np.concatenate((starts[1:], [len(down)]))
            run_peers = [peers[int(down[s])] for s in starts.tolist()]
            if all(
                p.state_row is not None and p.buffer.capacity_chunks is None
                for p in run_peers
            ):
                added = self.store.deliver_runs(run_peers, starts, stops, chunks)
                for peer, add in zip(run_peers, added.tolist()):
                    peer.chunks_downloaded += add
                    if peer.first_delivery_time is None:
                        peer.first_delivery_time = t
            else:
                for peer, s, e in zip(run_peers, starts.tolist(), stops.tolist()):
                    peer.receive_chunks(chunks[s:e])
                    if peer.first_delivery_time is None:
                        peer.first_delivery_time = t
            upload_counts = np.bincount(up)
            for u in np.nonzero(upload_counts)[0].tolist():
                peers[u].record_upload(int(upload_counts[u]))
        if self.isp_rollup is not None and viable.any():
            self.isp_rollup.record_retries(
                isp_of[batch.down[viable]], isp_of[batch.down[sel]]
            )
        return {
            "attempts": int(viable.sum()),
            "succeeded": int(len(sel)),
            "surrendered": surrendered,
            "evicted": evicted,
            "inter": inter,
            "intra": intra,
            "delay_ms": delay_ms,
        }

    def _capacity_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(peer_ids, upload capacities)`` columns (do not mutate).

        Maintained incrementally by the peer-state store in ``peers``
        dict order — reading them is O(1), no rebuild on access.
        """
        return self.store.capacity_columns()

    def _isp_id_array(self) -> np.ndarray:
        """Peer-id-indexed ISP lookup table (do not mutate).

        ``arr[peer_id]`` is the peer's ISP index (−1 for ids not online);
        maintained incrementally by the peer-state store — a flat table
        beats a dict probe per transfer by orders of magnitude.
        """
        return self.store.isp_table()

    def _apply_transfers(
        self, problem: SchedulingProblem, result: ScheduleResult
    ) -> Tuple[int, int]:
        """Deliver scheduled chunks; returns (inter-ISP, intra-ISP) counts.

        Vectorized epilogue over the result's served columns: inter- vs
        intra-ISP classification via the cached ISP lookup table, the
        traffic matrix as one bincount, deliveries as one grouped bitmap
        write per receiving peer, and upload counters from one unique
        pass over the uploader column.  Produces exactly the state
        changes of :meth:`_apply_transfers_reference` (equivalence-
        tested), which also remains the fallback for problems whose
        chunk keys are not ``(video, index)`` pairs.
        """
        indices, uploaders = result.served_pairs()
        if not len(indices):
            return 0, 0
        try:
            pair_array = problem.chunk_pair_array()
            chunk_indices = pair_array[:, 1]
        except (TypeError, ValueError):
            if self.links.active:
                raise ValueError(
                    "lossy link conditions require (video, index) chunk "
                    "keys; the reference apply path has no link model"
                )
            return self._apply_transfers_reference(problem, result)
        downstream = problem.request_peer_array()[indices]
        chunks = chunk_indices[indices]
        isp_of = self._isp_id_array()
        up_isps = isp_of[uploaders]
        down_isps = isp_of[downstream]
        if self.links.active:
            # Lossy regime: classify each assigned edge under the link
            # table.  Failed/truncated edges park in the retry queue;
            # only survivors are delivered and counted as traffic.
            outcome = self.links.evaluate(up_isps, down_isps, self._link_rng)
            self._slot_link_delay_ms += float(outcome.delay_ms.sum())
            if outcome.n_failed:
                failed = ~outcome.delivered
                self._slot_transfers_failed += int(failed.sum())
                videos = pair_array[:, 0][indices]
                self.retry_queue.push_failed(
                    downstream[failed],
                    uploaders[failed],
                    videos[failed],
                    chunks[failed],
                    self.slot_index,
                )
                keep = outcome.delivered
                uploaders = uploaders[keep]
                downstream = downstream[keep]
                chunks = chunks[keep]
                up_isps = up_isps[keep]
                down_isps = down_isps[keep]
                if not len(downstream):
                    return 0, 0
                indices = indices[keep]
        inter = int((up_isps != down_isps).sum())
        intra = len(indices) - inter
        self.traffic_matrix.record_batch(up_isps, down_isps)
        if self.isp_rollup is not None:
            self.isp_rollup.record_transfers(
                up_isps,
                down_isps,
                problem.edge_cost_pairs(indices, uploaders),
            )
        # Requests arrive grouped by downloader (one builder block per
        # peer), so run boundaries are one diff — no sort.  A problem
        # that interleaves owners just yields more (still correct) runs.
        starts = np.concatenate(([0], np.nonzero(np.diff(downstream))[0] + 1))
        stops = np.concatenate((starts[1:], [len(downstream)]))
        peers = self.peers
        run_peers = [peers[int(downstream[s])] for s in starts.tolist()]
        if all(
            p.state_row is not None and p.buffer.capacity_chunks is None
            for p in run_peers
        ):
            # Grouped per-bucket column writes on the store matrices:
            # one fancy-indexed read/write per bucket instead of one
            # small bitmap write per receiving buffer.
            delivered = self.store.deliver_runs(run_peers, starts, stops, chunks)
            for peer, add in zip(run_peers, delivered.tolist()):
                peer.chunks_downloaded += add
                if peer.first_delivery_time is None:
                    peer.first_delivery_time = self.now
        else:
            # Capped or store-unbound buffers (tests, ad-hoc systems):
            # the original per-peer path.
            for peer, s, e in zip(run_peers, starts.tolist(), stops.tolist()):
                idx = chunks[s:e]
                if peer.buffer.capacity_chunks is None:
                    # Served chunks are unique and validated per request,
                    # so the trusted write skips add_batch's guards.
                    peer.chunks_downloaded += peer.buffer.receive_batch_trusted(idx)
                else:
                    peer.receive_chunks(idx)
                if peer.first_delivery_time is None:
                    peer.first_delivery_time = self.now
        upload_counts = np.bincount(uploaders)
        for u in np.nonzero(upload_counts)[0].tolist():
            peers[u].record_upload(int(upload_counts[u]))
        return inter, intra

    def _apply_transfers_reference(
        self, problem: SchedulingProblem, result: ScheduleResult
    ) -> Tuple[int, int]:
        """Per-edge loop implementation of :meth:`_apply_transfers` (pin)."""
        inter = 0
        intra = 0
        for _, downstream, chunk, uploader, _ in result.served_edges(problem):
            peer = self.peers[downstream]
            _, index = chunk
            peer.receive_chunk(index)
            if peer.first_delivery_time is None:
                peer.first_delivery_time = self.now
            up = self.peers[uploader]
            up.record_upload()
            self.traffic_matrix.record(up.isp, peer.isp)
            if self.costs.is_inter_isp(uploader, downstream):
                inter += 1
            else:
                intra += 1
        return inter, intra

    def _advance_playback(self, to_time: float) -> Tuple[int, int]:
        """Advance every session; returns (due, missed) chunk totals.

        One batched pass over the store's position/bitmap columns per
        video instead of a per-session loop; sessions whose
        ``start_time >= to_time`` are skipped (nothing due yet), and
        sessions admitted mid-slot advance from their own start time.
        Equivalent to :meth:`_advance_playback_reference`, which the
        property suite pins it against.
        """
        return self.store.advance_playback(to_time, self.isp_rollup)

    def _advance_playback_reference(self, to_time: float) -> Tuple[int, int]:
        """Per-session/per-chunk loop implementation (semantics pin)."""
        due = 0
        missed = 0
        for peer in self.peers.values():
            if peer.session is None or peer.session.start_time >= to_time:
                continue
            stats = peer.session.advance_to_reference(to_time)
            due += stats.due
            missed += stats.missed
        return due, missed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def online_watching(self) -> List[Peer]:
        """Non-seed peers with unfinished sessions."""
        return [p for p in self.peers.values() if p.watching]

    def n_seeds(self) -> int:
        return sum(1 for p in self.peers.values() if p.is_seed)

    def describe(self) -> str:
        return (
            f"P2PSystem(t={self.now:.0f}s, peers={len(self.peers)} "
            f"(seeds={self.n_seeds()}), scheduler={self.scheduler.name}, "
            f"isps={self.config.n_isps})"
        )
