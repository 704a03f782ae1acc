"""Per-peer twins of the slot pipeline's vectorized steps.

Each function is the loop a columnar step of ``P2PSystem`` replaced,
taking the object the step belongs to:

* :func:`build_problem_reference` — ``P2PSystem.build_problem``: one
  ``add_request`` per wanted chunk, candidates from per-neighbor set
  intersections;
* :func:`process_departures_reference` — ``P2PSystem._process_departures``:
  one ``remove_peer`` per doomed peer;
* :func:`apply_transfers_reference` — ``P2PSystem._apply_transfers``:
  one Python iteration per served edge;
* :func:`advance_to_reference` — ``PlaybackSession.advance_to``: one
  buffer probe per due chunk;
* :func:`advance_playback_reference` — ``P2PSystem._advance_playback``:
  :func:`advance_to_reference` per session.

The property suites and the equivalence tests pin the production steps
against these; the slot-pipeline benchmark times them as its seed path.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.problem import SchedulingProblem
from repro.core.result import ScheduleResult
from repro.vod.playback import SlotPlaybackStats


def build_problem_reference(
    system,
    now: float,
    capacities: Optional[Dict[int, int]] = None,
) -> Tuple[SchedulingProblem, Dict[int, int]]:
    """Per-request (dict/loop) construction of ``system.build_problem(now)``.

    Returns the problem and its request index → downloader map.
    """
    problem = SchedulingProblem()
    for peer in system.peers.values():
        capacity = (
            peer.upload_capacity_chunks
            if capacities is None
            else capacities.get(peer.peer_id, 0)
        )
        problem.set_capacity(peer.peer_id, capacity)
    request_owner: Dict[int, int] = {}
    for peer in system.peers.values():
        if peer.session is None:
            continue  # seeds never request
        # Peers in their startup delay do bid: they are pre-fetching
        # ahead of the (future) playback start.  With sub-slot
        # re-bidding, valuations anticipate the urgency reached by
        # the end of the bid interval (see Peer.build_requests).
        rounds = system.config.bid_rounds_per_slot
        lookahead = system.config.slot_seconds / rounds if rounds > 1 else 0.0
        wanted = peer.build_requests(
            now, system.config.prefetch_chunks, system.valuation, lookahead=lookahead
        )
        if not wanted:
            continue
        video_id = peer.video.video_id
        window = {index for index, _ in wanted}
        # One set intersection per neighbor instead of one membership
        # test per (chunk, neighbor) pair — the paper-scale problem
        # has ~100-chunk windows × 30 neighbors per peer.
        per_chunk: Dict[int, Dict[int, float]] = {}
        for nb in system.overlay.neighbors(peer.peer_id):
            other = system.peers.get(nb)
            if other is None or other.video.video_id != video_id:
                continue
            hits = other.buffer.held_among(window)
            if not hits:
                continue
            cost = system.costs.cost(nb, peer.peer_id)
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


def process_departures_reference(system, t: float, remove_finished: bool) -> None:
    """Per-peer loop of ``system._process_departures(t, remove_finished)``."""
    doomed = []
    for peer in system.peers.values():
        if peer.is_seed:
            continue
        if peer.departure_time is not None and peer.departure_time <= t:
            doomed.append(peer.peer_id)
        elif remove_finished and peer.session is not None and peer.session.finished:
            doomed.append(peer.peer_id)
    for peer_id in doomed:
        system.remove_peer(peer_id)


def apply_transfers_reference(
    system, problem: SchedulingProblem, result: ScheduleResult
) -> Tuple[int, int]:
    """Per-edge loop of ``system._apply_transfers``; (inter-ISP, intra-ISP).

    Ideal links only: it has no link model.
    """
    inter = 0
    intra = 0
    for _, downstream, chunk, uploader, _ in result.served_edges(problem):
        peer = system.peers[downstream]
        _, index = chunk
        peer.receive_chunk(index)
        if peer.first_delivery_time is None:
            peer.first_delivery_time = system.now
        up = system.peers[uploader]
        up.record_upload()
        system.traffic_matrix.record(up.isp, peer.isp)
        if system.costs.is_inter_isp(uploader, downstream):
            inter += 1
        else:
            intra += 1
    return inter, intra


def advance_to_reference(session, now: float) -> SlotPlaybackStats:
    """Per-chunk loop of ``session.advance_to(now)``."""
    if now < session._last_advance:
        raise ValueError(
            f"time went backwards: {now!r} < {session._last_advance!r}"
        )
    session._last_advance = float(now)
    target = session.due_position(now)
    due = 0
    missed = 0
    missed_set = session.missed
    while session.position < target:
        index = session.position
        due += 1
        if session.buffer.holds(index):
            session.played += 1
        else:
            missed_set.add(index)
            missed += 1
        session.position += 1
    return SlotPlaybackStats(due=due, missed=missed)


def advance_playback_reference(system, to_time: float) -> Tuple[int, int]:
    """Per-session loop of ``system._advance_playback``; (due, missed)."""
    due = 0
    missed = 0
    for peer in system.peers.values():
        if peer.session is None or peer.session.start_time >= to_time:
            continue
        stats = advance_to_reference(peer.session, to_time)
        due += stats.due
        missed += stats.missed
    return due, missed
