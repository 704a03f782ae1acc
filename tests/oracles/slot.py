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
  :func:`advance_to_reference` per session;
* :func:`admit` — ``PeerStateStore.admit_batch``: one peer at a time,
  each a sorted ``np.insert`` into the online ids and its video's
  member table;
* :func:`remove` — ``PeerStateStore.remove_batch``: one peer at a time,
  each an ``np.delete`` from the online ids and its video's member
  table;
* :func:`round_budget` — the sub-round share split in
  ``P2PSystem.run_slot``: one capacity at a time;
* :func:`capacity_array` — a per-peer budget dict as the aligned
  array ``P2PSystem.build_problem`` takes;
* :func:`costs_from` — ``CostModel.costs_for_pairs``: one ``cost``
  call per source.

The per-object helpers those loops call are here too, each taking the
object it was once a method of: :func:`build_requests` (a peer's
window of interest), :func:`window_array` and
:func:`window_of_interest` (a buffer's), :func:`seconds_to_deadlines`
(a session), :func:`held_among` (a buffer), :func:`receive_chunk` and
:func:`record_upload` (a peer's transfer counters), and
:func:`is_inter_isp` and :func:`cost_matrix` (a cost model).

The loops over the online peers visit them in ascending id order, the
order of every per-peer column of the peer-state store.

The property suites and the equivalence tests pin the production steps
against these; the slot-pipeline benchmark times them as its seed path.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.problem import ProblemBuilder, SchedulingProblem
from repro.core.result import ScheduleResult
from repro.vod.playback import SlotPlaybackStats
from repro.vod.valuation import DeadlineValuation


def build_requests(
    peer,
    now: float,
    prefetch_chunks: int,
    valuation: DeadlineValuation,
    lookahead: float = 0.0,
) -> List[Tuple[int, float]]:
    """Chunks ``peer`` wants this slot with their valuations.

    Returns ``[(chunk_index, v), ...]`` for the next ``prefetch_chunks``
    chunks beyond the playback position that are neither held nor
    already missed, valued by time-to-deadline.

    ``lookahead`` implements *anticipative valuation* for sub-slot
    bidding: a chunk is valued at the urgency it will reach by the end
    of the bidding interval, ``v(max(0, d − lookahead))``.  The paper's
    peers "keep bidding" continuously, so a chunk's bid approaches
    ``v(0)`` (= 11 > the costliest link, by the paper's own parameter
    choice) right before its deadline; the lookahead reproduces that
    within a discrete bidding round.
    """
    session = peer.session
    if peer.is_seed or session is None or session.finished:
        return []
    position = session.due_position(now)
    wanted = window_array(
        peer.buffer, position, prefetch_chunks, exclude=session.missed
    )
    if not wanted.size:
        return []
    to_deadline = np.maximum(
        0.0, seconds_to_deadlines(session, wanted, now) - lookahead
    )
    values = valuation.values(to_deadline)
    return list(zip(wanted.tolist(), values.tolist()))


def window_array(
    buffer,
    position: int,
    window: int,
    exclude: Optional[Set[int]] = None,
) -> np.ndarray:
    """:func:`window_of_interest` as a sorted int64 array."""
    if window < 0:
        raise ValueError(f"window must be non-negative, got {window!r}")
    start = max(0, position)
    stop = min(buffer.video.n_chunks, start + window)
    if stop <= start:
        return np.empty(0, dtype=np.int64)
    available = ~buffer.mask[start:stop]
    if exclude:
        # Clear excluded positions directly — O(window + |exclude|),
        # cheaper than a sort-based isin.
        skip = np.fromiter(exclude, dtype=np.int64, count=len(exclude))
        skip = skip[(skip >= start) & (skip < stop)]
        available[skip - start] = False
    return np.nonzero(available)[0] + start


def window_of_interest(
    buffer,
    position: int,
    window: int,
    exclude: Optional[Set[int]] = None,
) -> List[int]:
    """The next ``window`` chunk indices from ``position`` not in ``buffer``.

    ``exclude`` removes chunks already being fetched or already missed.
    The result is ordered by index (i.e., by deadline).
    """
    return window_array(buffer, position, window, exclude).tolist()


def seconds_to_deadlines(session, indices, now: float) -> np.ndarray:
    """``session.seconds_to_deadline`` over an index array."""
    offsets = (
        np.asarray(indices, dtype=float) - session.start_position
    ) / session.video.chunks_per_second
    return (session.start_time + offsets) - now


def admit(store, peer) -> None:
    """Admit one peer to ``store``: ``store.admit_batch([peer])``, unbatched."""
    pid = peer.peer_id
    group = store._bind(peer)
    at = int(np.searchsorted(group.member_ids, pid))
    group.member_ids = np.insert(group.member_ids, at, pid)
    group._watchers_stale = True
    at = int(np.searchsorted(store._online_ids, pid))
    store._online_ids = np.insert(store._online_ids, at, pid)


def remove(store, peer) -> None:
    """Remove one peer from ``store``: ``store.remove_batch([peer])``, unbatched."""
    pid = peer.peer_id
    if pid >= len(store._row_table) or store._row_table[pid] < 0:
        raise KeyError(f"peer {pid} is not in the store")
    group = store.groups[peer.video.video_id]
    group.bucket.release_row(peer, int(store._row_table[pid]))
    at = int(np.searchsorted(group.member_ids, pid))
    group.member_ids = np.delete(group.member_ids, at)
    group._watchers_stale = True
    at = int(np.searchsorted(store._online_ids, pid))
    store._online_ids = np.delete(store._online_ids, at)
    store._drop_tables(np.array([pid], dtype=np.int64))
    store._clear_ids(pid)


def round_budget(capacity: int, round_index: int, rounds: int) -> int:
    """Integer share of ``capacity`` for one sub-round (shares sum exactly)."""
    return capacity * (round_index + 1) // rounds - capacity * round_index // rounds


def held_among(buffer, indices: Set[int]) -> Set[int]:
    """Subset of ``indices`` that ``buffer`` holds."""
    if not indices:
        return set()
    idx = np.fromiter(indices, dtype=np.int64, count=len(indices))
    return set(idx[buffer.mask[idx]].tolist())


def receive_chunk(peer, index: int) -> bool:
    """Store a downloaded chunk; returns ``False`` if it was a duplicate."""
    added = peer.buffer.add(index)
    if added:
        peer.chunks_downloaded += 1
    return added


def record_upload(peer, n: int = 1) -> None:
    """Count ``n`` chunks uploaded by ``peer``."""
    peer.chunks_uploaded += n


def is_inter_isp(costs, src: int, dst: int) -> bool:
    """Whether a transfer src→dst crosses an ISP boundary."""
    return costs.topology.isp_of(src) != costs.topology.isp_of(dst)


def costs_from(costs, sources: Iterable[int], dst: int) -> np.ndarray:
    """Vector of costs ``w_{u→dst}`` for each ``u`` in ``sources``."""
    return np.array([costs.cost(src, dst) for src in sources], dtype=float)


def cost_matrix(costs, peers: List[int]) -> np.ndarray:
    """Dense cost matrix over ``peers`` (diagonal zero).

    Row ``i``, column ``j`` holds ``w_{peers[i]→peers[j]}``.
    """
    n = len(peers)
    out = np.zeros((n, n), dtype=float)
    for i, u in enumerate(peers):
        for j, d in enumerate(peers):
            if i != j:
                out[i, j] = costs.cost(u, d)
    return out


def online_peers(system):
    """The system's online peers in ascending id order."""
    return [system.peers[pid] for pid in sorted(system.peers)]


def capacity_array(system, budgets: Dict[int, int]) -> np.ndarray:
    """``budgets`` as ``build_problem``'s ``capacity_array``.

    Aligned with the store's ascending online ids; a peer missing from
    ``budgets`` gets 0.
    """
    ids, _ = system.store.capacity_columns()
    return np.fromiter(
        (budgets.get(pid, 0) for pid in ids.tolist()),
        dtype=np.int64,
        count=len(ids),
    )


def build_problem_reference(
    system,
    now: float,
    capacities: Optional[Dict[int, int]] = None,
) -> Tuple[SchedulingProblem, Dict[int, int]]:
    """Per-request (dict/loop) construction of ``system.build_problem(now)``.

    Returns the problem and its request index → downloader map.
    """
    builder = ProblemBuilder()
    peers = online_peers(system)
    for peer in peers:
        capacity = (
            peer.upload_capacity_chunks
            if capacities is None
            else capacities.get(peer.peer_id, 0)
        )
        builder.set_capacity(peer.peer_id, capacity)
    request_owner: Dict[int, int] = {}
    for peer in peers:
        if peer.session is None:
            continue  # seeds never request
        # Peers in their startup delay do bid: they are pre-fetching
        # ahead of the (future) playback start.  With sub-slot
        # re-bidding, valuations anticipate the urgency reached by
        # the end of the bid interval (see build_requests).
        rounds = system.config.bid_rounds_per_slot
        lookahead = system.config.slot_seconds / rounds if rounds > 1 else 0.0
        wanted = build_requests(
            peer,
            now,
            system.config.prefetch_chunks,
            system.valuation,
            lookahead=lookahead,
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
            hits = held_among(other.buffer, window)
            if not hits:
                continue
            cost = system.costs.cost(nb, peer.peer_id)
            for index in hits:
                per_chunk.setdefault(index, {})[nb] = cost
        for index, value in wanted:
            candidates = per_chunk.get(index)
            if not candidates:
                continue  # nobody caches it: cannot even be requested
            r = builder.add_request(
                peer=peer.peer_id,
                chunk=(video_id, index),
                valuation=value,
                candidates=candidates,
            )
            request_owner[r] = peer.peer_id
    return builder.build(), request_owner


def process_departures_reference(system, t: float, remove_finished: bool) -> None:
    """Per-peer loop of ``system._process_departures(t, remove_finished)``."""
    doomed = []
    for peer in online_peers(system):
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
        receive_chunk(peer, index)
        if peer.first_delivery_time is None:
            peer.first_delivery_time = system.now
        up = system.peers[uploader]
        record_upload(up)
        system.traffic_matrix.record(up.isp, peer.isp)
        if is_inter_isp(system.costs, uploader, downstream):
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
    missed_mask = session.missed_mask
    while session.position < target:
        index = session.position
        due += 1
        if session.buffer.holds(index):
            session.played += 1
        else:
            missed_mask[index] = True
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
