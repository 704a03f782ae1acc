"""Cold per-group twin of ``PeerStateStore.assemble_requests``.

The production assembler runs one fused pass per state bucket over
word-packed windows and splices each video group's candidate CSR
forward from the previous build.  This is the assembler it replaced:
one pass per video group over boolean window matrices, the candidate
CSR rebuilt flat from the entry dict on every call, and edges ordered
by a full ``nonzero`` plus a stable argsort of the (watcher, chunk,
neighbor) key.  It never reads or writes the per-group CSR caches, so
it can run on the same store state as the production build.  The
property suite compares the two problems byte for byte, and the
slot-pipeline benchmark times one against the other.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.problem import SchedulingProblem


def prepare_group(store, group, now: float):
    """Window/availability stage: which watchers can request what.

    Returns ``(group, gated_ids, gated_rows, due, avail)`` for the
    watchers that are unfinished *and* have a non-empty available
    window (the gate the reference applies before touching the cost
    model), or ``None`` when the group cannot produce requests.
    The bucket's positions must already be synced.
    """
    rows, ids = group.watcher_arrays()
    if not len(rows):
        return None
    bucket = group.bucket
    n_chunks = group.n_chunks
    positions = bucket.position[rows]
    active = positions < n_chunks
    if not active.any():
        return None
    act_rows = rows[active]
    st = bucket.start_time[act_rows]
    sp = bucket.start_pos[act_rows]
    cps = group.video.chunks_per_second
    # due_position(now), vectorized with the same float ops.
    due = sp + (np.maximum(0.0, now - st) * cps).astype(np.int64)
    np.minimum(due, n_chunks, out=due)
    W = group.window
    offs = np.arange(W, dtype=np.int64)
    in_range = (due[:, None] + offs[None, :]) < n_chunks
    swv_masks, swv_missed = bucket.window_views()
    held = swv_masks[act_rows, due]
    missed_win = swv_missed[act_rows, due]
    avail = in_range & ~held & ~missed_win
    gated = avail.any(axis=1)
    if not gated.any():
        return None
    return (
        group,
        ids[active][gated],
        act_rows[gated],
        due[gated],
        avail[gated],
    )


def finish_group(store, prep, now: float, valuation, lookahead: float):
    """Requests and candidate edges of one prepared group, or ``None``."""
    group, act_ids, act_rows, due, avail = prep
    bucket = group.bucket
    W = group.window
    flats = store._flat_candidates(group, act_ids)
    nb_counts, nb_indptr, nb_rows, nb_ids, nb_costs = flats
    sel = nb_counts > 0
    if not sel.any():
        return None
    if not sel.all():
        # Restrict every per-watcher array to watchers with at least
        # one same-video neighbor (the only ones that can request).
        keep_edges = np.repeat(sel, nb_counts)
        nb_rows = nb_rows[keep_edges]
        nb_ids = nb_ids[keep_edges]
        nb_costs = nb_costs[keep_edges]
        nb_counts = nb_counts[sel]
        nb_indptr = np.zeros(len(nb_counts) + 1, dtype=np.int64)
        np.cumsum(nb_counts, out=nb_indptr[1:])
        act_rows = act_rows[sel]
        act_ids = act_ids[sel]
        due = due[sel]
        avail = avail[sel]
    d = len(act_rows)
    st = bucket.start_time[act_rows]
    sp = bucket.start_pos[act_rows]
    cps = group.video.chunks_per_second
    cols = due[:, None] + np.arange(W, dtype=np.int64)[None, :]
    # Valuations: identical formula (and op order) to
    # Peer.build_request_arrays, evaluated on the whole window.
    deadlines = (st[:, None] + (cols - sp[:, None]) / cps) - now
    to_deadline = np.maximum(0.0, deadlines - lookahead)
    values = valuation.values(to_deadline)
    swv_masks, _ = bucket.window_views()
    owner = np.repeat(np.arange(d, dtype=np.int64), nb_counts)
    have = swv_masks[nb_rows, due[owner]]
    have &= avail[owner]
    # Candidate counts per (watcher, chunk): segment sums over the
    # neighbor rows.  int8 is safe while no peer has ≥128 same-video
    # neighbors; fall back to a wide dtype otherwise.
    if int(nb_counts.max(initial=0)) < 128:
        counts = np.add.reduceat(have.view(np.int8), nb_indptr[:-1], axis=0)
    else:
        counts = np.add.reduceat(have.astype(np.int64), nb_indptr[:-1], axis=0)
    requested = counts > 0
    rd, rc = np.nonzero(requested)
    if not len(rd):
        return None
    req_peers = act_ids[rd]
    req_chunks = due[rd] + rc
    req_vals = values[rd, rc]
    req_counts = counts[rd, rc].astype(np.int64)
    # Edges: nonzero of `have` is (neighbor-major, chunk) per watcher;
    # the problem wants (chunk-major, neighbor-sorted), so reorder by
    # the composite (watcher, chunk, neighbor) key.
    nzr, nzc = np.nonzero(have)
    key = (owner[nzr] * np.int64(W) + nzc) * np.int64(len(nb_rows)) + nzr
    order = np.argsort(key, kind="stable")
    cand_ids = nb_ids[nzr[order]]
    cand_costs = nb_costs[nzr[order]]
    return req_peers, req_chunks, req_vals, req_counts, cand_ids, cand_costs


def assemble_requests_cold(store, now: float, valuation, lookahead: float = 0.0):
    """Same contract as ``PeerStateStore.assemble_requests``, per group."""
    store._drain_overlay()
    for bucket in store.buckets.values():
        store._sync_bucket(bucket)
    preps = []
    need_entry: List[Tuple[int, object]] = []
    for group in store.groups.values():
        prep = prepare_group(store, group, now)
        if prep is None:
            continue
        preps.append(prep)
        for pid in prep[1].tolist():
            if pid not in store._cand:
                need_entry.append((pid, group))
    if need_entry:
        # Missing candidate tables are built in peer-dict order, so the
        # cost model samples never-seen pairs in reference order.
        need_entry.sort(key=store._dict_order_key())
        for pid, group in need_entry:
            store._candidate_entry(pid, group)
    parts = []
    for prep in preps:
        part = finish_group(store, prep, now, valuation, lookahead)
        if part is not None:
            parts.append((prep[0].video.video_id,) + part)
    if not parts:
        return None
    if len(parts) == 1:
        vid, peers, chunks, vals, counts, cand_ids, cand_costs = parts[0]
        vids = np.full(len(peers), vid, dtype=np.int64)
    else:
        peers = np.concatenate([p[1] for p in parts])
        chunks = np.concatenate([p[2] for p in parts])
        vals = np.concatenate([p[3] for p in parts])
        counts = np.concatenate([p[4] for p in parts])
        cand_ids = np.concatenate([p[5] for p in parts])
        cand_costs = np.concatenate([p[6] for p in parts])
        vids = np.repeat(
            np.fromiter((p[0] for p in parts), dtype=np.int64, count=len(parts)),
            np.fromiter((len(p[1]) for p in parts), dtype=np.int64, count=len(parts)),
        )
    return store._pack_requests(
        peers, vids, chunks, vals, counts, cand_ids, cand_costs
    )


def build_problem_cold(
    system,
    now: float,
    capacities: Optional[Dict[int, int]] = None,
    capacity_array: Optional[np.ndarray] = None,
) -> SchedulingProblem:
    """Same contract as ``P2PSystem.build_problem``, on the cold assembler.

    Capacities go through the validating dict path
    (``set_capacities_batch``) rather than the trusted priming.
    """
    ids, caps = system.store.capacity_columns()
    if capacity_array is not None:
        caps = np.asarray(capacity_array, dtype=np.int64)
    elif capacities is not None:
        caps = np.fromiter(
            (capacities.get(pid, 0) for pid in ids.tolist()),
            dtype=np.int64,
            count=len(ids),
        )
    rounds = system.config.bid_rounds_per_slot
    lookahead = system.config.slot_seconds / rounds if rounds > 1 else 0.0
    problem = SchedulingProblem()
    problem.set_capacities_batch(ids, caps)
    parts = assemble_requests_cold(system.store, now, system.valuation, lookahead)
    if parts is None:
        return problem
    if len(system.retry_queue):
        parts = system._suppress_pending_requests(parts)
        if parts is None:
            return problem
    problem.add_requests_batch(*parts, validate=False)
    return problem
