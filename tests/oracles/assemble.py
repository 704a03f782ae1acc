"""Cold per-group twin of ``PeerStateStore.assemble_requests``.

The production assembler runs one fused pass per state bucket over
word-packed windows and reads a bucket's candidate tables with one
range gather.  This is the assembler it replaced: one pass per video
group over boolean window matrices, and edges ordered by a full
``nonzero`` plus a stable argsort of the (watcher, chunk, neighbor)
key.  Candidate tables go through the store's one table path: the
overlay's dirty set drops them, missing ones are built in ascending id
order, and each group's are gathered from the pool.  So the oracle can
run on the same store state as the production build, before or after
it.  Table contents are checked independently against the overlay and
the cost model by ``build_problem_reference`` in
``tests/oracles/slot.py``.  The property suite compares the two
assemblers' problems byte for byte, and the slot-pipeline benchmark
times one against the other.

:func:`build_tables_per_table` is the per-table twin of the store's
one-pass ``_build_tables``: one :func:`candidate_entry`, and so one
``costs_for_pairs`` call, per table.  The property suite runs churn
trajectories through both and compares the pool and the cost stream
after every slot.

:func:`suppress_pending_requests` is the reference for the retry mask:
the production assembler leaves the retry queue's pending cells out of
its windows, while this oracle assembles every request and then drops
the rows whose ``(peer, video, chunk)`` triple is pending, with their
edges, by a set lookup.  :func:`build_problem_cold` applies it, so the
lossy trajectories of the property suite pin the mask.
"""

from __future__ import annotations

from typing import List, Optional

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
    rows, ids = group.watcher_arrays(store._row_table)
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
    tables = store._gather_tables(act_ids)
    nb_counts, nb_indptr, nb_rows, nb_ids, nb_costs = tables
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
    # the per-peer build_requests in tests/oracles/slot.py, evaluated
    # on the whole window.
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


def candidate_entry(store, pid: int):
    """Same-video neighbor ``(rows, ids, costs)`` of ``pid``, sorted by id."""
    members = store.groups[int(store._video_table[pid])].member_ids
    nb = np.array(sorted(store.overlay.neighbors(pid)), dtype=np.int64)
    nb_ids = nb[np.isin(nb, members)]
    return (
        store._row_table[nb_ids],
        nb_ids,
        store.costs.costs_for_pairs(nb_ids, pid),
    )


def build_tables_per_table(store, need: np.ndarray) -> None:
    """``PeerStateStore._build_tables``, one table at a time, in ``need``'s order."""
    type(store)._build_tables(store, need[:0])  # the pool compaction, when due
    if not len(need):
        return
    rows, ids, costs = zip(*[candidate_entry(store, pid) for pid in need.tolist()])
    counts = np.fromiter(map(len, ids), dtype=np.int64, count=len(ids))
    store._table_start[need] = np.cumsum(counts) - counts + len(store._pool_ids)
    store._table_count[need] = counts
    store._pool_live += int(counts.sum())
    store._pool_rows = np.concatenate((store._pool_rows,) + rows)
    store._pool_ids = np.concatenate((store._pool_ids,) + ids)
    store._pool_costs = np.concatenate((store._pool_costs,) + costs)


def assemble_requests_cold(store, now: float, valuation, lookahead: float = 0.0):
    """Same contract as ``PeerStateStore.assemble_requests``, per group."""
    store._drain_overlay()
    preps = []
    need: List[int] = []
    for group in store.groups.values():
        prep = prepare_group(store, group, now)
        if prep is None:
            continue
        preps.append(prep)
        ids = prep[1]
        need.extend(ids[store._table_count[ids] < 0].tolist())
    # Missing candidate tables are built in ascending id order, so the
    # cost model samples never-seen pairs in reference order.
    store._build_tables(np.array(sorted(need), dtype=np.int64))
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


def triple_key(peer: np.ndarray, video: np.ndarray, chunk: np.ndarray) -> np.ndarray:
    """Pack (peer, video, chunk) into one int64 key for set operations.

    Safe while peer ids stay below 2**31 and video/chunk below 2**16 —
    comfortably true for every configuration in this repo (videos ≤ 100,
    chunks/video ≤ 2560, peers well under a billion).
    """
    return (
        (np.asarray(peer, dtype=np.int64) << np.int64(32))
        | (np.asarray(video, dtype=np.int64) << np.int64(16))
        | np.asarray(chunk, dtype=np.int64)
    )


def suppress_pending_requests(parts, down, video, chunk):
    """``parts`` without the requests whose triple is pending, or ``None``.

    ``parts`` is an assembler's ``(peers, chunk_pairs, valuations,
    cand_ids, cand_costs, indptr)``; a row whose (peer, video, chunk)
    matches a pending ``(down, video, chunk)`` triple is removed, and
    the candidate CSR is re-packed to match.  Returns ``None`` when
    nothing survives.
    """
    if parts is None:
        return None
    req_peers, pairs, vals, cand_ids, cand_costs, indptr = parts
    keys = triple_key(req_peers, pairs[:, 0], pairs[:, 1])
    keep = ~np.isin(keys, triple_key(down, video, chunk))
    if not keep.any():
        return None
    counts = np.diff(indptr)
    edge_keep = np.repeat(keep, counts)
    new_indptr = np.zeros(int(keep.sum()) + 1, dtype=indptr.dtype)
    np.cumsum(counts[keep], out=new_indptr[1:])
    return (
        req_peers[keep],
        pairs[keep],
        vals[keep],
        cand_ids[edge_keep],
        cand_costs[edge_keep],
        new_indptr,
    )


def build_problem_cold(
    system,
    now: float,
    capacity_array: Optional[np.ndarray] = None,
) -> SchedulingProblem:
    """Same contract as ``P2PSystem.build_problem``, on the cold assembler.

    Pending retries are dropped after assembly
    (:func:`suppress_pending_requests`), not masked out of the windows.
    The columns go through the validating constructor
    (``validate=True``) rather than the trusted one.
    """
    ids, caps = system.store.capacity_columns()
    if capacity_array is not None:
        caps = np.asarray(capacity_array, dtype=np.int64)
    rounds = system.config.bid_rounds_per_slot
    lookahead = system.config.slot_seconds / rounds if rounds > 1 else 0.0
    parts = assemble_requests_cold(system.store, now, system.valuation, lookahead)
    parts = suppress_pending_requests(parts, *system.retry_queue.pending_triples())
    return SchedulingProblem(ids, caps, *(parts or ()), validate=True)
