"""Property: each vector piece of a jacobi round ≡ the passes it replaced.

Three pieces of ``AuctionSolver._solve_jacobi`` are pinned against
their references in ``tests/oracles/auction.py`` on random inputs,
output for output:

* the bulk round's sweep over candidate columns (``_best_two``) against
  the whole-CSR passes (:func:`best_two_full_csr`): integer values
  (exact ties), ``-inf`` masked edges, single-candidate rows, one row
  of 200+ candidates, empty rows left out of the round, cold and warm
  ``λ``;
* the contested merge (``AuctionSolver._merge_contested``) against the
  full lexsort (:func:`merge_contested_full`): tied bids, tied
  ``seq``, blocks not full, and auctioneers with no member at risk;
* the commit order (``_order_bids``) against ``np.lexsort`` and the
  64-bit argsort plus transpose (:func:`order_bids_transpose`): tied
  bids, rounds on both sides of the 1024-bid switch, and more than
  65,535 uploaders.

Runs under the deterministic ``repro-props`` Hypothesis profile.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.auction import AuctionSolver, _best_two, _order_bids

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "oracles"))
from auction import (  # noqa: E402
    best_two_full_csr,
    merge_contested_full,
    order_bids_transpose,
)

SEEDS = st.integers(0, 2**32 - 1)


@given(
    seed=SEEDS,
    n_rows=st.integers(1, 60),
    max_len=st.integers(1, 12),
    long_row=st.booleans(),
    warm=st.booleans(),
    masked=st.sampled_from([0.0, 0.2, 1.0]),
)
def test_column_sweep_matches_full_csr_passes(
    seed, n_rows, max_len, long_row, warm, masked
):
    rng = np.random.default_rng(seed)
    n_uploaders = int(rng.integers(1, 30))
    counts = rng.integers(0, max_len + 1, n_rows)
    if long_row:
        counts[rng.integers(n_rows)] = rng.integers(200, 260)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    n_edges = int(indptr[-1])
    uidx = rng.integers(0, n_uploaders, n_edges)
    values = rng.integers(-3, 8, n_edges).astype(float)
    values[rng.random(n_edges) < masked] = -np.inf
    lam = rng.integers(0, 4, n_uploaders).astype(float) if warm else None
    # A round's rows: ascending, never empty.
    live = np.nonzero(counts > 0)[0]
    rows = live[rng.random(len(live)) < 0.8]
    if not len(rows):
        return
    got = _best_two(counts[rows], indptr[rows], values, uidx, lam)
    want = best_two_full_csr(values, indptr, uidx, lam, rows)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


def contested_round(rng, n_groups, cap_max, at_risk):
    """Random arguments of ``_merge_contested``: member blocks, bids, batches.

    ``at_risk`` is the chance that a member bid falls below its batch's
    best bid; at 0 every member sits at or above it.
    """
    cap = rng.integers(1, cap_max + 1, n_groups)
    m = np.array([rng.integers(1, c + 1) for c in cap])
    lens = np.array(
        [rng.integers(max(1, c - k), c - k + 4) for c, k in zip(cap, m)]
    )
    # Blocks of cap slots, with untouched slots of other auctioneers
    # between them.
    gaps = rng.integers(0, 3, n_groups)
    base = np.cumsum(np.concatenate(([0], (cap + gaps)[:-1]))) + gaps[0]
    n_rows = int(m.sum() + lens.sum()) + 10
    row_ids = rng.permutation(n_rows)
    member = np.full(int(base[-1] + cap[-1] + 2), -7, dtype=np.int64)
    bid_of = np.zeros(n_rows)
    seq_of = np.zeros(n_rows, dtype=np.int64)
    rows, bids, within, starts = [], [], [], []
    at = 0
    for i in range(n_groups):
        batch = -np.sort(-rng.integers(1, 9, lens[i]).astype(float))
        held = row_ids[at : at + m[i]]
        at += m[i]
        member[base[i] : base[i] + m[i]] = held
        low = np.where(rng.random(m[i]) < at_risk, 1, batch[0])
        bid_of[held] = rng.integers(low, 10)
        # Tied seqs too; within an auctioneer the solver's are distinct.
        seq_of[held] = rng.integers(0, max(2, m[i]), m[i])
        # An uncontested batch between contested ones.
        other = int(rng.integers(0, 3))
        rows.append(row_ids[n_rows - 10 : n_rows - 10 + other])
        bids.append(np.full(other, 5.0))
        within.append(np.arange(other))
        starts.append(sum(len(r) for r in rows))
        rows.append(row_ids[at : at + lens[i]])
        at += lens[i]
        bids.append(batch)
        within.append(np.arange(lens[i]))
    flat = lambda parts: np.concatenate(parts)  # noqa: E731
    return (
        member, base, m, cap, bid_of, seq_of,
        flat(rows).astype(np.int64), flat(bids), flat(within).astype(np.int64),
        np.array(starts, dtype=np.int64), lens,
    )


@given(
    seed=SEEDS,
    n_groups=st.integers(1, 12),
    cap_max=st.integers(1, 8),
    at_risk=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_contested_merge_matches_full_lexsort(seed, n_groups, cap_max, at_risk):
    args = contested_round(np.random.default_rng(seed), n_groups, cap_max, at_risk)
    member, base, m, cap = args[:4]
    ref_member = member.copy()
    accepted, lowest, evicted = AuctionSolver._merge_contested(*args)
    want_acc, want_low, want_ev = merge_contested_full(ref_member, *args[1:])
    assert np.array_equal(accepted, want_acc)
    got_in = accepted > 0
    assert np.array_equal(lowest[got_in], want_low[got_in])
    assert np.array_equal(evicted, want_ev)
    # Each block holds the same rows, in no particular order, and no
    # slot outside the blocks was written.
    for i in range(len(m)):
        block = slice(base[i], base[i] + cap[i])
        assert sorted(member[block]) == sorted(ref_member[block])
    outside = np.ones(len(member), dtype=bool)
    outside[AuctionSolver._concat_ranges(base, cap)] = False
    assert np.array_equal(member[outside], ref_member[outside])


@given(
    seed=SEEDS,
    n_bids=st.sampled_from([1, 50, 1023, 1024, 3000]),
    n_uploaders=st.sampled_from([1, 7, 65_536, 65_537, 200_000]),
    distinct_bids=st.sampled_from([3, 1000, 10**9]),
)
def test_bid_order_matches_lexsort(seed, n_bids, n_uploaders, distinct_bids):
    rng = np.random.default_rng(seed)
    target = rng.integers(0, n_uploaders, n_bids)
    target[0] = n_uploaders - 1
    # Strictly positive bids, with ties when few values are drawn.
    bids = 0.25 * rng.integers(1, distinct_bids + 1, n_bids)
    order = _order_bids(bids, target, n_uploaders)
    assert np.array_equal(order, np.lexsort((-bids, target)))
    assert np.array_equal(order, order_bids_transpose(bids, target, n_uploaders))
