"""Property: store-based ``build_problem`` ≡ ``build_problem_reference``.

Random scenarios (population, catalog, churn, stagger, sub-slot rounds,
elapsed slots) are realized through the official system APIs, then the
slot problem is constructed by both paths and compared byte for byte on
the CSR columns — request order, valuations, candidate uploader sets,
edge net-utilities, capacities, chunk-key pairs.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given

from strategies import scenarios
from support import assert_same_problem


@given(sc=scenarios)
def test_build_matches_reference_full_capacity(sc):
    system = sc.build_system()
    now = system.now
    new_p = system.build_problem(now)
    ref_p, ref_owner = system.build_problem_reference(now)
    assert ref_owner == dict(enumerate(new_p.request_peer_array().tolist()))
    assert_same_problem(ref_p, new_p)


@given(sc=scenarios)
def test_build_matches_reference_subround_budgets(sc):
    """The sub-round budget split: dict and array capacity variants."""
    system = sc.build_system()
    now = system.now
    rounds = max(2, sc.bid_rounds)
    ids, caps = system._capacity_arrays()
    shares = caps * 1 // rounds  # a deliberately uneven, zero-heavy split
    budgets = {
        pid: int(share)
        for pid, share in zip(ids.tolist(), shares.tolist())
        if share > 0
    }
    new_p = system.build_problem(now, capacities=budgets)
    ref_p, _ = system.build_problem_reference(now, capacities=budgets)
    assert_same_problem(ref_p, new_p)
    # The loop-free array variant must build the identical problem.
    arr_p = system.build_problem(now, capacity_array=shares)
    assert_same_problem(new_p, arr_p)
    assert np.array_equal(
        np.asarray([arr_p.capacity_of(int(u)) for u in ids.tolist()]),
        shares,
    )
