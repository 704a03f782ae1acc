"""Property: store-based ``build_problem`` ≡ ``build_problem_reference``.

Random scenarios (population, catalog, churn, stagger, sub-slot rounds,
elapsed slots) are realized through the official system APIs, then the
slot problem is constructed by both paths and compared byte for byte on
the CSR columns — request order, valuations, candidate uploader sets,
edge net-utilities, capacities, chunk-key pairs.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np
from hypothesis import given

from strategies import scenarios
from support import assert_same_problem

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "oracles"))
from slot import build_problem_reference, capacity_array  # noqa: E402


@given(sc=scenarios)
def test_build_matches_reference_full_capacity(sc):
    system = sc.build_system()
    now = system.now
    new_p = system.build_problem(now)
    ref_p, ref_owner = build_problem_reference(system, now)
    assert ref_owner == dict(enumerate(new_p.request_peer_array().tolist()))
    assert_same_problem(ref_p, new_p)


@given(sc=scenarios)
def test_build_matches_reference_subround_budgets(sc):
    """The sub-round budget split, against the reference's dict budgets."""
    system = sc.build_system()
    now = system.now
    rounds = max(2, sc.bid_rounds)
    ids, caps = system.store.capacity_columns()
    shares = caps * 1 // rounds  # a deliberately uneven, zero-heavy split
    budgets = {
        pid: int(share)
        for pid, share in zip(ids.tolist(), shares.tolist())
        if share > 0
    }
    new_p = system.build_problem(now, capacity_array=capacity_array(system, budgets))
    ref_p, _ = build_problem_reference(system, now, capacities=budgets)
    assert_same_problem(ref_p, new_p)
    # The shares themselves (zeros included) build the identical problem.
    arr_p = system.build_problem(now, capacity_array=shares)
    assert_same_problem(new_p, arr_p)
    assert np.array_equal(
        np.asarray([arr_p.capacity_of(int(u)) for u in ids.tolist()]),
        shares,
    )
