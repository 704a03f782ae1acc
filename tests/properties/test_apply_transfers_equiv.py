"""Property: ``_apply_transfers`` ≡ ``apply_transfers_reference`` (oracle).

Twin systems follow the same deterministic trajectory; one applies a
slot's scheduled transfers through the vectorized store epilogue, the
other through the per-edge reference loop.  The resulting peer state —
buffer bitmaps (store matrix rows), upload/download counters, traffic
matrix, inter/intra split — must be identical, and the store must stay
consistent with the object graph.
"""

from __future__ import annotations

import pathlib
import sys

from hypothesis import given

from strategies import scenarios
from support import assert_same_peer_state

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "oracles"))
from slot import apply_transfers_reference  # noqa: E402


@given(sc=scenarios)
def test_apply_matches_reference(sc):
    fast = sc.build_system()
    slow = sc.build_system()
    now = fast.now
    assert slow.now == now
    problem_fast = fast.build_problem(now)
    problem_slow = slow.build_problem(now)
    result_fast = fast.scheduler.schedule(problem_fast)
    result_slow = slow.scheduler.schedule(problem_slow)
    assert result_fast.assignment == result_slow.assignment
    pair_fast = fast._apply_transfers(problem_fast, result_fast)
    pair_slow = apply_transfers_reference(slow, problem_slow, result_slow)
    assert pair_fast == pair_slow
    assert_same_peer_state(fast, slow)
    fast.store.check_consistency(fast.peers)
