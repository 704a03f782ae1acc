"""Property: batched playback ≡ per-chunk ``advance_to_reference``.

Twin systems follow the same deterministic trajectory; one advances
playback through the store's batched pass, the other through the
per-session/per-chunk reference loop.  Due/missed totals and every
session's position, played count, missed set and last-advance stamp
must agree — including partial-slot advances and a follow-up full-slot
advance, which exercises the missed-window exclusion the store tracks
in its bitmap matrix.
"""

from __future__ import annotations

import pathlib
import sys

from hypothesis import given
from hypothesis import strategies as st

from strategies import scenarios
from support import assert_same_peer_state

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "oracles"))
from slot import advance_playback_reference, build_problem_reference  # noqa: E402


@given(sc=scenarios, fraction=st.sampled_from([0.3, 0.5, 1.0]))
def test_playback_matches_reference(sc, fraction):
    fast = sc.build_system()
    slow = sc.build_system()
    now = fast.now
    slot = fast.config.slot_seconds
    for to_time in (now + fraction * slot, now + slot, now + 2 * slot):
        pair_fast = fast._advance_playback(to_time)
        pair_slow = advance_playback_reference(slow, to_time)
        assert pair_fast == pair_slow
    assert_same_peer_state(fast, slow)
    fast.store.check_consistency(fast.peers)
    # The next slot problem is built on post-advance state (positions,
    # missed exclusions): both paths must still agree byte for byte.
    from support import assert_same_problem

    new_p = fast.build_problem(fast.now + 2 * slot)
    ref_p, _ = build_problem_reference(fast, fast.now + 2 * slot)
    assert_same_problem(ref_p, new_p)
