"""Property: bulk-draw ``rank_candidate_columns`` ≡ the per-candidate loop.

The tracker ranks every joiner's bootstrap candidates with
:func:`repro.net.topology.rank_candidate_columns`, which reads the
candidates' positions as one array (gathered here from the table),
takes all its random draws in one ``rng.random(k)`` call and orders
with ``np.lexsort``.  The oracle in ``tests/oracles`` is the
per-candidate loop with a tuple sort it replaced.  Both must give the
same ranking and leave the generator in the same state, in both
``seed_rank`` modes, with and without an RNG, on tied distances and on
empty and one-element candidate lists — otherwise the tracker's RNG
stream, and with it every churn trajectory, would drift.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from repro.net.topology import rank_candidate_columns

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "oracles"))
from ranking import rank_candidates_reference  # noqa: E402

#: A few integer positions make tied distances likely (the joiner sits
#: between two watchers, or several watchers share a position); finite
#: floats cover the general case.  ``None`` is a seed.
positions = st.one_of(
    st.none(),
    st.integers(0, 8).map(float),
    st.floats(0.0, 5_000.0, allow_nan=False, allow_infinity=False),
)

#: Ids up to 3000 collide mod 997, which ties the RNG-free seed draws.
candidate_tables = st.dictionaries(st.integers(0, 3_000), positions, max_size=40)


@given(
    table=candidate_tables,
    joiner=st.one_of(st.integers(0, 8).map(float), st.floats(0.0, 5_000.0)),
    seed=st.integers(0, 2**32 - 1),
    use_rng=st.booleans(),
    seed_rank=st.sampled_from(["first", "random"]),
)
@example(table={}, joiner=0.0, seed=0, use_rng=True, seed_rank="random")
@example(table={7: None}, joiner=3.0, seed=1, use_rng=True, seed_rank="random")
@example(table={7: 4.0}, joiner=3.0, seed=2, use_rng=True, seed_rank="first")
@example(
    table={5: None, 1002: None, 9: 2.0, 3: 4.0, 4: 4.0},
    joiner=3.0, seed=3, use_rng=False, seed_rank="random",
)
def test_rank_candidates_matches_reference(table, joiner, seed, use_rng, seed_rank):
    rng_new = np.random.default_rng(seed) if use_rng else None
    rng_ref = np.random.default_rng(seed) if use_rng else None
    ids = np.array(list(table), dtype=np.int64)
    positions = np.array([table[p] for p in ids.tolist()], dtype=float)
    new = rank_candidate_columns(ids, positions, joiner, rng=rng_new, seed_rank=seed_rank)
    ref = rank_candidates_reference(
        table.get, joiner, list(table), rng=rng_ref, seed_rank=seed_rank
    )
    assert new == ref
    if use_rng:
        assert rng_new.random() == rng_ref.random()
