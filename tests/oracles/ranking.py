"""Per-candidate twin of :func:`repro.net.topology.rank_candidate_columns`.

The production ranking reads the positions as one array, takes every
random draw in one bulk call and orders with ``np.lexsort``.  This is
the loop it replaced: one ``rng.random()`` per draw, in candidate order,
and a sort of ``(distance, tiebreak, peer)`` tuples.  The property suite
pins the two against each other, rankings and RNG stream alike.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

import numpy as np


def rank_candidates_reference(
    position_of: Callable[[int], Optional[float]],
    joiner_position: float,
    candidates: Iterable[int],
    rng: Optional[np.random.Generator] = None,
    seed_rank: str = "first",
) -> List[int]:
    """The ranking of ``rank_candidate_columns``, one candidate at a time.

    ``position_of`` gives a candidate's playback position, or ``None``
    for a seed.
    """
    if seed_rank not in ("first", "random"):
        raise ValueError(f"unknown seed_rank {seed_rank!r}")
    candidates = list(candidates)
    watcher_distances = []
    positions = {}
    for peer in candidates:
        pos = position_of(peer)
        positions[peer] = pos
        if pos is not None:
            watcher_distances.append(abs(pos - joiner_position))
    max_distance = max(watcher_distances, default=1.0)
    keyed = []
    for peer in candidates:
        pos = positions[peer]
        if pos is None:
            if seed_rank == "first":
                distance = 0.0
            else:
                draw = rng.random() if rng is not None else (peer % 997) / 997.0
                distance = draw * max_distance
        else:
            distance = abs(pos - joiner_position)
        tiebreak = rng.random() if rng is not None else float(peer)
        keyed.append((distance, tiebreak, peer))
    keyed.sort()
    return [peer for _, __, peer in keyed]
