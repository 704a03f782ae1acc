"""Overlay neighbor graph.

The tracker bootstraps each joining peer "with a list of neighbors with
close playback positions" (Section V); the default neighbor count is 30.
:class:`OverlayGraph` maintains the undirected neighbor relation under
churn, and :func:`rank_candidates` implements the tracker's proximity
ranking (same video, close playback position, seeds always eligible).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set

import numpy as np

__all__ = ["OverlayGraph", "rank_candidates"]


def rank_candidates(
    position_of: Callable[[int], Optional[float]],
    joiner_position: float,
    candidates: Iterable[int],
    rng: Optional[np.random.Generator] = None,
    seed_rank: str = "first",
) -> List[int]:
    """Order ``candidates`` by closeness of playback position to the joiner.

    ``position_of`` returns a candidate's playback position, or ``None``
    for seed peers, which have no position.  ``seed_rank`` decides how
    seeds compete:

    * ``"first"`` — seeds rank ahead of all watchers (distance 0): every
      joiner is guaranteed the seeds if its neighbor budget allows.
    * ``"random"`` — seeds draw a uniform random rank among the watcher
      distances, modelling a tracker that ranks purely by advertised
      playback position (seeds advertise none).  With more candidates
      than neighbor slots, a joiner may then miss some (or all) seeds —
      the regime in which ISP-aware source selection actually matters.

    Ties are broken randomly when ``rng`` is given, else by peer id for
    determinism.  The result is the ``(distance, tiebreak, peer)`` order,
    and the random draws are one bulk call in per-candidate order (under
    ``"random"`` a seed draws its rank, then its tiebreak).
    """
    if seed_rank not in ("first", "random"):
        raise ValueError(f"unknown seed_rank {seed_rank!r}")
    ids = np.fromiter(candidates, dtype=np.int64)
    # A seed's position is None, which becomes NaN here.
    positions = np.array([position_of(p) for p in ids.tolist()], dtype=float)
    distance = np.abs(positions - joiner_position)
    seeds = np.isnan(distance)
    ranked = seeds if seed_rank == "random" else np.zeros_like(seeds)
    # Index of each candidate's first draw: one draw per earlier
    # candidate, plus one per earlier seed that drew a rank.
    first = np.arange(len(ids)) + np.cumsum(ranked) - ranked
    if rng is not None:
        draws = rng.random(len(ids) + int(ranked.sum()))
        tiebreak, seed_draw = draws[first + ranked], draws[first[ranked]]
    else:
        tiebreak, seed_draw = ids.astype(float), (ids[ranked] % 997) / 997.0
    if seed_rank == "first":
        distance[seeds] = 0.0
    else:
        watchers = distance[~seeds]
        distance[seeds] = seed_draw * (watchers.max() if watchers.size else 1.0)
    return ids[np.lexsort((ids, tiebreak, distance))].tolist()


class OverlayGraph:
    """Undirected neighbor relation with a soft degree target.

    ``degree_target`` is the number of neighbors the tracker aims to give
    each peer (paper default 30).  Accepting a link may push an existing
    peer slightly above target; the graph never silently drops links —
    churn handles pruning, as in real mesh overlays.
    """

    def __init__(self, degree_target: int = 30) -> None:
        if degree_target < 1:
            raise ValueError(f"degree_target must be >= 1, got {degree_target!r}")
        self.degree_target = int(degree_target)
        self._adj: Dict[int, Set[int]] = {}
        # Sorted int64 neighbor arrays, built lazily and invalidated on
        # any link change — the columnar slot pipeline reads these once
        # per peer per slot instead of copying the neighbor set.
        self._adj_arrays: Dict[int, np.ndarray] = {}
        #: Monotone counter bumped on every link/node mutation; cheap
        #: cache key for derived per-peer structures (slot pipeline).
        self.version = 0
        #: Peers whose link set changed since the last
        #: :meth:`consume_dirty` — the peer-state store invalidates only
        #: these candidate entries instead of sweeping every peer.
        self._dirty: Set[int] = set()
        #: Nodes currently below the degree target, maintained
        #: incrementally so the refill pass can skip a full scan.
        self._deficient: Set[int] = set()

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    def add_node(self, peer_id: int) -> None:
        """Register a peer with no neighbors yet (idempotent)."""
        if peer_id not in self._adj:
            self._adj[peer_id] = set()
            if self.degree_target > 0:
                self._deficient.add(peer_id)

    def remove_node(self, peer_id: int) -> Set[int]:
        """Remove a peer; returns the set of ex-neighbors that lost a link."""
        neighbors = self._adj.pop(peer_id, set())
        self._adj_arrays.pop(peer_id, None)
        self._dirty.add(peer_id)
        self._deficient.discard(peer_id)
        self.version += 1
        for other in neighbors:
            self._adj[other].discard(peer_id)
            self._adj_arrays.pop(other, None)
            self._dirty.add(other)
            if len(self._adj[other]) < self.degree_target:
                self._deficient.add(other)
        return neighbors

    def __contains__(self, peer_id: int) -> bool:
        return peer_id in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def nodes(self) -> Set[int]:
        return set(self._adj)

    # ------------------------------------------------------------------
    # Link management
    # ------------------------------------------------------------------
    def connect(self, a: int, b: int) -> None:
        """Create the undirected link a—b (idempotent; self-links rejected)."""
        if a == b:
            raise ValueError(f"self-link on peer {a!r}")
        self.add_node(a)
        self.add_node(b)
        self._adj[a].add(b)
        self._adj[b].add(a)
        self._adj_arrays.pop(a, None)
        self._adj_arrays.pop(b, None)
        self._dirty.add(a)
        self._dirty.add(b)
        for node in (a, b):
            if len(self._adj[node]) >= self.degree_target:
                self._deficient.discard(node)
        self.version += 1

    def disconnect(self, a: int, b: int) -> None:
        """Remove the link a—b if present."""
        for node, other in ((a, b), (b, a)):
            if node in self._adj:
                self._adj[node].discard(other)
                self._adj_arrays.pop(node, None)
                self._dirty.add(node)
                if len(self._adj[node]) < self.degree_target:
                    self._deficient.add(node)
        self.version += 1

    def set_degree_target(self, target: int) -> None:
        """Change the soft degree target mid-run (scenario locality cap).

        Links are untouched (so cached candidate tables stay valid); the
        deficient set is recomputed against the new target, which is what
        drives the next refill pass — raising the target makes peers
        hungry for more neighbors, lowering it stops further bootstraps
        without pruning existing links (churn thins them out, as in real
        mesh overlays).
        """
        if target < 1:
            raise ValueError(f"degree_target must be >= 1, got {target!r}")
        if target == self.degree_target:
            return
        self.degree_target = int(target)
        self._deficient = {
            node for node, adj in self._adj.items() if len(adj) < target
        }

    def consume_dirty(self) -> Set[int]:
        """Drain and return peers whose link set changed since last call."""
        dirty = self._dirty
        self._dirty = set()
        return dirty

    def deficient_nodes(self) -> Set[int]:
        """Live set of nodes below the degree target (do not mutate)."""
        return self._deficient

    def neighbors(self, peer_id: int) -> Set[int]:
        """A copy of the neighbor set of ``peer_id``."""
        return set(self._adj.get(peer_id, set()))

    def neighbor_array(self, peer_id: int) -> np.ndarray:
        """Sorted int64 array of ``peer_id``'s neighbors (cached view).

        The array is rebuilt lazily after link changes and shared across
        calls — callers must not mutate it.
        """
        cached = self._adj_arrays.get(peer_id)
        if cached is None:
            members = self._adj.get(peer_id)
            if members:
                cached = np.fromiter(members, dtype=np.int64, count=len(members))
                cached.sort()
            else:
                cached = np.empty(0, dtype=np.int64)
            self._adj_arrays[peer_id] = cached
        return cached

    def degree(self, peer_id: int) -> int:
        return len(self._adj.get(peer_id, set()))

    def wants_more(self, peer_id: int) -> bool:
        """Whether the peer is below its neighbor target."""
        return self.degree(peer_id) < self.degree_target

    def deficit(self, peer_id: int) -> int:
        """How many neighbors the peer is short of its target."""
        return max(0, self.degree_target - self.degree(peer_id))

    # ------------------------------------------------------------------
    # Bulk wiring
    # ------------------------------------------------------------------
    def bootstrap(self, peer_id: int, ranked_candidates: List[int]) -> List[int]:
        """Connect ``peer_id`` to candidates in rank order until the target.

        Returns the list of newly connected neighbors.
        """
        self.add_node(peer_id)
        connected = []
        for other in ranked_candidates:
            if self.degree(peer_id) >= self.degree_target:
                break
            if other == peer_id or other in self._adj[peer_id]:
                continue
            self.connect(peer_id, other)
            connected.append(other)
        return connected

    def edge_count(self) -> int:
        """Number of undirected links."""
        return sum(len(s) for s in self._adj.values()) // 2
