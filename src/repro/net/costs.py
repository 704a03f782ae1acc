"""Pairwise network-cost model ``w_{u→d}``.

The paper uses network latency as the cost and samples it from truncated
normals: inter-ISP ~ TN(μ=5, σ=1, [1, 10]) and intra-ISP
~ TN(μ=1, σ=1, [0, 2]).  Costs are per peer pair; we sample lazily on
first query (peers churn, so a static matrix would not do) and cache so
the same pair always sees the same cost within a run.

Costs are symmetric, ``w_{u→d} = w_{d→u}``: the unordered pair shares
one draw, consistent with interpreting the cost as the latency of the
link between the two peers.

The cache is two columns: the unordered pairs packed as
``lo << 32 | hi`` in ascending order, and their costs.  So peer ids
must lie in ``[0, 2**31)``.  A batch of lookups is one ``searchsorted``,
a departure batch one mask over the two key halves, and a price shock
one multiply by a table of ISP-pair ratios.  New pairs are drawn in the
order :meth:`CostModel.costs_for_pairs` states, from one ``rng.random``
call per batch.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from .isp import ISPTopology
from .trunc_normal import TruncatedNormal

__all__ = ["CostModel", "PAPER_INTER_ISP_COST", "PAPER_INTRA_ISP_COST"]

#: Paper defaults (Section V).
PAPER_INTER_ISP_COST = TruncatedNormal(mean=5.0, std=1.0, low=1.0, high=10.0)
PAPER_INTRA_ISP_COST = TruncatedNormal(mean=1.0, std=1.0, low=0.0, high=2.0)

#: The low 32 bits of a packed pair key: the pair's larger id.
_LOW = np.int64((1 << 32) - 1)


class CostModel:
    """Lazy, cached sampler of pairwise network costs.

    Parameters
    ----------
    topology:
        The one record of each peer's ISP, deciding which distribution
        applies; a cached pair's ends stay placed until :meth:`forget_peer`.
    rng:
        Source of randomness for the cost draws.
    inter, intra:
        Truncated-normal distributions for cross-ISP and same-ISP pairs.
    """

    def __init__(
        self,
        topology: ISPTopology,
        rng: np.random.Generator,
        inter: TruncatedNormal = PAPER_INTER_ISP_COST,
        intra: TruncatedNormal = PAPER_INTRA_ISP_COST,
    ) -> None:
        self.topology = topology
        self.rng = rng
        self.inter = inter
        self.intra = intra
        # The cache: packed pairs ``lo << 32 | hi``, ascending, and
        # their costs.  Both arrays are replaced when pairs come or go.
        self._keys = np.empty(0, dtype=np.int64)
        self._vals = np.empty(0, dtype=float)
        # Per-ISP-pair price multipliers (scenario engine: transit-price
        # shocks, asymmetric transit regimes), symmetric: ``[a, b]``
        # scales the costs between ISPs a and b, ``[i, i]`` ISP i's
        # intra-ISP costs.  Applied at sample time; setting a scale also
        # rescales the cached costs, so every lookup stays consistent.
        n = topology.n_isps
        self._isp_scale = np.ones((n, n))

    # ------------------------------------------------------------------
    # Cost queries
    # ------------------------------------------------------------------
    def cost(self, src: int, dst: int) -> float:
        """Network cost ``w_{src→dst}`` of sending one chunk from src to dst."""
        if src == dst:
            return 0.0
        if (src | dst) >> 31:
            raise ValueError(f"peer ids must lie in [0, 2**31): {src}, {dst}")
        key = (src << 32 | dst) if src < dst else (dst << 32 | src)
        keys = self._keys
        i = keys.searchsorted(key)
        if i < len(keys) and keys[i] == key:
            return float(self._vals[i])
        return float(self.costs_for_pairs((src,), dst)[0])

    def costs_for_pairs(self, sources, dsts) -> np.ndarray:
        """Bulk :meth:`cost`: ``w_{sources[i]→dsts[i]}``, one destination each.

        ``dsts`` may be one destination for every source.  Cached pairs
        are read by one search, and a self pair costs 0.  A pair not yet
        cached is drawn once, in the first *run* (stretch of equal
        consecutive destinations) that holds it.  Within that run the
        intra-ISP pairs take the first draws and the inter-ISP pairs the
        next, each in source order; a later run reads the cache.  That
        is exactly what one call per run would draw, and one
        ``rng.random`` call takes all the draws.
        """
        src = np.asarray(sources, dtype=np.int64)
        dst = np.broadcast_to(np.asarray(dsts, dtype=np.int64), src.shape)
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        if len(lo) and (lo.min() < 0 or hi.max() >= 2**31):
            raise ValueError("peer ids must lie in [0, 2**31)")
        keys = (lo << 32) | hi
        pos = np.searchsorted(self._keys, keys)
        found = pos < len(self._keys)
        found[found] = self._keys[pos[found]] == keys[found]
        out = np.zeros(len(keys))
        out[found] = self._vals[pos[found]]
        miss = np.flatnonzero(~found & (lo != hi))
        if len(miss):
            out[miss] = self._draw(keys, miss, dst)
        return out

    def _draw(self, keys: np.ndarray, miss: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Draw and cache the pairs ``keys[miss]``; returns their costs.

        ``miss`` holds the positions, ascending, of pairs not cached;
        the draw order is the one :meth:`costs_for_pairs` states.
        """
        new, first, inverse = np.unique(
            keys[miss], return_index=True, return_inverse=True
        )
        at = miss[first]
        isp_lo = self.topology.isps_of(new >> 32)
        isp_hi = self.topology.isps_of(new & _LOW)
        inter = isp_lo != isp_hi
        run_starts = np.flatnonzero(dst[1:] != dst[:-1]) + 1
        run = np.searchsorted(run_starts, at, side="right")
        u = np.empty(len(new))
        u[np.lexsort((at, inter, run))] = self.rng.random(len(new))
        values = np.where(
            inter, self.inter.from_uniform(u), self.intra.from_uniform(u)
        )
        values *= self._isp_scale[isp_lo, isp_hi]
        slot = np.searchsorted(self._keys, new)
        self._keys = np.insert(self._keys, slot, new)
        self._vals = np.insert(self._vals, slot, values)
        return values[inverse]

    # ------------------------------------------------------------------
    # Mid-run price regimes (scenario engine hooks)
    # ------------------------------------------------------------------
    def isp_pair_scale(self, isp_a: int, isp_b: int) -> float:
        """Current multiplier on costs between ``isp_a`` and ``isp_b``."""
        return float(self._isp_scale[isp_a, isp_b])

    def set_isp_pair_scale(self, isp_a: int, isp_b: int, scale: float) -> None:
        """Set the price multiplier between two ISPs (``a == b``: intra).

        Models an ISP transit-price change: *future* samples of matching
        pairs are multiplied by ``scale``, and already-cached pair costs
        are rescaled in place from their previous multiplier — so the
        whole cost surface jumps consistently at the instant of the
        change, with no random draws consumed (determinism: a price
        shock never perturbs the cost trajectory of unrelated pairs).
        """
        if scale <= 0:
            raise ValueError(f"cost scale must be positive, got {scale!r}")
        old = self.isp_pair_scale(isp_a, isp_b)
        if scale == old:
            return
        ratio = np.ones_like(self._isp_scale)
        ratio[isp_a, isp_b] = ratio[isp_b, isp_a] = scale / old
        self._isp_scale[isp_a, isp_b] = self._isp_scale[isp_b, isp_a] = scale
        self._rescale_cached(ratio)

    def scale_inter_costs(self, factor: float) -> None:
        """Multiply every cross-ISP price by ``factor`` (global shock)."""
        if factor <= 0:
            raise ValueError(f"cost scale must be positive, got {factor!r}")
        if factor == 1.0:
            return
        inter = ~np.eye(len(self._isp_scale), dtype=bool)
        self._isp_scale[inter] *= factor
        self._rescale_cached(np.where(inter, float(factor), 1.0))

    def _rescale_cached(self, ratio: np.ndarray) -> None:
        """Multiply each cached cost by its ISP pair's entry of ``ratio``."""
        if len(self._keys):
            isp_lo = self.topology.isps_of(self._keys >> 32)
            isp_hi = self.topology.isps_of(self._keys & _LOW)
            self._vals *= ratio[isp_lo, isp_hi]

    def as_cost_fn(self) -> Callable[[int, int], float]:
        """The model as a plain ``(src, dst) -> float`` callable."""
        return self.cost

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def forget_peer(self, *peer_ids: int) -> int:
        """Drop cached entries involving any of the departed peers.

        One mask over the two key halves however many ids are given, so
        a slot's whole departure batch costs one sweep.  Returns the
        number of entries evicted.  Keeping the cache tight matters in
        long churn runs (arrival rate 1/s over hundreds of seconds).
        """
        if not peer_ids or not len(self._keys):
            return 0
        gone = np.asarray(peer_ids, dtype=np.int64)
        drop = np.isin(self._keys >> 32, gone)
        drop |= np.isin(self._keys & _LOW, gone)
        evicted = int(np.count_nonzero(drop))
        if evicted:
            keep = ~drop
            self._keys = self._keys[keep]
            self._vals = self._vals[keep]
        return evicted

    def cache_size(self) -> int:
        """Number of cached pair costs."""
        return len(self._keys)

    def cached_pairs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cache as ``(lo, hi, cost)`` columns, ascending by pair (copies)."""
        return self._keys >> 32, self._keys & _LOW, self._vals.copy()
