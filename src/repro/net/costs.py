"""Pairwise network-cost model ``w_{u→d}``.

The paper uses network latency as the cost and samples it from truncated
normals: inter-ISP ~ TN(μ=5, σ=1, [1, 10]) and intra-ISP
~ TN(μ=1, σ=1, [0, 2]).  Costs are per peer pair; we sample lazily on
first query (peers churn, so a static matrix would not do) and cache so
the same pair always sees the same cost within a run.

``symmetric=True`` (the default) gives ``w_{u→d} = w_{d→u}``, consistent
with interpreting the cost as the latency of the link between the two
peers.  Asymmetric mode samples each direction independently — useful
for stress-testing the auction, which never assumes symmetry.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Tuple

import numpy as np

from .isp import ISPTopology
from .trunc_normal import TruncatedNormal

__all__ = ["CostModel", "PAPER_INTER_ISP_COST", "PAPER_INTRA_ISP_COST"]

#: Paper defaults (Section V).
PAPER_INTER_ISP_COST = TruncatedNormal(mean=5.0, std=1.0, low=1.0, high=10.0)
PAPER_INTRA_ISP_COST = TruncatedNormal(mean=1.0, std=1.0, low=0.0, high=2.0)


class CostModel:
    """Lazy, cached sampler of pairwise network costs.

    Parameters
    ----------
    topology:
        The ISP membership map deciding which distribution applies.
    rng:
        Source of randomness for the cost draws.
    inter, intra:
        Truncated-normal distributions for cross-ISP and same-ISP pairs.
    symmetric:
        If ``True`` the unordered pair shares one draw.
    """

    def __init__(
        self,
        topology: ISPTopology,
        rng: np.random.Generator,
        inter: TruncatedNormal = PAPER_INTER_ISP_COST,
        intra: TruncatedNormal = PAPER_INTRA_ISP_COST,
        symmetric: bool = True,
    ) -> None:
        self.topology = topology
        self.rng = rng
        self.inter = inter
        self.intra = intra
        self.symmetric = symmetric
        self._cache: Dict[Tuple[int, int], float] = {}
        # Per-ISP-pair price multipliers (scenario engine: transit-price
        # shocks, asymmetric transit regimes).  Keyed by the sorted
        # (isp_a, isp_b) pair — (i, i) scales ISP i's intra-ISP costs.
        # Applied at sample time; setting a scale also rescales the
        # already-cached pair costs, so both the lazy per-pair path and
        # the bulk path keep returning consistent values.
        self._isp_scale: Dict[Tuple[int, int], float] = {}

    # ------------------------------------------------------------------
    # Cost queries
    # ------------------------------------------------------------------
    def cost(self, src: int, dst: int) -> float:
        """Network cost ``w_{src→dst}`` of sending one chunk from src to dst."""
        if src == dst:
            return 0.0
        key = self._key(src, dst)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        dist = self.intra if self.topology.same_isp(src, dst) else self.inter
        value = dist.sample_one(self.rng)
        if self._isp_scale:
            value *= self._pair_scale(src, dst)
        self._cache[key] = value
        return value

    def costs_from(self, sources: Iterable[int], dst: int) -> np.ndarray:
        """Vector of costs ``w_{u→dst}`` for each ``u`` in ``sources``."""
        return np.array([self.cost(src, dst) for src in sources], dtype=float)

    def costs_for_pairs(self, sources, dst: int) -> np.ndarray:
        """Bulk :meth:`cost`: ``w_{u→dst}`` for an array of sources.

        Cache hits are read in one pass; the (rare after warm-up)
        missing pairs are sampled in two bulk truncated-normal draws —
        intra-ISP pairs first, then inter-ISP, each in source order —
        instead of one scipy round-trip per pair.  Per-pair values are
        cached exactly like :meth:`cost`, so mixing the two APIs is safe.
        """
        src_list = np.asarray(sources, dtype=np.int64).tolist()
        dst = int(dst)
        out = np.empty(len(src_list), dtype=float)
        cache = self._cache
        missing: list = []  # (position, key, is_intra)
        for i, src in enumerate(src_list):
            if src == dst:
                out[i] = 0.0
                continue
            key = self._key(src, dst)
            cached = cache.get(key)
            if cached is None:
                missing.append((i, key, self.topology.same_isp(src, dst)))
                out[i] = np.nan
            else:
                out[i] = cached
        if missing:
            n_intra = sum(1 for _, _, intra in missing if intra)
            intra_draws = iter(
                self.intra.sample(self.rng, size=n_intra) if n_intra else ()
            )
            inter_draws = iter(
                self.inter.sample(self.rng, size=len(missing) - n_intra)
                if len(missing) > n_intra
                else ()
            )
            for i, key, intra in missing:
                value = cache.get(key)  # duplicate source in this batch
                if value is None:
                    value = float(next(intra_draws if intra else inter_draws))
                    if self._isp_scale:
                        value *= self._pair_scale(key[0], key[1])
                    cache[key] = value
                out[i] = value
        return out

    # ------------------------------------------------------------------
    # Mid-run price regimes (scenario engine hooks)
    # ------------------------------------------------------------------
    def _pair_scale(self, src: int, dst: int) -> float:
        """Current price multiplier for the peer pair ``(src, dst)``."""
        a = self.topology.isp_of(src)
        b = self.topology.isp_of(dst)
        if a > b:
            a, b = b, a
        return self._isp_scale.get((a, b), 1.0)

    def isp_pair_scale(self, isp_a: int, isp_b: int) -> float:
        """Current multiplier on costs between ``isp_a`` and ``isp_b``."""
        key = (isp_a, isp_b) if isp_a <= isp_b else (isp_b, isp_a)
        return self._isp_scale.get(key, 1.0)

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
        key = (isp_a, isp_b) if isp_a <= isp_b else (isp_b, isp_a)
        old = self._isp_scale.get(key, 1.0)
        if scale == old:
            return
        if scale == 1.0:
            del self._isp_scale[key]
        else:
            self._isp_scale[key] = float(scale)
        self._rescale_cached({key: scale / old})

    def scale_inter_costs(self, factor: float) -> None:
        """Multiply every cross-ISP price by ``factor`` (global shock)."""
        if factor <= 0:
            raise ValueError(f"cost scale must be positive, got {factor!r}")
        if factor == 1.0:
            return
        n = self.topology.n_isps
        ratios: Dict[Tuple[int, int], float] = {}
        for a in range(n):
            for b in range(a + 1, n):
                old = self._isp_scale.get((a, b), 1.0)
                new = old * factor
                if new == 1.0:
                    self._isp_scale.pop((a, b), None)
                else:
                    self._isp_scale[(a, b)] = new
                ratios[(a, b)] = factor
        self._rescale_cached(ratios)

    def _rescale_cached(self, ratios: Dict[Tuple[int, int], float]) -> None:
        """Multiply cached pair costs whose ISP pair appears in ``ratios``."""
        if not self._cache or not ratios:
            return
        isp_of = self.topology.isp_of
        for pair, value in self._cache.items():
            a = isp_of(pair[0])
            b = isp_of(pair[1])
            if a > b:
                a, b = b, a
            ratio = ratios.get((a, b))
            if ratio is not None:
                self._cache[pair] = value * ratio

    def is_inter_isp(self, src: int, dst: int) -> bool:
        """Whether a transfer src→dst crosses an ISP boundary."""
        return not self.topology.same_isp(src, dst)

    def as_cost_fn(self) -> Callable[[int, int], float]:
        """The model as a plain ``(src, dst) -> float`` callable."""
        return self.cost

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def forget_peer(self, *peer_ids: int) -> int:
        """Drop cached entries involving any of the departed peers.

        One pass over the cache however many ids are given, so a slot's
        whole departure batch costs one sweep.  Returns the number of
        entries evicted.  Keeping the cache tight matters in long churn
        runs (arrival rate 1/s over hundreds of seconds).
        """
        gone = set(peer_ids)
        stale = [k for k in self._cache if k[0] in gone or k[1] in gone]
        for k in stale:
            del self._cache[k]
        return len(stale)

    def cache_size(self) -> int:
        """Number of cached pair costs."""
        return len(self._cache)

    def matrix(self, peers: list[int]) -> np.ndarray:
        """Dense cost matrix over ``peers`` (diagonal zero).

        Row ``i``, column ``j`` holds ``w_{peers[i]→peers[j]}``.  Used by
        tests and the exact solvers; the auction itself only ever touches
        costs on candidate edges.
        """
        n = len(peers)
        out = np.zeros((n, n), dtype=float)
        for i, u in enumerate(peers):
            for j, d in enumerate(peers):
                if i != j:
                    out[i, j] = self.cost(u, d)
        return out

    def _key(self, src: int, dst: int) -> Tuple[int, int]:
        if self.symmetric and src > dst:
            return (dst, src)
        return (src, dst)
