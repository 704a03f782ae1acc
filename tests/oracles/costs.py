"""Dict-based twin of :class:`repro.net.costs.CostModel`.

The production cost model keeps its pair cache as two sorted columns
and serves a whole build's lookups, one destination per source, with
one search and one ``rng.random`` call.  This is the model it replaced:
a dict keyed by ``(lo, hi)`` tuples, and :meth:`DictCostModel.costs_for_pairs`
takes one destination, so a batch over several destinations is one
call per run of equal destination.  Each call reads its hits, then
draws its misses: intra-ISP pairs first, then inter-ISP, each in source
order.  A departure sweeps the dict, and a price shock walks it.

One change from the replaced model: a source repeated within a call
draws once.  The replaced model drew once per repeat and threw the
extra draws away, which shifted every later cost.

The property suite pins the production columns against this model:
outputs, cache contents and the RNG state after every step.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
from scipy import special


def sample_one(dist, rng: np.random.Generator) -> float:
    """One draw of ``dist`` in scalar arithmetic (the replaced ``sample_one``)."""
    cdf_low, cdf_high = dist._cdf_bounds()
    u = cdf_low + rng.random() * (cdf_high - cdf_low)
    value = dist.mean + dist.std * float(special.ndtri(u))
    return float(min(dist.high, max(dist.low, value)))


class DictCostModel:
    """Same draws and cache as ``CostModel``, one pair at a time."""

    def __init__(self, topology, rng, inter, intra) -> None:
        self.topology = topology
        self.rng = rng
        self.inter = inter
        self.intra = intra
        self._cache: Dict[Tuple[int, int], float] = {}
        self._isp_scale: Dict[Tuple[int, int], float] = {}

    @classmethod
    def like(cls, model) -> "DictCostModel":
        """A fresh twin of a fresh ``CostModel`` (same topology and seed)."""
        rng = np.random.Generator(type(model.rng.bit_generator)())
        rng.bit_generator.state = model.rng.bit_generator.state
        return cls(model.topology, rng, model.inter, model.intra)

    def cost(self, src: int, dst: int) -> float:
        if src == dst:
            return 0.0
        key = self._key(src, dst)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        dist = self.intra if self._same_isp(src, dst) else self.inter
        value = sample_one(dist, self.rng)
        if self._isp_scale:
            value *= self._pair_scale(src, dst)
        self._cache[key] = value
        return value

    def costs_for_pairs(self, sources, dst: int) -> np.ndarray:
        """``w_{u→dst}`` for each source ``u``: hits first, then the draws."""
        src_list = np.asarray(sources, dtype=np.int64).tolist()
        dst = int(dst)
        out = np.empty(len(src_list), dtype=float)
        missing: Dict[Tuple[int, int], bool] = {}  # key -> is_intra, first seen
        for i, src in enumerate(src_list):
            if src == dst:
                out[i] = 0.0
                continue
            key = self._key(src, dst)
            cached = self._cache.get(key)
            if cached is None:
                missing.setdefault(key, self._same_isp(src, dst))
                out[i] = np.nan
            else:
                out[i] = cached
        if missing:
            n_intra = sum(1 for intra in missing.values() if intra)
            intra_draws = iter(
                self.intra.sample(self.rng, size=n_intra) if n_intra else ()
            )
            inter_draws = iter(
                self.inter.sample(self.rng, size=len(missing) - n_intra)
                if len(missing) > n_intra
                else ()
            )
            for key, intra in missing.items():
                value = float(next(intra_draws if intra else inter_draws))
                if self._isp_scale:
                    value *= self._pair_scale(key[0], key[1])
                self._cache[key] = value
            for i, src in enumerate(src_list):
                if np.isnan(out[i]):
                    out[i] = self._cache[self._key(src, dst)]
        return out

    def _same_isp(self, src: int, dst: int) -> bool:
        return self.topology.isp_of(src) == self.topology.isp_of(dst)

    def _pair_scale(self, src: int, dst: int) -> float:
        a = self.topology.isp_of(src)
        b = self.topology.isp_of(dst)
        if a > b:
            a, b = b, a
        return self._isp_scale.get((a, b), 1.0)

    def set_isp_pair_scale(self, isp_a: int, isp_b: int, scale: float) -> None:
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
        if factor == 1.0:
            return
        n = self.topology.n_isps
        ratios: Dict[Tuple[int, int], float] = {}
        for a in range(n):
            for b in range(a + 1, n):
                new = self._isp_scale.get((a, b), 1.0) * factor
                if new == 1.0:
                    self._isp_scale.pop((a, b), None)
                else:
                    self._isp_scale[(a, b)] = new
                ratios[(a, b)] = factor
        self._rescale_cached(ratios)

    def _rescale_cached(self, ratios: Dict[Tuple[int, int], float]) -> None:
        isp_of = self.topology.isp_of
        for pair, value in self._cache.items():
            a, b = sorted((isp_of(pair[0]), isp_of(pair[1])))
            ratio = ratios.get((a, b))
            if ratio is not None:
                self._cache[pair] = value * ratio

    def forget_peer(self, *peer_ids: int) -> int:
        gone = set(peer_ids)
        stale = [k for k in self._cache if k[0] in gone or k[1] in gone]
        for k in stale:
            del self._cache[k]
        return len(stale)

    def cached_pairs(self) -> Dict[Tuple[int, int], float]:
        """The cache as ``{(lo, hi): cost}``, ascending by pair."""
        return dict(sorted(self._cache.items()))

    @staticmethod
    def _key(src: int, dst: int) -> Tuple[int, int]:
        return (dst, src) if src > dst else (src, dst)
