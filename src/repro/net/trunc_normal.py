"""Truncated normal sampling for link costs.

Section V: "The inter-ISP link delay costs and intra-ISP link delay costs
follow truncated normal distributions.  The distribution of inter-ISP
link costs has a mean 5 and a standard variance 1, truncated within range
[1, 10].  The distribution of intra-ISP link cost has a mean 1 and a
standard variance 1, truncated within range [0, 2]."

Sampling uses the inverse-CDF method on the parent normal restricted to
``[low, high]`` so no rejection loop is needed and vectorized draws are
exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special, stats

__all__ = ["TruncatedNormal"]


@dataclass(frozen=True)
class TruncatedNormal:
    """A normal(mean, std) truncated to the closed interval [low, high].

    Example
    -------
    >>> dist = TruncatedNormal(mean=5.0, std=1.0, low=1.0, high=10.0)
    >>> samples = dist.sample(np.random.default_rng(0), size=1000)
    >>> bool((samples >= 1.0).all() and (samples <= 10.0).all())
    True
    """

    mean: float
    std: float
    low: float
    high: float

    def __post_init__(self) -> None:
        if self.std <= 0:
            raise ValueError(f"std must be positive, got {self.std!r}")
        if self.low >= self.high:
            raise ValueError(
                f"truncation range is empty: low={self.low!r} high={self.high!r}"
            )

    @property
    def _frozen(self) -> "stats.rv_continuous":
        a = (self.low - self.mean) / self.std
        b = (self.high - self.mean) / self.std
        return stats.truncnorm(a, b, loc=self.mean, scale=self.std)

    def _cdf_bounds(self) -> tuple:
        # Φ at the standardized truncation points; cached in __dict__
        # (legal on a frozen dataclass: bypasses __setattr__).
        cached = self.__dict__.get("_cdf_cache")
        if cached is None:
            a = (self.low - self.mean) / self.std
            b = (self.high - self.mean) / self.std
            cached = (float(special.ndtr(a)), float(special.ndtr(b)))
            self.__dict__["_cdf_cache"] = cached
        return cached

    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        """The samples that uniforms ``u`` in ``[0, 1)`` map to.

        The inverse CDF of the truncated normal, elementwise, implemented
        directly with ``ndtr``/``ndtri`` (no per-call scipy distribution
        object).  :meth:`sample` applies it to ``rng.random(size)``, so a
        caller that draws the uniforms itself gets the same samples.
        """
        cdf_low, cdf_high = self._cdf_bounds()
        z = special.ndtri(cdf_low + u * (cdf_high - cdf_low))
        samples = self.mean + self.std * np.asarray(z, dtype=float)
        return np.clip(samples, self.low, self.high)

    def sample(self, rng: np.random.Generator, size: int | tuple = 1) -> np.ndarray:
        """Draw samples via the inverse CDF of the truncated normal."""
        return self.from_uniform(rng.random(size))

    def pdf(self, x: np.ndarray) -> np.ndarray:
        """Probability density at ``x`` (zero outside the truncation range)."""
        return np.asarray(self._frozen.pdf(x), dtype=float)

    def expected_value(self) -> float:
        """Mean of the truncated distribution (not the parent mean)."""
        return float(self._frozen.mean())
