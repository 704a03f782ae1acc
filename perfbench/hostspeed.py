"""Host-speed calibration for timings made on a shared machine.

A shared host's speed wanders by 10-50% over seconds to minutes, and a
run of the benchmark cannot wait that out.  So a fixed reference kernel
-- numpy sorts, gathers and bincounts over a few MB plus a Python dict
loop, the same mix of work a slot does, and no code of the program --
is timed right before and right after every timed operation.  An
operation's time is reported at the reference speed::

    scaled = raw * REFERENCE_S / mean(kernel before, kernel after)

A change to the program cannot move the kernel, so it moves the scaled
time as much as the raw one; a slower host moves both the operation and
the kernel, and the ratio cancels it.  Raw times stay in the records.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Median kernel time on the reference host (2-core Intel Xeon VM,
#: Python 3.11, numpy 2.4), so scaled times read as seconds there.
REFERENCE_S = 0.068

_N = 300_000
_rng = np.random.default_rng(20261)
_KEYS = _rng.integers(0, 5_000, _N)
_VALS = _rng.random(_N)
_TABLE = _rng.random(2_000_000)
_GATHER = _rng.integers(0, len(_TABLE), _N)
_PY_KEYS = _KEYS[:40_000].tolist()


def kernel_s() -> float:
    """Seconds one pass of the reference kernel takes right now."""
    t0 = perf_counter()
    order = np.argsort(_KEYS, kind="stable")
    v = _VALS[order] + _TABLE[_GATHER]
    np.cumsum(v)
    np.bincount(_KEYS, weights=v, minlength=5_000)
    np.unique(_KEYS[v > 1.0])
    counts = {}
    for i, k in enumerate(_PY_KEYS):
        counts[k] = counts.get(k, 0) + i
    sorted(counts.items(), key=lambda kv: kv[1])
    return perf_counter() - t0


class HostClock:
    """Times operations and scales each by the kernel around it."""

    def __init__(self) -> None:
        kernel_s()  # first call pays for lazy allocations
        self._last = kernel_s()
        self.kernel: list = [self._last]

    def time(self, fn, *args):
        """``(result, raw seconds, scaled seconds)`` of ``fn(*args)``.

        The kernel sample after the call is the next call's sample
        before it.  If ``fn`` raises, the exception propagates.
        """
        before = self._last
        t0 = perf_counter()
        result = fn(*args)
        raw = perf_counter() - t0
        self._last = kernel_s()
        self.kernel.append(self._last)
        return result, raw, raw * REFERENCE_S * 2.0 / (before + self._last)
