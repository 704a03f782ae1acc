"""A steady slot makes no per-peer Python calls.

Every online peer's playback and transfer state lives in the peer-state
store's columns, so a steady ``run_slot`` (no churn, ideal links) reads
and writes peers only with whole-column operations.  This guard
profiles three steady slots and fails if any function defined under
``repro.p2p`` or ``repro.vod`` — generator expressions included — was
called as many times as there are peers: the mark of a per-peer loop.
"""

from __future__ import annotations

import cProfile
import pathlib
import pstats

import pytest

import repro
from repro.p2p.config import SystemConfig
from repro.p2p.system import P2PSystem

PACKAGE = pathlib.Path(repro.__file__).resolve().parent
WATCHED = (PACKAGE / "p2p", PACKAGE / "vod")


def per_peer_functions(stagger: bool, **overrides):
    """``(n_peers, {function: calls})`` over three profiled steady slots."""
    config = SystemConfig.bench(seed=3, n_videos=3, isp_rollup=True, **overrides)
    system = P2PSystem(config)
    system.populate_static(300, stagger=stagger)
    for _ in range(2):  # warm-up: first builds, startup delay
        system.run_slot()
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(3):
        system.run_slot()
    profile.disable()
    n_peers = len(system.peers)
    hot = {}
    for (filename, line, name), stat in pstats.Stats(profile).stats.items():
        path = pathlib.Path(filename).resolve()
        calls = stat[1]
        if calls >= n_peers and any(w in path.parents for w in WATCHED):
            hot[f"{path.parent.name}/{path.name}:{line}:{name}"] = calls
    return n_peers, hot


@pytest.mark.parametrize(
    "stagger, overrides",
    [(True, {}), (False, {"warm_start_prices": True})],
    ids=["staggered", "synchronized-warm"],
)
def test_no_function_runs_once_per_peer(stagger, overrides):
    n_peers, hot = per_peer_functions(stagger, **overrides)
    assert not hot, f"called at least {n_peers} times in 3 slots: {hot}"
