"""Tier-1-safe smoke test for the slot-pipeline benchmark harness.

Runs every scenario of the matrix at tiny scale (few peers, one slot,
one repeat) so the harness itself cannot rot: scenario configs must
build, both construction paths must agree, the solvers must agree within
``n·ε``, and the report must carry every field the JSON consumers read.
No file is written.  Two real ``static-small`` runs additionally gate
the acceptance bars of the performance PRs: vectorized apply ≥ 3×,
batched playback ≥ 2×, the event-driven frontier solve ≥ 2× over the
padded-dense seed path, and ``build_problem`` ≥ 2× over the cold
per-group assembler.
"""

from __future__ import annotations

import pytest

import bench_slot_pipeline as bench

TINY_SUMMARY_FIELDS = [
    "n_peers", "slots", "n_requests_mean", "n_edges_mean",
    "reference_measured",
    "build_old_s", "build_new_s", "build_speedup",
    "build_delta_s", "delta_speedup",
    "solve_old_s", "solve_new_s", "solve_speedup",
    "slot_old_s", "slot_new_s", "slot_speedup",
    "slot_delta_s", "slot_delta_speedup",
    "apply_old_s", "apply_s", "apply_speedup",
    "playback_old_s", "playback_s", "playback_speedup",
    "welfare_gap_max", "n_eps_bound", "welfare_within_n_eps",
]


@pytest.fixture(scope="module")
def tiny_specs():
    """Every scenario shrunk to smoke size (preserving churn/overrides)."""
    specs = {}
    for name, spec in bench.SCENARIOS.items():
        tiny = dict(spec)
        tiny["n_peers"] = 30
        tiny["slots"] = 1
        specs[name] = tiny
    return specs


@pytest.fixture(scope="module")
def static_small_summary():
    """One real 200-peer static-small run shared by the gate tests."""
    return bench.bench_scenario(
        "static-small", bench.SCENARIOS["static-small"], seed=0,
        slots=2, verbose=False, repeats=3,
    )


@pytest.mark.parametrize("name", sorted(bench.SCENARIOS))
def test_scenario_smoke(name, tiny_specs):
    spec = tiny_specs[name]
    summary = bench.bench_scenario(
        name, spec, seed=1, verbose=False, repeats=1
    )
    for field in TINY_SUMMARY_FIELDS:
        assert field in summary, field
    assert summary["slots"] == 1
    assert summary["n_requests_mean"] > 0
    assert summary["build_new_s"] > 0 and summary["solve_new_s"] > 0
    if spec.get("reference", True):
        assert summary["reference_measured"]
        assert summary["build_old_s"] > 0 and summary["solve_old_s"] > 0
        # Old and columnar paths agree within the theorem bound.
        assert summary["welfare_within_n_eps"]
    else:
        # Reference-free tier (the 10k scenarios): seed-path columns are
        # absent by design, columnar columns must still be complete.
        assert not summary["reference_measured"]
        for field in ("build_old_s", "solve_old_s", "apply_old_s",
                      "playback_old_s", "welfare_gap_max",
                      "welfare_within_n_eps", "solve_speedup"):
            assert summary[field] is None, field
        assert summary["apply_s"] > 0 and summary["playback_s"] > 0
    if spec["gauss_seidel"]:
        assert summary["gauss_seidel_gap_max"] is not None
        assert summary["gauss_seidel_gap_max"] <= summary["n_eps_bound"] + 1e-6


def test_apply_phase_speedup_static_small(static_small_summary):
    """Vectorized apply ≥ 3× and store playback ≥ 2× over the loops.

    Runs the real ``static-small`` scenario (200 peers — big enough for
    a stable ratio, small enough for tier-1) with min-of-3 timings and
    asserts the acceptance bars of the array-native epilogue PR and,
    conservatively, of the peer-state-store PR (the full ≥3× playback
    bar is checked at 2k peers by ``make bench``, where the batch is
    large enough to be noise-free).
    """
    summary = static_small_summary
    assert summary["apply_old_s"] > 0 and summary["apply_s"] > 0
    assert summary["apply_speedup"] >= 3.0, summary["apply_speedup"]
    assert summary["playback_s"] > 0 and summary["playback_old_s"] > 0
    assert summary["playback_speedup"] >= 2.0, summary["playback_speedup"]


def test_delta_build_speedup_static_small(static_small_summary):
    """``build_problem`` ≥ 2× over the cold per-group assembler.

    The acceptance smoke gate of the cross-slot delta build: the one
    build (packed-word availability, spliced candidate CSR,
    requested-cell valuations) must beat the cold assembler kept in
    ``tests/oracles/assemble.py`` even at 200 peers, where numpy fixed
    costs weigh heaviest.  Both are timed min-of-3 on the same store
    state, and byte-identity of the two problems is asserted inside
    ``bench_scenario`` itself on every measured slot.
    """
    summary = static_small_summary
    assert summary["build_delta_s"] > 0
    assert summary["delta_speedup"] >= 2.0, summary["delta_speedup"]
    assert summary["slot_delta_s"] > 0
    assert summary["slot_delta_speedup"] is not None


def test_solve_phase_speedup_static_small(static_small_summary):
    """Event-driven frontier solve ≥ 2× over the seed's padded-dense path.

    The acceptance bar of the frontier-solver PR, checked at tier-1
    scale (the full bar at 2k peers is tracked by ``make bench``).
    """
    summary = static_small_summary
    assert summary["solve_old_s"] > 0 and summary["solve_new_s"] > 0
    assert summary["solve_speedup"] >= 2.0, summary["solve_speedup"]


def test_run_writes_report(tmp_path, monkeypatch):
    monkeypatch.setitem(
        bench.SCENARIOS,
        "static-small",
        dict(bench.SCENARIOS["static-small"], n_peers=25, slots=1),
    )
    out = tmp_path / "bench.json"
    report = bench.run(
        ["static-small"], seed=2, slots=1, output=out, verbose=False
    )
    assert out.exists()
    assert report["benchmark"] == "slot_pipeline"
    assert "static-small" in report["scenarios"]


def test_xl_tier_listed():
    """The 5k/10k tier names resolve to scenarios (make bench-xl)."""
    for name in bench.XL_SCENARIOS:
        assert name in bench.SCENARIOS
    assert bench.SCENARIOS["static-xlarge"]["n_peers"] >= 10_000
    assert not bench.SCENARIOS["static-xlarge"].get("reference", True)
    assert "static-large" in bench.DEFAULT_SCENARIOS


def test_xxl_tier_listed():
    """The 50k scaling-curve tier resolves (make bench-xxl)."""
    for name in bench.XXL_SCENARIOS:
        assert name in bench.SCENARIOS
    assert bench.SCENARIOS["static-xxl"]["n_peers"] >= 50_000
    assert not bench.SCENARIOS["static-xxl"].get("reference", True)
    # The curve spans the 5k → 10k → 50k anchors.
    sizes = [bench.SCENARIOS[n]["n_peers"] for n in bench.XXL_SCENARIOS]
    assert sizes == sorted(sizes) and len(sizes) >= 3


def test_legacy_dense_matches_library_dense():
    """The archived seed expansion must stay equivalent to dense()."""
    import numpy as np

    from repro.core.problem import random_problem

    p = random_problem(np.random.default_rng(3), n_requests=20, n_uploaders=5)
    a = bench.legacy_dense(p)
    b = p.dense()
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.uploader_index, b.uploader_index)
    assert np.array_equal(a.uploaders, b.uploaders)
    assert np.array_equal(a.capacity, b.capacity)
