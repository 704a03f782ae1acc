"""Tiny-scale checks of the slot benchmark itself.

Every workload runs at unit-test size in both modes.  A renamed or
rebound public function makes a hook fail to resolve or record no call,
so a layer metric cannot silently drop to zero.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import layertrace  # noqa: E402
import slotbench  # noqa: E402

NAMES = sorted(slotbench.WORKLOADS)


def _calls_per_layer(record: dict) -> dict:
    counts = np.bincount(record["spans"]["layer"], minlength=len(layertrace.LAYERS))
    return dict(zip(layertrace.LAYERS, counts.tolist()))


@pytest.fixture(scope="module", params=NAMES)
def traced(request):
    workload = slotbench.tiny(slotbench.WORKLOADS[request.param])
    return workload, slotbench.run(workload, seed=3, seconds=0.0, trace=1)


def test_every_hook_resolves_on_a_live_system(traced):
    workload, _ = traced
    system = workload.build(seed=3)
    hooked = {layer for layer, _, _ in layertrace.resolve_hooks(system)}
    assert hooked == set(layertrace.LAYERS)


def test_active_layers_record_calls(traced):
    workload, out = traced
    assert out.correct, out.errors
    assert out.failed == 0 and out.attempted >= slotbench.TRACED_MIN_SLOTS
    calls = _calls_per_layer(out.record)
    silent = sorted(layer for layer in workload.active if calls[layer] == 0)
    assert not silent, f"{workload.name}: no calls recorded for {silent}"


def test_idle_layers_stay_idle_without_churn(traced):
    workload, out = traced
    if workload.churn:
        pytest.skip("every layer is active under churn")
    calls = _calls_per_layer(out.record)
    for layer in ("state.churn", "costs.forget", "tracker", "link", "retry"):
        assert calls[layer] == 0, layer


def test_self_times_add_up_to_the_slot(traced):
    _, out = traced
    shares = sum(
        out.metrics[f"{layer}.share"][0] for layer in layertrace.LAYERS
    )
    assert shares == pytest.approx(1.0, abs=1e-9)
    assert set(out.metrics) == set(slotbench.PER_LAYER)


def test_hooks_are_removed_after_the_run():
    workload = slotbench.tiny(slotbench.WORKLOADS["churn-lossy-3k"])
    system = workload.build(seed=1)
    recorder = layertrace.SpanRecorder(on_solve=lambda *a: None)
    recorder.install(system)
    assert "run_slot" in vars(system)
    workload.run_slot(system)
    recorder.uninstall()
    for _, owner, name in layertrace.resolve_hooks(system):
        assert name not in vars(owner), name
    assert len(recorder) > 0


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_is_deterministic(name):
    workload = slotbench.tiny(slotbench.WORKLOADS[name])
    a = slotbench.run(workload, seed=5, seconds=0.0, trace=0)
    b = slotbench.run(workload, seed=5, seconds=0.0, trace=0)
    assert a.correct and b.correct, a.errors + b.errors
    assert a.record["digest"] == b.record["digest"]
    assert set(a.metrics) == set(slotbench.E2E)
    for key in ("on_time_ratio", "inter_isp_share", "welfare_per_slot"):
        assert a.metrics[key] == b.metrics[key]
    assert a.record["passes"] >= workload.passes


def test_host_clock_scales_each_call_by_the_kernel_around_it():
    clock = hostspeed.HostClock()
    result, raw, scaled = clock.time(sum, [1, 2])
    assert result == 3 and raw > 0
    before, after = clock.kernel
    assert scaled == pytest.approx(
        raw * hostspeed.REFERENCE_S * 2 / (before + after)
    )


def test_tail_percentile_leaves_ten_samples_beyond():
    values = list(range(40))
    value, pct = slotbench.tail(values)
    assert value == 29 and pct == 75.0
    assert slotbench.tail([3.0, 1.0]) == (3.0, 100.0)


def test_slot_identities_catch_broken_metrics():
    from repro.metrics.collectors import SlotMetrics

    good = SlotMetrics(
        time=0.0, n_peers=3, n_requests=5, n_served=4, welfare=1.0,
        inter_isp_chunks=1, intra_isp_chunks=2, chunks_due=3,
        chunks_missed=0, transfers_failed=2, retry_succeeded=1,
    )
    assert slotbench.slot_identity_errors(good) == []
    bad = SlotMetrics(
        time=0.0, n_peers=3, n_requests=5, n_served=6, welfare=1.0,
        inter_isp_chunks=1, intra_isp_chunks=2, chunks_due=3,
        chunks_missed=4,
    )
    assert len(slotbench.slot_identity_errors(bad)) == 3


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(slotbench.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert e2e == slotbench.E2E
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layers == slotbench.PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns(
        "__pycache__", "out"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
