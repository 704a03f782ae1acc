"""End-to-end tracing smoke: schema-valid spans, determinism, overhead.

This is the ``make trace-smoke`` tier-1 gate: a tiny scenario runs with
tracing on and every emitted span must validate against the schema; a
JSONL round trip must reproduce the records exactly; and — the promise
that lets instrumentation stay compiled-in — running *without* a tracer
must cost the same as running with a disabled one, pinned with a
min-of-k interleaved timing comparison so scheduler noise cancels.
The slot's timed phases plus ``other_s`` must account for all of
``slot_s``, on a churning, lossy run with the per-ISP rollup on.
"""

from __future__ import annotations

from time import perf_counter

import pytest

from obs_support import traced_run

from repro.obs import (
    JsonlTraceSink,
    MemoryTraceSink,
    NullTraceSink,
    canonical_line,
    load_trace,
    validate_trace_record,
)
from repro.p2p.config import SystemConfig
from repro.p2p.system import P2PSystem


class TestSpanContent:
    def test_every_span_validates(self):
        records, _ = traced_run(seed=3, n_slots=4)
        assert len(records) == 4
        for record in records:
            validate_trace_record(record)

    def test_slots_and_time_advance(self):
        records, system = traced_run(seed=3, n_slots=4)
        assert [r["slot"] for r in records] == [0, 1, 2, 3]
        times = [r["time"] for r in records]
        assert times == sorted(times)
        assert records[-1]["n_peers"] == len(system.peers)

    def test_build_counters_show_the_splice(self):
        """The first build reads every segment; later ones splice.

        On a churning run (two bid rounds a slot, so every slot builds
        twice), churn invalidates candidate tables that some later slot
        must re-read, and every slot after the first reuses cached
        segments.
        """
        config = SystemConfig.tiny(
            seed=3,
            bid_rounds_per_slot=2,
            arrival_rate_per_s=0.5,
            early_departure_prob=0.5,
        )
        system = P2PSystem(config)
        system.populate_static(20)
        tracer = system.attach_tracer(MemoryTraceSink())
        for _ in range(4):
            system.run_slot(churn=True, remove_finished=True)
        system.close()
        records = tracer.records()
        assert records[0]["build"]["rebuilt"] > 0  # no cache yet
        assert sum(r["departures"] for r in records) > 0
        assert any(r["build"]["rebuilt"] for r in records[1:])
        assert all(r["build"]["reused"] for r in records[1:])


class TestPhaseAttribution:
    PHASES = (
        "churn_s", "refill_s", "retry_s", "build_s", "solve_s", "apply_s",
        "playback_s",
    )

    def test_phases_and_other_sum_to_slot(self):
        config = SystemConfig.tiny(
            seed=4,
            isp_rollup=True,
            arrival_rate_per_s=0.5,
            early_departure_prob=0.5,
        )
        system = P2PSystem(config)
        system.populate_static(12)
        # Lossy access links on ISP 0 (intra pairs included): the tiny
        # swarm's traffic stays local, so a backbone-only preset would
        # never fail a transfer or give the retry phase work.
        system.apply_link_preset("loss10", isp_a=0)
        tracer = system.attach_tracer(MemoryTraceSink())
        for _ in range(6):
            system.run_slot(churn=True, remove_finished=True)
        system.close()
        records = tracer.records()
        assert len(records) == 6
        # The run exercised the phases being attributed.
        assert sum(r["arrivals"] + r["departures"] for r in records) > 0
        assert sum(r["link"]["transfers_failed"] for r in records) > 0
        assert sum(r["retry"]["attempts"] for r in records) > 0
        for record in records:
            timing = record["timing"]
            for phase in self.PHASES:
                assert timing[phase] >= 0.0, (phase, timing)
            assert timing["churn_s"] > 0.0  # every slot ran churn
            # A phase counted twice would push other_s below zero.
            assert timing["other_s"] >= 0.0, timing
            phases = sum(timing[phase] for phase in self.PHASES)
            assert phases + timing["other_s"] == pytest.approx(
                timing["slot_s"], rel=1e-9, abs=1e-12
            )

    def test_static_slots_spend_nothing_on_churn(self):
        records, _ = traced_run(seed=3, n_slots=2)
        assert all(r["timing"]["churn_s"] == 0.0 for r in records)


class TestDeterminism:
    def test_repeated_runs_emit_identical_canonical_lines(self):
        a, _ = traced_run(seed=11, n_slots=4)
        b, _ = traced_run(seed=11, n_slots=4)
        assert [canonical_line(r) for r in a] == [canonical_line(r) for r in b]

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "smoke.jsonl"
        config = SystemConfig.tiny(seed=5)
        system = P2PSystem(config)
        system.populate_static(12)
        with JsonlTraceSink(path) as sink:
            system.attach_tracer(sink)
            for _ in range(3):
                system.run_slot()
            system.close()
        loaded = load_trace(path)
        assert len(loaded) == 3
        assert [r["slot"] for r in loaded] == [0, 1, 2]


class TestOverhead:
    def test_null_sink_emits_nothing(self):
        system = P2PSystem(SystemConfig.tiny(seed=1))
        system.populate_static(10)
        tracer = system.attach_tracer(NullTraceSink())
        for _ in range(2):
            system.run_slot()
        system.close()
        assert tracer.emitted == 0

    def test_disabled_instrumentation_is_branch_cheap(self):
        """Untraced vs NullTraceSink slot time: within 3% (+2 ms slack).

        Interleaved min-of-k: each arm runs k times alternating, and
        the minima are compared — the standard way to discard scheduler
        noise when pinning an overhead bound.
        """

        def build(with_null_sink: bool) -> P2PSystem:
            system = P2PSystem(SystemConfig.tiny(seed=9))
            system.populate_static(30)
            if with_null_sink:
                system.attach_tracer(NullTraceSink())
            return system

        def run_once(with_null_sink: bool) -> float:
            system = build(with_null_sink)
            system.run_slot()  # warm caches / JIT-free but allocates
            t0 = perf_counter()
            for _ in range(3):
                system.run_slot()
            elapsed = perf_counter() - t0
            system.close()
            return elapsed

        k = 5
        untraced = []
        nullsink = []
        for _ in range(k):
            untraced.append(run_once(False))
            nullsink.append(run_once(True))
        base, gated = min(untraced), min(nullsink)
        assert gated <= base * 1.03 + 0.002, (
            f"disabled tracing overhead: {gated:.4f}s vs {base:.4f}s untraced"
        )
