"""Span schema validation, canonical serialization, and the tracer."""

from __future__ import annotations

import copy
import json

import pytest

from obs_support import minimal_record

from repro.obs import (
    TRACE_SCHEMA_VERSION,
    MemoryTraceSink,
    SlotTracer,
    canonical_line,
    strip_timing,
    validate_trace_record,
)


class TestValidation:
    def test_accepts_minimal_record(self):
        validate_trace_record(minimal_record())

    def test_accepts_extra_fields(self):
        # Adding fields is schema-compatible by design.
        record = minimal_record()
        record["new_counter"] = 7
        record["solver"]["new_nested"] = 1
        validate_trace_record(record)

    @pytest.mark.parametrize("key", [
        "v", "slot", "welfare", "build", "solver", "timing",
    ])
    def test_rejects_missing_top_level(self, key):
        record = minimal_record()
        del record[key]
        with pytest.raises(ValueError, match=key):
            validate_trace_record(record)

    def test_rejects_wrong_version(self):
        record = minimal_record()
        record["v"] = TRACE_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema"):
            validate_trace_record(record)

    def test_rejects_unknown_build_kind(self):
        record = minimal_record()
        record["build"] = "warm"
        with pytest.raises(ValueError, match="build"):
            validate_trace_record(record)

    def test_rejects_missing_nested_field(self):
        record = minimal_record()
        del record["solver"]["rows_evaluated"]
        with pytest.raises(ValueError, match="solver.rows_evaluated"):
            validate_trace_record(record)

    def test_rejects_missing_scalar_rounds(self):
        record = minimal_record()
        del record["solver"]["scalar_rounds"]
        with pytest.raises(ValueError, match="solver.scalar_rounds"):
            validate_trace_record(record)

    @pytest.mark.parametrize("phase", ["churn_s", "refill_s", "other_s"])
    def test_rejects_missing_timing_phase(self, phase):
        record = minimal_record()
        del record["timing"][phase]
        with pytest.raises(ValueError, match=f"timing.{phase}"):
            validate_trace_record(record)

    def test_rejects_bool_for_numeric(self):
        record = minimal_record()
        record["welfare"] = True
        with pytest.raises(ValueError, match="welfare"):
            validate_trace_record(record)

    def test_rejects_non_dict(self):
        with pytest.raises(ValueError, match="dict"):
            validate_trace_record([])


class TestCanonicalForm:
    def test_strip_timing_removes_only_timing(self):
        record = minimal_record()
        stripped = strip_timing(record)
        assert "timing" not in stripped
        assert set(record) - set(stripped) == {"timing"}
        assert "timing" in record  # original untouched

    def test_canonical_line_ignores_timing_differences(self):
        a = minimal_record()
        b = copy.deepcopy(a)
        b["timing"]["slot_s"] = 99.0
        assert canonical_line(a) == canonical_line(b)

    def test_canonical_line_sorts_keys(self):
        record = minimal_record()
        line = canonical_line(record)
        keys = list(json.loads(line))
        assert keys == sorted(keys)

    def test_canonical_line_sees_counter_differences(self):
        a = minimal_record()
        b = copy.deepcopy(a)
        b["n_served"] += 1
        assert canonical_line(a) != canonical_line(b)


class TestSlotTracer:
    def test_defaults_to_disabled_null_sink(self):
        tracer = SlotTracer()
        assert tracer.enabled is False
        assert tracer.records() == []

    def test_counts_and_collects_with_memory_sink(self):
        tracer = SlotTracer(MemoryTraceSink())
        assert tracer.enabled is True
        tracer.emit({"slot": 0})
        tracer.emit({"slot": 1})
        assert tracer.emitted == 2
        assert [r["slot"] for r in tracer.records()] == [0, 1]
        tracer.close()
