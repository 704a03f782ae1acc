"""Trace loading, aggregation, and the summarize/diff/rollup renderers."""

from __future__ import annotations

import copy
import json

import pytest

from obs_support import minimal_record

from repro.obs import (
    JsonlTraceSink,
    diff_traces,
    load_trace,
    rollup_traces,
    summarize_trace,
    trace_totals,
)


def make_trace(n_slots: int = 3) -> list:
    records = []
    for slot in range(n_slots):
        record = minimal_record()
        record["slot"] = slot
        record["time"] = slot * 10.0
        record["welfare"] = 10.0 + slot
        records.append(record)
    return records


class TestLoad:
    def test_round_trips_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl"
        records = make_trace()
        with JsonlTraceSink(path) as sink:
            for record in records:
                sink.emit(record)
        assert load_trace(path) == records

    def test_rejects_bad_json_with_line_number(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("{not json\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":1: not JSON"):
            load_trace(path)

    def test_rejects_schema_violation_with_line_number(self, tmp_path):
        path = tmp_path / "t.jsonl"
        bad = minimal_record()
        del bad["welfare"]
        path.write_text(json.dumps(bad) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":1: .*welfare"):
            load_trace(path)

    def test_rejects_empty_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(ValueError, match="empty"):
            load_trace(path)


class TestTotals:
    def test_flat_trace_aggregates(self):
        totals = trace_totals(make_trace(3))
        assert totals["slots"] == 3
        assert totals["welfare"] == pytest.approx(33.0)
        assert totals["served"] == 6
        assert totals["tables_reused"] == 12
        assert totals["tables_rebuilt"] == 3
        assert totals["tables_dropped"] == 0
        assert totals["inter_frac"] == pytest.approx(0.5)
        assert totals["miss_rate"] == pytest.approx(0.5)

    def test_scalar_rounds_total(self):
        records = make_trace(3)
        for record in records:
            record["solver"]["scalar_rounds"] = 2
        assert trace_totals(records)["scalar_rounds"] == 6
        assert "scalar_rounds=6" in summarize_trace(records).splitlines()[-1]


class TestRendering:
    def test_summarize_shows_each_slot_and_totals(self):
        text = summarize_trace(make_trace(3), label="demo")
        lines = text.splitlines()
        assert lines[0].startswith("Trace demo — 3 slots")
        assert text.count(" 4/1 ") == 3  # tables reused/rebuilt
        assert lines[-1].startswith("totals:")

    def test_summarize_prints_phase_shares(self):
        text = summarize_trace(make_trace(3))
        lines = text.splitlines()
        start = lines.index("phase shares of slot_s (0.12s total)")
        shares = {
            line.split()[0]: line.split()[-1] for line in lines[start + 3 :]
            if not line.startswith("totals:")
        }
        assert shares == {
            "churn": "0.0%", "refill": "0.0%", "retry": "0.0%",
            "build": "25.0%", "solve": "50.0%", "apply": "7.5%",
            "playback": "2.5%", "other": "15.0%",
        }

    def test_summarize_truncates_long_traces(self):
        text = summarize_trace(make_trace(25), max_rows=20)
        assert "… 5 more slots" in text

    def test_diff_identical_traces_is_all_zero(self):
        trace = make_trace(3)
        text = diff_traces(trace, copy.deepcopy(trace), "a", "b")
        for line in text.splitlines()[3:]:
            assert line.split()[-1] == "0", line

    def test_diff_reports_delta(self):
        a = make_trace(3)
        b = copy.deepcopy(a)
        for record in b:
            record["n_served"] += 2
        text = diff_traces(a, b, "base", "more")
        served = next(
            line for line in text.splitlines() if "served" in line
        )
        assert served.split() == ["served", "6", "12", "6"]

    def test_diff_never_mentions_timing(self):
        text = diff_traces(make_trace(2), make_trace(2))
        assert "slot_s" not in text
        assert "timing" not in text

    def test_rollup_one_row_per_trace(self):
        text = rollup_traces({"a": make_trace(2), "b": make_trace(3)})
        lines = text.splitlines()
        assert lines[0] == "Trace rollup"
        assert len(lines) == 5  # title + header + rule + 2 rows
        assert "slot_s" in lines[1]
