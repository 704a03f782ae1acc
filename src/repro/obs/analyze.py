"""Cross-run trace analysis: the engine behind ``repro trace …``.

Loads JSONL slot traces (:mod:`repro.obs.trace` schema), aggregates
them, and renders the comparison tables the CLI prints:

* ``summarize`` — one trace: per-slot table, each slot phase's share
  of the summed slot wall clock, and whole-run totals.
* ``diff`` — two traces side by side (e.g. two seeds, or two
  revisions on one seed).  Only deterministic counters are compared — timing
  never enters the table, so the rendering is stable across machines.
* ``rollup`` — N traces, one row each: the cross-run dashboard that
  replaces ad-hoc BENCH-json spelunking (mean slot wall time is the one
  deliberately machine-dependent column).
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Optional, Union

from ..metrics.report import render_table
from .trace import TIMING_PHASES, validate_trace_record

__all__ = [
    "diff_traces",
    "load_trace",
    "rollup_traces",
    "summarize_trace",
    "trace_totals",
]


def load_trace(path: Union[str, pathlib.Path]) -> List[dict]:
    """Load and schema-validate one JSONL trace file."""
    records = []
    text = pathlib.Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from None
        try:
            validate_trace_record(record)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        records.append(record)
    if not records:
        raise ValueError(f"{path}: empty trace")
    return records


def trace_totals(records: List[dict]) -> Dict[str, object]:
    """Whole-trace aggregates of the deterministic counters."""
    n = len(records)

    def tot(getter) -> float:
        return sum(getter(r) for r in records)

    inter = int(tot(lambda r: r["traffic"]["inter"]))
    intra = int(tot(lambda r: r["traffic"]["intra"]))
    due = int(tot(lambda r: r["playback"]["due"]))
    missed = int(tot(lambda r: r["playback"]["missed"]))
    return {
        "slots": n,
        "peers_final": int(records[-1]["n_peers"]),
        "arrivals": int(tot(lambda r: r["arrivals"])),
        "departures": int(tot(lambda r: r["departures"])),
        "requests": int(tot(lambda r: r["n_requests"])),
        "served": int(tot(lambda r: r["n_served"])),
        "welfare": float(tot(lambda r: r["welfare"])),
        "segments_reused": int(tot(lambda r: r["build"]["reused"])),
        "segments_rebuilt": int(tot(lambda r: r["build"]["rebuilt"])),
        "segments_dropped": int(tot(lambda r: r["build"]["dropped"])),
        "solver_rounds": int(tot(lambda r: r["solver"]["rounds"])),
        "bids_submitted": int(tot(lambda r: r["solver"]["bids_submitted"])),
        "price_updates": int(tot(lambda r: r["solver"]["price_updates"])),
        "evictions": int(tot(lambda r: r["solver"]["evictions"])),
        "rows_evaluated": int(tot(lambda r: r["solver"]["rows_evaluated"])),
        "inter_isp": inter,
        "intra_isp": intra,
        "inter_frac": inter / (inter + intra) if inter + intra else 0.0,
        "due": due,
        "missed": missed,
        "miss_rate": missed / due if due else 0.0,
        "retry_attempts": int(tot(lambda r: r["retry"]["attempts"])),
        "retry_succeeded": int(tot(lambda r: r["retry"]["succeeded"])),
        "transfers_failed": int(tot(lambda r: r["link"]["transfers_failed"])),
    }


#: Diff/rollup row order: every counter trace_totals can produce.
_TOTAL_FIELDS = (
    "slots", "peers_final", "arrivals", "departures", "requests", "served",
    "welfare", "segments_reused", "segments_rebuilt", "segments_dropped",
    "solver_rounds", "bids_submitted", "price_updates", "evictions",
    "rows_evaluated", "inter_isp", "intra_isp", "inter_frac", "due",
    "missed", "miss_rate", "retry_attempts", "retry_succeeded",
    "transfers_failed",
)


def _phase_share_table(records: List[dict]) -> str:
    """Each slot phase's summed wall clock and its share of Σ ``slot_s``.

    ``other`` is what no phase claims, so the shares add up to 100%.
    """
    total = sum(r["timing"]["slot_s"] for r in records)
    rows: List[List[object]] = []
    for phase in TIMING_PHASES + ("other",):
        seconds = sum(r["timing"][f"{phase}_s"] for r in records)
        share = f"{100.0 * seconds / total:.1f}%" if total else "-"
        rows.append([phase, float(seconds), share])
    table = render_table(["phase", "seconds", "share"], rows)
    return f"phase shares of slot_s ({float(total):.4g}s total)\n{table}"


def summarize_trace(
    records: List[dict], label: Optional[str] = None, max_rows: int = 20
) -> str:
    """Per-slot table, phase shares and totals for one loaded trace."""
    headers = [
        "slot", "peers", "reqs", "served", "welfare", "rounds",
        "reused/rebuilt",
        "inter", "intra", "due", "missed", "retry_ok/att",
    ]
    rows: List[List[object]] = []
    for r in records[:max_rows]:
        rows.append(
            [
                r["slot"],
                r["n_peers"],
                r["n_requests"],
                r["n_served"],
                float(r["welfare"]),
                r["solver"]["rounds"],
                f"{r['build']['reused']}/{r['build']['rebuilt']}",
                r["traffic"]["inter"],
                r["traffic"]["intra"],
                r["playback"]["due"],
                r["playback"]["missed"],
                f"{r['retry']['succeeded']}/{r['retry']['attempts']}",
            ]
        )
    lines = []
    if label:
        lines.append(f"Trace {label} — {len(records)} slots (schema v{records[0]['v']})")
    lines.append(render_table(headers, rows))
    if len(records) > max_rows:
        lines.append(f"… {len(records) - max_rows} more slots")
    lines.append(_phase_share_table(records))
    totals = trace_totals(records)
    parts = [
        f"welfare={totals['welfare']:.4g}",
        f"served={totals['served']}",
        f"inter_frac={totals['inter_frac']:.4g}",
        f"miss_rate={totals['miss_rate']:.4g}",
        f"rounds={totals['solver_rounds']}",
    ]
    lines.append("totals: " + " ".join(parts))
    return "\n".join(lines)


def diff_traces(
    a: List[dict],
    b: List[dict],
    label_a: str = "a",
    label_b: str = "b",
) -> str:
    """Counter-by-counter comparison of two traces (timing excluded).

    Rows are the shared deterministic totals; the delta column is
    ``b − a`` for numeric fields.  Byte-equal deterministic bodies
    (the same seed run twice) diff to zero everywhere.
    """
    ta, tb = trace_totals(a), trace_totals(b)
    rows: List[List[object]] = []
    for field in _TOTAL_FIELDS:
        va = ta[field]
        vb = tb[field]
        delta = vb - va
        rows.append(
            [
                field,
                va,
                vb,
                delta if isinstance(delta, int) else float(delta),
            ]
        )
    header = f"Trace diff: {label_a} vs {label_b}"
    return header + "\n" + render_table(
        ["metric", label_a, label_b, "delta"], rows
    )


def rollup_traces(traces: Dict[str, List[dict]]) -> str:
    """One row per trace: the cross-run comparison dashboard.

    ``slot_s`` (mean wall-clock per slot) is the single timing column —
    the point of a cross-run rollup is often exactly that comparison,
    so it is included here and only here.
    """
    headers = [
        "trace", "slots", "peers", "welfare", "served", "inter_frac",
        "miss_rate", "rounds", "slot_s",
    ]
    rows: List[List[object]] = []
    for label, records in traces.items():
        totals = trace_totals(records)
        slot_s = sum(r["timing"]["slot_s"] for r in records) / len(records)
        rows.append(
            [
                label,
                totals["slots"],
                totals["peers_final"],
                float(totals["welfare"]),
                totals["served"],
                float(totals["inter_frac"]),
                float(totals["miss_rate"]),
                totals["solver_rounds"],
                float(slot_s),
            ]
        )
    return "Trace rollup\n" + render_table(headers, rows)
