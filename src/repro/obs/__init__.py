"""Structured telemetry: slot-phase tracing, per-ISP rollups, analysis.

The observability layer of the slot pipeline, in three parts:

* :mod:`repro.obs.sinks` — the pluggable :class:`TraceSink` contract and
  its three implementations (:class:`NullTraceSink` — the disabled
  default, branch-cheap on the hot path; :class:`MemoryTraceSink` for
  tests; :class:`JsonlTraceSink` for files).
* :mod:`repro.obs.trace` — the per-slot span schema
  (:data:`TRACE_SCHEMA_VERSION`, :func:`validate_trace_record`) and the
  :class:`SlotTracer` the system emits through.  Timing fields live in
  a segregated ``"timing"`` sub-dict so :func:`canonical_line` can
  strip them and traces compare byte-for-byte across runs.
* :mod:`repro.obs.rollup` — :class:`IspRollup`, the vectorized per-ISP
  accumulator (chunks in/out, transit traffic and cost, per-home-ISP
  QoE) and its reusable report block.
* :mod:`repro.obs.analyze` — the cross-run pipeline behind
  ``python -m repro trace summarize|diff|rollup``.

Instrumentation is disabled by default: a system without an attached
tracer (or with a :class:`NullTraceSink`) pays one attribute check per
slot, gated by the tier-1 overhead test.
"""

from __future__ import annotations

from .analyze import (
    diff_traces,
    load_trace,
    rollup_traces,
    summarize_trace,
    trace_totals,
)
from .rollup import IspRollup, isp_rollup_block
from .sinks import JsonlTraceSink, MemoryTraceSink, NullTraceSink, TraceSink
from .trace import (
    TIMING_PHASES,
    TRACE_SCHEMA_VERSION,
    SlotTracer,
    canonical_line,
    strip_timing,
    validate_trace_record,
)

__all__ = [
    "TIMING_PHASES",
    "TRACE_SCHEMA_VERSION",
    "IspRollup",
    "JsonlTraceSink",
    "MemoryTraceSink",
    "NullTraceSink",
    "SlotTracer",
    "TraceSink",
    "canonical_line",
    "diff_traces",
    "isp_rollup_block",
    "load_trace",
    "rollup_traces",
    "strip_timing",
    "summarize_trace",
    "trace_totals",
    "validate_trace_record",
]
