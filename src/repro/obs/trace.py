"""The per-slot span schema and the tracer the system emits through.

One record per slot, assembled by :meth:`P2PSystem.run_slot` only when
the attached sink is enabled.  The record is a plain dict in two parts:

* the **deterministic body** — every counter the slot produced (churn,
  candidate tables the builds kept, made and dropped, solver work,
  retry pipeline, traffic split, playback misses).  Equal seeds produce
  byte-equal bodies across runs and machines; the property suite pins
  this.
* the ``"timing"`` sub-dict — wall-clock durations of every slot phase
  (:data:`TIMING_PHASES`: churn, neighbour refill, retries, build,
  solve, apply, playback), ``other_s`` (whatever no phase claims) and
  the whole ``slot_s``, so the phases plus ``other_s`` sum to
  ``slot_s``.  Timing is the only machine-dependent content, so
  :func:`strip_timing` / :func:`canonical_line` remove exactly one key
  to get the comparable form.

Schema evolution: bump :data:`TRACE_SCHEMA_VERSION` when a field
changes meaning; *adding* fields is compatible (``validate_trace_record``
checks presence and types of the required set, not exhaustiveness —
that is also how a new counter is added: collect it in ``run_slot``
under the ``tracing`` branch, name it here if it must be guaranteed).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from .sinks import NullTraceSink, TraceSink

__all__ = [
    "TIMING_PHASES",
    "TRACE_SCHEMA_VERSION",
    "SlotTracer",
    "canonical_line",
    "strip_timing",
    "validate_trace_record",
]

#: Version stamped into every record's ``"v"`` field.  Version 2
#: replaced the ``build`` kind string and the ``delta_reasons``
#: histogram with the ``build`` splice-counter group; version 3 made
#: that group count candidate tables instead of splice segments.
TRACE_SCHEMA_VERSION = 3

#: The slot phases ``run_slot`` times, in pipeline order.  Each is a
#: ``"<phase>_s"`` key of the ``"timing"`` sub-dict.
TIMING_PHASES = (
    "churn", "refill", "retry", "build", "solve", "apply", "playback",
)

#: Required top-level fields and their types (the guaranteed schema).
_REQUIRED: Tuple[Tuple[str, type], ...] = (
    ("v", int),
    ("slot", int),
    ("time", float),
    ("n_peers", int),
    ("arrivals", int),
    ("departures", int),
    ("n_requests", int),
    ("n_served", int),
    ("welfare", float),
    ("build", dict),
    ("solver", dict),
    ("retry", dict),
    ("traffic", dict),
    ("playback", dict),
    ("link", dict),
    ("timing", dict),
)

#: Required sub-fields of the nested counter groups.
_REQUIRED_NESTED: Dict[str, Tuple[str, ...]] = {
    # Candidate tables over the slot's builds: ``reused`` counts active
    # watchers whose table was kept, ``rebuilt`` the tables made (a
    # build that makes any makes one ``costs_for_pairs`` call for them
    # all), ``dropped`` the tables dropped since the build before
    # (departures, link changes, cost shocks).
    "build": ("reused", "rebuilt", "dropped"),
    "solver": (
        "rounds", "bids_submitted", "bids_rejected", "evictions",
        "price_updates", "rows_evaluated", "scalar_rounds",
    ),
    "retry": ("attempts", "succeeded", "surrendered", "evicted", "pending"),
    "traffic": ("inter", "intra"),
    "playback": ("due", "missed"),
    "link": ("regime", "transfers_failed", "delay_ms"),
    "timing": tuple(f"{phase}_s" for phase in TIMING_PHASES)
    + ("other_s", "slot_s"),
}


def validate_trace_record(record: dict) -> None:
    """Raise ``ValueError`` if ``record`` violates the span schema."""
    if not isinstance(record, dict):
        raise ValueError(f"trace record must be a dict, got {type(record)}")
    for key, kind in _REQUIRED:
        if key not in record:
            raise ValueError(f"trace record missing field {key!r}")
        value = record[key]
        if kind is float:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"field {key!r} must be numeric, got {value!r}")
        elif not isinstance(value, kind):
            raise ValueError(
                f"field {key!r} must be {kind.__name__}, got {type(value).__name__}"
            )
    if record["v"] != TRACE_SCHEMA_VERSION:
        raise ValueError(
            f"trace schema v{record['v']} != supported v{TRACE_SCHEMA_VERSION}"
        )
    for group, fields in _REQUIRED_NESTED.items():
        block = record[group]
        for field in fields:
            if field not in block:
                raise ValueError(f"trace record missing {group}.{field}")


def strip_timing(record: dict) -> dict:
    """Copy of ``record`` without its machine-dependent ``"timing"`` key."""
    return {k: v for k, v in record.items() if k != "timing"}


def canonical_line(record: dict) -> str:
    """The byte-comparable serialization: timing stripped, keys sorted.

    Two runs of the same seed produce equal canonical lines slot for
    slot, whatever machine or scheduler interleaving produced them —
    the Hypothesis suite in ``tests/properties`` pins this.
    """
    return json.dumps(strip_timing(record), sort_keys=True)


class SlotTracer:
    """Thin emitting front-end the system holds: a sink plus a counter.

    The tracer exists so the slot pipeline has one object to probe
    (``tracer.enabled``) and one to hand records to, independent of the
    sink implementation; ``emitted`` counts spans for smoke assertions.
    """

    def __init__(self, sink: Optional[TraceSink] = None) -> None:
        self.sink: TraceSink = sink if sink is not None else NullTraceSink()
        self.emitted = 0

    @property
    def enabled(self) -> bool:
        """Whether the slot pipeline should collect span counters."""
        return self.sink.enabled

    def emit(self, record: dict) -> None:
        """Forward one span record to the sink."""
        self.sink.emit(record)
        self.emitted += 1

    def close(self) -> None:
        """Close the underlying sink (idempotent)."""
        self.sink.close()

    # ------------------------------------------------------------------
    # In-memory convenience (MemoryTraceSink only)
    # ------------------------------------------------------------------
    def records(self) -> List[dict]:
        """Collected records, when the sink keeps them (else empty)."""
        return list(getattr(self.sink, "records", ()))
