"""End-to-end slot benchmark: workloads, measurement, output checks.

Each workload builds a :class:`P2PSystem` through the public API and
drives ``run_slot`` one slot at a time: a closed loop in one process,
no threads and no worker pool.  Two run modes:

* **untraced** (``--trace 0``): the end-to-end metrics.  The workload is
  set up ``Workload.passes`` times from scratch (the ``setup_s``
  median), each pass from its own sub-seed of ``--seed``, and each pass
  measures the same fixed number of slots.  Pooling several
  trajectories keeps one seed's instance from setting the figures, and
  the paper's outcomes (on-time ratio, inter-ISP share, welfare) stay
  deterministic per seed.  Times are scaled to the reference host
  speed by :mod:`hostspeed`; the raw wall clock stays in the record.
* **traced** (``--trace 1``): the per-layer metrics.  One set-up, then
  slots alternate traced / untraced in an ABBA pattern; traced slots
  carry the outside-in span wrappers of :mod:`layertrace` and the
  program's own ``MemoryTraceSink``.  The untraced slots of the same
  run give ``trace.overhead_ratio``.

All checks run after ``run_slot`` returns, outside every timed region.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core.duality import check_complementary_slackness  # noqa: E402
from repro.obs.sinks import MemoryTraceSink  # noqa: E402
from repro.obs.trace import canonical_line  # noqa: E402
from repro.p2p.config import SystemConfig  # noqa: E402
from repro.p2p.system import P2PSystem  # noqa: E402

from hostspeed import HostClock  # noqa: E402
from layertrace import LAYERS, SpanRecorder, per_slot_layers, span_dump  # noqa: E402

#: Untraced runs set a workload up ``Workload.passes`` times, each pass
#: from its own sub-seed, and, while less than ``--seconds`` of slot
#: time was measured, up to this often.
MAX_PASSES = 8
#: Traced runs measure at least / at most this many slots, half traced.
TRACED_MIN_SLOTS = 8
TRACED_MAX_SLOTS = 32
#: Traced slots whose records make the traced digest.
TRACED_DIGEST_SLOTS = TRACED_MIN_SLOTS // 2
#: Seed kept out of tuning; a claimed gain must also hold on it.
HELD_OUT_SEED = 20261
#: The full ε-CS certificate is checked on every CS_EVERY-th traced
#: solve (each check is a per-request Python loop, ~1 s at 40k
#: requests).  With R = 4 bid rounds that is round 0 of every traced
#: slot, which is always cold-started.
CS_EVERY = 4

#: End-to-end metrics: name -> (unit, better).
E2E = {
    "slot_p50_s": ("s", "lower"),
    "slot_tail_s": ("s", "lower"),
    "peer_slots_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "on_time_ratio": ("ratio", "higher"),
    "inter_isp_share": ("ratio", "lower"),
    "welfare_per_slot": ("welfare", "higher"),
}

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = "s"
    PER_LAYER[f"{_layer}.share"] = "ratio"
    PER_LAYER[f"{_layer}.calls"] = "count"
PER_LAYER.update(
    {
        "work.peers": "count",
        "work.requests": "count",
        "work.edges": "count",
        "work.arrivals": "count",
        "work.departures": "count",
        "playback.due": "count",
        "solve.rounds": "count",
        "solve.bids": "count",
        "solve.bid_accept_ratio": "ratio",
        "solve.evictions": "count",
        "solve.rows_evaluated": "count",
        "solve.frontier_ratio": "ratio",
        "apply.served_ratio": "ratio",
        "link.failed_ratio": "ratio",
        "retry.success_ratio": "ratio",
        "trace.slot_p50_s": "s",
        "trace.overhead_ratio": "ratio",
        "xcheck.build_gap_s": "s",
        "xcheck.solve_gap_s": "s",
        "xcheck.playback_gap_s": "s",
    }
)

#: SlotMetrics fields hashed into the untraced determinism digest.
DIGEST_FIELDS = (
    "time", "n_peers", "n_requests", "n_served", "welfare",
    "inter_isp_chunks", "intra_isp_chunks", "chunks_due", "chunks_missed",
    "auction_rounds", "transfers_failed", "retry_attempts",
    "retry_succeeded", "retry_surrendered", "retry_evicted",
    "retry_pending", "link_delay_ms",
)

ALWAYS = frozenset(
    {"system", "build", "state.assemble", "solve", "state.deliver",
     "playback", "accounting"}
)


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a config, a population and a slot count."""

    name: str
    why: str
    n_peers: int
    #: ``SystemConfig.bench`` overrides (only knobs the ROADMAP keeps).
    config: Dict[str, object]
    stagger: bool = True
    churn: bool = False
    link_preset: Optional[str] = None
    warmup_slots: int = 1
    measured_slots: int = 4
    #: Untraced set-ups, each from its own sub-seed.  Slot times differ
    #: from instance to instance, so more passes steady the run.
    passes: int = 3
    #: Layers expected to record calls in measured slots.
    active: frozenset = ALWAYS

    def build(self, seed: int) -> P2PSystem:
        """Construct and populate the system (no slots run)."""
        system = P2PSystem(SystemConfig.bench(seed=seed, **self.config))
        if self.link_preset is not None:
            system.apply_link_preset(self.link_preset)
        system.populate_static(self.n_peers, stagger=self.stagger)
        return system

    def run_slot(self, system: P2PSystem):
        return system.run_slot(churn=self.churn, remove_finished=self.churn)

    def setup(self, seed: int) -> P2PSystem:
        """Construction, population and the warm-up slots."""
        system = self.build(seed)
        for _ in range(self.warmup_slots):
            self.run_slot(system)
        return system

    def params(self) -> dict:
        out = dataclasses.asdict(self)
        out["active"] = sorted(self.active)
        return out


_LONG_VIDEO = 80_000 * 1024  # 2500 chunks at the bench bitrate, ~102 slots

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="static-5k",
            why="abundant supply, no churn: build and solve dominate and "
            "the churn, retry and link layers stay idle",
            n_peers=5000,
            config=dict(n_videos=100, video_size_bytes=_LONG_VIDEO),
            warmup_slots=1,
            measured_slots=8,
            active=ALWAYS | {"topology"},
        ),
        Workload(
            name="premiere-3k",
            why="synchronized audience, scarce supply: price wars in the "
            "solver and warm-started re-bids",
            n_peers=3000,
            stagger=False,
            config=dict(video_size_bytes=_LONG_VIDEO, warm_start_prices=True),
            warmup_slots=3,
            measured_slots=12,
            passes=4,
            active=ALWAYS | {"topology"},
        ),
        Workload(
            name="churn-lossy-3k",
            why="steady VoD churn over lossy inter-ISP links: admission, "
            "departure, refill, retry, link model and rollup all run",
            n_peers=3000,
            churn=True,
            link_preset="loss10",
            config=dict(
                arrival_rate_per_s=30.0,
                early_departure_prob=0.3,
                isp_rollup=True,
            ),
            warmup_slots=2,
            measured_slots=8,
            active=frozenset(LAYERS),
        ),
    )
}


def tiny(workload: Workload) -> Workload:
    """The same workload shape at unit-test size (a few seconds)."""
    config = dict(workload.config, n_videos=3)
    config.pop("video_size_bytes", None)
    if workload.churn:
        config["arrival_rate_per_s"] = 2.0
    return dataclasses.replace(
        workload, n_peers=40, config=config, warmup_slots=1, measured_slots=4,
        passes=3,
    )


# ----------------------------------------------------------------------
# Checks (all run outside timed regions)
# ----------------------------------------------------------------------
def slot_identity_errors(m) -> List[str]:
    """The SlotMetrics identities every slot must satisfy."""
    errors = []
    if m.n_served > m.n_requests:
        errors.append(f"served {m.n_served} > requests {m.n_requests}")
    if m.chunks_missed > m.chunks_due:
        errors.append(f"missed {m.chunks_missed} > due {m.chunks_due}")
    delivered = m.n_served - m.transfers_failed + m.retry_succeeded
    if m.inter_isp_chunks + m.intra_isp_chunks != delivered:
        errors.append(
            f"inter+intra {m.inter_isp_chunks + m.intra_isp_chunks} != "
            f"first-pass deliveries + retry successes {delivered}"
        )
    return errors


def solve_errors(problem, result, warm: bool, full: bool, epsilon: float) -> List[str]:
    """Feasibility always; the ε-CS certificate when ``full``.

    A warm-started solve may keep a positive λ on an unsaturated
    uploader (see ``SystemConfig.warm_start_prices``), so CS-1 and the
    n·ε gap bound are only required of cold solves.
    """
    try:
        result.check_feasible(problem)
    except AssertionError as exc:
        return [f"infeasible schedule: {exc}"]
    if not full:
        return []
    tol = epsilon * (1 + 1e-6)
    report = check_complementary_slackness(problem, result, tol=tol)
    ok = report.dual_feasible and report.cs_assignment and report.cs_request
    if not warm:
        ok = ok and report.cs_capacity and report.gap <= problem.n_requests * tol
    if ok:
        return []
    return [f"ε-CS certificate failed (warm={warm}): {report.violations[:3]}"]


def consistency_errors(system: P2PSystem) -> List[str]:
    try:
        system.store.check_consistency(system.peers, system.tracker)
    except AssertionError as exc:
        return [f"store consistency: {exc}"]
    return []


def slot_record(m) -> str:
    return json.dumps([getattr(m, f) for f in DIGEST_FIELDS])


def digest(lines: List[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail(values: List[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with >= 10
    samples beyond it; with 10 or fewer samples, the maximum (p100)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass
class Outcome:
    """One run's metrics, counts and the record written next to them."""

    metrics: Dict[str, Tuple[float, str]]
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    record: dict = field(default_factory=dict)

    def fail(self, slot_label: str, errors: List[str]) -> None:
        self.failed += 1
        self.errors.extend(f"{slot_label}: {e}" for e in errors)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors


# ----------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ----------------------------------------------------------------------
def pass_seed(seed: int, p: int) -> int:
    """``SystemConfig.seed`` of pass ``p`` of a run with ``--seed seed``."""
    return 1000 * seed + p


def measure_pass(workload: Workload, seed: int, p: int) -> dict:
    """Set up pass ``p``, measure its slots and check them.

    Set-up and slots are timed by a :class:`HostClock`: ``setup_s`` and
    ``slot_s`` are scaled to the reference host speed, ``raw_*`` are
    the wall clock.  The garbage collector runs as it would in a plain
    ``run_slot`` loop, so its cost is part of the slot.
    """
    res = {"slot_s": [], "raw_slot_s": [], "peers": [], "welfare": [],
           "due": 0, "missed": 0, "inter": 0, "intra": 0, "attempted": 0,
           "failed": 0, "errors": []}
    gc.collect()
    clock = HostClock()
    # Set-up as in Workload.setup, timed piece by piece so that each
    # piece is scaled by the host speed around it.
    system, res["raw_setup_s"], res["setup_s"] = clock.time(
        workload.build, pass_seed(seed, p)
    )
    for _ in range(workload.warmup_slots):
        _, raw, scaled = clock.time(workload.run_slot, system)
        res["raw_setup_s"] += raw
        res["setup_s"] += scaled
    gc.collect()  # set-up's garbage is not charged to the first slot
    for k in range(workload.measured_slots):
        res["attempted"] += 1
        try:
            m, raw, dt = clock.time(workload.run_slot, system)
        except Exception as exc:  # a raising slot is a failed operation
            res["failed"] += 1
            res["errors"].append(f"pass {p} slot {k}: run_slot raised {exc!r}")
            break
        res["slot_s"].append(dt)
        res["raw_slot_s"].append(raw)
        res["peers"].append(m.n_peers)
        res["welfare"].append(m.welfare)
        res["due"] += m.chunks_due
        res["missed"] += m.chunks_missed
        res["inter"] += m.inter_isp_chunks
        res["intra"] += m.intra_isp_chunks
        problems = slot_identity_errors(m)
        if problems:
            res["failed"] += 1
            res["errors"] += [f"pass {p} slot {k}: {e}" for e in problems]
    problems = consistency_errors(system)
    if problems:
        res["failed"] += 1
        res["errors"] += [f"pass {p} end: {e}" for e in problems]
    res["lines"] = [slot_record(m) for m in system.collector.slots]
    res["kernel_s"] = clock.kernel
    system.close()
    return res


def run_untraced(workload: Workload, seed: int, seconds: float) -> Outcome:
    out = Outcome(metrics={})
    passes: List[dict] = []
    measured = 0.0
    while len(passes) < workload.passes or (
        measured < seconds and len(passes) < MAX_PASSES
    ):
        res = measure_pass(workload, seed, len(passes))
        out.attempted += res["attempted"]
        out.failed += res["failed"]
        out.errors += res["errors"]
        measured += sum(res["raw_slot_s"])
        passes.append(res)
    slot_s = [t for res in passes for t in res["slot_s"]]
    if not slot_s:
        raise RuntimeError("no slot completed: " + "; ".join(out.errors))
    # The paper's outcomes and the digest come from the fixed passes
    # only, so they do not depend on how fast the slots ran.
    fixed = passes[:workload.passes]

    def total(key: str) -> int:
        return sum(res[key] for res in fixed)

    due, missed = total("due"), total("missed")
    inter, intra = total("inter"), total("intra")
    tail_s, tail_pct = tail(slot_s)
    values = {
        "slot_p50_s": statistics.median(slot_s),
        "slot_tail_s": tail_s,
        "peer_slots_per_s": sum(n for res in passes for n in res["peers"])
        / sum(slot_s),
        "setup_s": statistics.median(res["setup_s"] for res in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "on_time_ratio": 1.0 - ratio(missed, due),
        "inter_isp_share": ratio(inter, inter + intra),
        "welfare_per_slot": statistics.fmean(
            w for res in fixed for w in res["welfare"]
        ),
    }
    out.metrics = {k: (v, E2E[k][0]) for k, v in values.items()}
    out.record = {
        "digest": digest([line for res in fixed for line in res["lines"]]),
        "digest_of": "SlotMetrics fields of every slot of the fixed passes",
        "slot_tail_percentile": tail_pct,
        "slot_samples": len(slot_s),
        "passes": len(passes),
        "setup_samples_s": [res["setup_s"] for res in passes],
        "slot_samples_s": slot_s,
        "raw_setup_samples_s": [res["raw_setup_s"] for res in passes],
        "raw_slot_samples_s": [t for res in passes for t in res["raw_slot_s"]],
        "kernel_samples_s": [t for res in passes for t in res["kernel_s"]],
        "miss_rate": ratio(missed, due),
    }
    return out


# ----------------------------------------------------------------------
# Traced run: per-layer metrics
# ----------------------------------------------------------------------
def abba(i: int) -> bool:
    """Slot ``i`` is traced in the pattern T U U T T U U T ..."""
    return i % 4 in (0, 3)


def run_traced(workload: Workload, seed: int, seconds: float) -> Outcome:
    system = workload.setup(pass_seed(seed, 0))
    gc.collect()
    epsilon = system.config.epsilon
    tracer = system.attach_tracer(MemoryTraceSink())
    system.tracer = None
    solves: List[tuple] = []
    recorder = SpanRecorder(
        on_solve=lambda p, r, kw: solves.append(
            (p, r, kw.get("initial_prices") is not None)
        )
    )
    out = Outcome(metrics={})
    clock = HostClock()
    traced_s: List[float] = []
    # Scaled times of traced / untraced slots, for the overhead ratio.
    scaled_s: Dict[bool, List[float]] = {True: [], False: []}
    untraced_s: List[float] = []
    traced_m = []
    n_solves = 0
    # Per traced slot: Σ edges, Σ rounds × requests over its solves.
    edges: List[int] = []
    frontier_den: List[int] = []
    i = 0
    while i < TRACED_MIN_SLOTS or (
        sum(traced_s) + sum(untraced_s) < seconds and i < TRACED_MAX_SLOTS
    ):
        traced = abba(i)
        label = f"slot {i} ({'traced' if traced else 'untraced'})"
        out.attempted += 1
        if traced:
            recorder.install(system)
            system.tracer = tracer
        spans_before = len(recorder)
        try:
            m, dt, scaled = clock.time(workload.run_slot, system)
        except Exception as exc:  # a raising slot is a failed operation
            out.fail(label, [f"run_slot raised {exc!r}"])
            break
        finally:
            recorder.uninstall()
            system.tracer = None
        i += 1
        scaled_s[traced].append(scaled)
        problems = slot_identity_errors(m)
        if traced:
            traced_s.append(dt)
            traced_m.append(m)
            e = d = 0
            for problem, result, warm in solves:
                full = n_solves % CS_EVERY == 0
                n_solves += 1
                problems += solve_errors(problem, result, warm, full, epsilon)
                e += problem.n_edges()
                d += result.stats.rounds * problem.n_requests
            edges.append(e)
            frontier_den.append(d)
            solves.clear()
            if len(recorder) == spans_before:
                problems.append("traced slot recorded no spans")
        else:
            untraced_s.append(dt)
        if problems:
            out.fail(label, problems)
    problems = consistency_errors(system)
    if problems:
        out.fail("end", problems)
    records = tracer.records()
    if len(records) != len(traced_s):
        out.errors.append(
            f"{len(records)} trace records for {len(traced_s)} traced slots"
        )
    cols = recorder.columns()
    layers = per_slot_layers(cols)
    if len(layers["slot_s"]) != len(traced_s):
        out.errors.append("span roots do not match traced slots")
    gap = np.abs(layers["self_s"].sum(axis=1) - layers["slot_s"])
    if gap.size and gap.max() > 1e-6:
        out.errors.append(f"layer self times miss the slot by {gap.max():.3e} s")
    system.close()

    self_s, calls, incl = layers["self_s"], layers["calls"], layers["inclusive_s"]
    total = layers["slot_s"].sum()
    values: Dict[str, float] = {}
    for j, layer in enumerate(LAYERS):
        values[f"{layer}.self_s"] = float(np.median(self_s[:, j]))
        values[f"{layer}.share"] = float(ratio(self_s[:, j].sum(), total))
        values[f"{layer}.calls"] = float(np.median(calls[:, j]))

    def med(fn) -> float:
        return float(statistics.median(fn(r) for r in records))

    solver = [r["solver"] for r in records]
    bids = sum(s["bids_submitted"] for s in solver)
    rejected = sum(s["bids_rejected"] for s in solver)
    served = sum(m.n_served for m in traced_m)
    attempts = sum(m.retry_attempts for m in traced_m)
    values.update(
        {
            "work.peers": med(lambda r: r["n_peers"]),
            "work.requests": med(lambda r: r["n_requests"]),
            "work.edges": float(statistics.median(edges)),
            "work.arrivals": med(lambda r: r["arrivals"]),
            "work.departures": med(lambda r: r["departures"]),
            "playback.due": med(lambda r: r["playback"]["due"]),
            "solve.rounds": med(lambda r: r["solver"]["rounds"]),
            "solve.bids": med(lambda r: r["solver"]["bids_submitted"]),
            "solve.bid_accept_ratio": 1.0 - ratio(rejected, bids),
            "solve.evictions": med(lambda r: r["solver"]["evictions"]),
            "solve.rows_evaluated": med(lambda r: r["solver"]["rows_evaluated"]),
            "solve.frontier_ratio": ratio(
                sum(s["rows_evaluated"] for s in solver), sum(frontier_den)
            ),
            "apply.served_ratio": ratio(served, sum(m.n_requests for m in traced_m)),
            "link.failed_ratio": ratio(
                sum(m.transfers_failed for m in traced_m), served
            ),
            "retry.success_ratio": ratio(
                sum(m.retry_succeeded for m in traced_m), attempts
            ),
            "trace.slot_p50_s": statistics.median(traced_s),
            "trace.overhead_ratio": statistics.median(scaled_s[True])
            / statistics.median(scaled_s[False])
            - 1.0,
        }
    )
    for phase in ("build", "solve", "playback"):
        j = LAYERS.index(phase)
        values[f"xcheck.{phase}_gap_s"] = float(
            np.median(
                [r["timing"][f"{phase}_s"] for r in records] - incl[:, j]
            )
        )
    out.metrics = {k: (v, PER_LAYER[k]) for k, v in values.items()}
    out.record = {
        "digest": digest([canonical_line(r) for r in records[:TRACED_DIGEST_SLOTS]]),
        "digest_of": "canonical_line of the first traced slots' trace records",
        "traced_slots": len(traced_s),
        "untraced_slots": len(untraced_s),
        "solves_checked": n_solves,
        "certificates_checked": (n_solves + CS_EVERY - 1) // CS_EVERY,
        "spans": span_dump(cols),
    }
    return out


# ----------------------------------------------------------------------
# Provenance and output
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git(*args: str) -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(workload: Workload, seed: int, trace: int) -> dict:
    rev = _git("rev-parse", "HEAD")
    dirty = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": rev or "unknown",
        "git_dirty": None if rev is None or dirty is None else bool(dirty),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": trace,
        "workload": workload.params(),
    }


def run(workload: Workload, seed: int, seconds: float, trace: int) -> Outcome:
    runner = run_traced if trace else run_untraced
    out = runner(workload, seed, seconds)
    out.record = {
        "provenance": provenance(workload, seed, trace),
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "errors": out.errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.metrics.items()},
        **out.record,
    }
    return out
