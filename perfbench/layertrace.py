"""Per-layer spans timed from outside the program.

The traced run replaces the public entry points of each layer with
timing wrappers, as instance attributes on the live system's objects,
so nothing under ``src/`` changes.  Every wrapped call records one span
(layer, start, end, parent) in memory.  A layer's self time is its
span minus the spans of its children; the root span is
``P2PSystem.run_slot``, so the ``system`` layer's self time is the slot
glue no other layer claims.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: (layer, attribute path from the system, public methods wrapped).
#: An empty path is the system itself.  Several rows may share a layer.
HOOKS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("system", "", ("run_slot",)),
    ("build", "", ("build_problem", "patch_problem")),
    ("state.assemble", "store", ("assemble_requests",)),
    ("costs.pairs", "costs", ("costs_for_pairs",)),
    ("solve", "scheduler", ("schedule",)),
    ("state.deliver", "store", ("deliver_runs",)),
    ("link", "links", ("evaluate",)),
    (
        "retry",
        "retry_queue",
        (
            "pop_due",
            "pop_surrendered",
            "evict_departed",
            "push_failed",
            "requeue",
            "pending_triples",
        ),
    ),
    ("playback", "store", ("advance_playback",)),
    ("state.churn", "store", ("departure_scan", "remove_batch", "admit_batch")),
    ("costs.forget", "costs", ("forget_peer",)),
    ("tracker", "tracker", ("bootstrap_candidates", "register", "unregister")),
    ("topology", "overlay", ("bootstrap", "remove_node", "deficient_nodes")),
    ("topology", "topology", ("remove_peer",)),
    ("accounting", "traffic_matrix", ("record_batch",)),
    (
        "accounting",
        "isp_rollup",
        (
            "begin_slot",
            "end_slot",
            "record_transfers",
            "record_playback",
            "record_retries",
        ),
    ),
)

#: Layer names in report order; index = layer id in the span columns.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in HOOKS))
ROOT = LAYERS.index("system")


def resolve_hooks(system) -> List[Tuple[str, object, str]]:
    """``(layer, owner object, method name)`` for every hook on ``system``.

    An owner that is ``None`` (the per-ISP rollup when the config leaves
    it off) is skipped; a missing method raises ``AttributeError`` so a
    renamed public function fails loudly instead of dropping a layer.
    """
    resolved = []
    for layer, path, names in HOOKS:
        owner = system
        for part in filter(None, path.split(".")):
            owner = getattr(owner, part)
        if owner is None:
            continue
        for name in names:
            if not callable(getattr(owner, name)):
                raise AttributeError(f"{path or 'system'}.{name} is not callable")
            resolved.append((layer, owner, name))
    return resolved


class SpanRecorder:
    """In-memory span columns plus the wrappers that fill them.

    ``install`` puts the wrappers on the system's objects and
    ``uninstall`` takes them off again, so the same system can run
    traced and untraced slots alternately.  ``on_solve`` receives each
    wrapped ``schedule`` call's ``(problem, result, kwargs)`` after the
    span has closed, for checks and work counters taken after the slot.
    """

    def __init__(self, on_solve: Optional[Callable] = None) -> None:
        self.layer: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self._stack: List[int] = [-1]
        self._installed: List[Tuple[object, str, bool, object]] = []
        self._on_solve = on_solve

    def __len__(self) -> int:
        return len(self.layer)

    def _wrap(self, layer_id: int, fn: Callable) -> Callable:
        layer, start, end = self.layer, self.start, self.end
        parent, stack = self.parent, self._stack

        def traced(*args, **kwargs):
            i = len(layer)
            layer.append(layer_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()

        return traced

    def _wrap_solve(self, layer_id: int, fn: Callable) -> Callable:
        timed = self._wrap(layer_id, fn)
        on_solve = self._on_solve

        def traced(problem, **kwargs):
            result = timed(problem, **kwargs)
            on_solve(problem, result, kwargs)
            return result

        return traced

    def install(self, system) -> None:
        """Wrap every hook on ``system`` (no-op when already installed)."""
        if self._installed:
            return
        for layer, owner, name in resolve_hooks(system):
            own = name in vars(owner)
            fn = getattr(owner, name)
            layer_id = LAYERS.index(layer)
            if layer == "solve" and self._on_solve is not None:
                wrapper = self._wrap_solve(layer_id, fn)
            else:
                wrapper = self._wrap(layer_id, fn)
            setattr(owner, name, wrapper)
            self._installed.append((owner, name, own, fn))

    def uninstall(self) -> None:
        """Restore every wrapped attribute to what it was before install."""
        for owner, name, own, fn in reversed(self._installed):
            if own:
                setattr(owner, name, fn)
            else:
                delattr(owner, name)
        self._installed = []

    def columns(self) -> Dict[str, np.ndarray]:
        """The spans as numpy columns (layer id, start, end, parent)."""
        return {
            "layer": np.asarray(self.layer, dtype=np.int64),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
            "parent": np.asarray(self.parent, dtype=np.int64),
        }


def per_slot_layers(cols: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Self seconds and call counts per (root slot, layer).

    Returns ``self_s`` and ``calls`` arrays of shape (slots, layers), the
    root spans' durations ``slot_s`` and ``inclusive_s`` (each layer's
    summed span durations per slot, children included).  Root spans are
    the spans with no parent; every other span belongs to the slot of
    the root it nests in.
    """
    layer, parent = cols["layer"], cols["parent"]
    dur = cols["end"] - cols["start"]
    n = len(layer)
    child = np.zeros(n)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    self_s = dur - child
    # Spans are appended in call order, so a parent always precedes its
    # children: one forward pass assigns each span its root.
    root = np.arange(n)
    for i in np.nonzero(nested)[0].tolist():
        root[i] = root[parent[i]]
    roots = np.nonzero(~nested)[0]
    if np.any(layer[roots] != ROOT):
        raise ValueError("a top-level span is not run_slot")
    slot_of = np.searchsorted(roots, root)
    shape = (len(roots), len(LAYERS))
    out_self = np.zeros(shape)
    out_incl = np.zeros(shape)
    out_calls = np.zeros(shape, dtype=np.int64)
    np.add.at(out_self, (slot_of, layer), self_s)
    np.add.at(out_incl, (slot_of, layer), dur)
    np.add.at(out_calls, (slot_of, layer), 1)
    return {
        "self_s": out_self,
        "inclusive_s": out_incl,
        "calls": out_calls,
        "slot_s": dur[roots],
    }


def span_dump(cols: Dict[str, np.ndarray]) -> dict:
    """JSON-ready span table; times are seconds from the first span."""
    t0 = float(cols["start"][0]) if len(cols["start"]) else 0.0
    return {
        "layers": list(LAYERS),
        "layer": cols["layer"].tolist(),
        "start": (cols["start"] - t0).round(9).tolist(),
        "end": (cols["end"] - t0).round(9).tolist(),
        "parent": cols["parent"].tolist(),
    }
