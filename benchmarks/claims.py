"""The paper's anchors, stated once, and their margins across seeds.

An anchor is one claim that a bench asserts at seed 0: a measure of a
run's result lies above (or below) a bound, strictly unless the anchor
says otherwise.  The runs are Fig. 2-6 (``test_fig*.py``) and ablation
A4, every scheduler on one workload (``test_ablation_schedulers.py``).
Its margin is the signed distance from the bound, positive when the
claim holds (a non-strict claim also holds at 0), so a thin claim shows
as a small margin before it fails.  The benches assert every anchor of
their run through :func:`assert_anchors`.

Run as a script (``make claims``), it runs Fig. 2-6 and A4 at bench
scale for seeds 0-7 through the same functions the benches call and
prints one table: one row per anchor and one column per seed, then each
figure's ``shape`` checks (:mod:`repro.experiments.figures`) as pass or
fail.  Nothing under ``results/`` is written.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Union

from repro.experiments.figures import FigureResult, run_figure
from repro.experiments.sweep import scheduler_shootout
from repro.metrics.report import render_table

FIGURES = ("fig2", "fig3", "fig4", "fig5", "fig6")
#: Every run an anchor reads: the figures, then ablation A4.
RUNS = FIGURES + ("a4",)
SEEDS = range(8)

#: A4's workload per scale, ``(static peers, seconds)``; the bench
#: archives the bench-scale run at seed 0.
SHOOTOUT_SIZE = {"bench": (150, 80.0), "tiny": (30, 20.0)}


def run_shootout(seed: int = 0, scale: str = "bench") -> Dict[str, Dict[str, float]]:
    """Ablation A4: every scheduler on one static workload, totals per scheduler."""
    n_peers, seconds = SHOOTOUT_SIZE[scale]
    return scheduler_shootout(seed=seed, n_peers=n_peers, duration_seconds=seconds)


def result_of(name: str, scale: str = "bench", seed: int = 0) -> Any:
    """The result that the anchors of run ``name`` read."""
    if name == "a4":
        return run_shootout(seed, scale)
    return run_figure(name, scale=scale, seed=seed)


@dataclass(frozen=True)
class Anchor:
    """One claim: ``measure(result)`` lies above ``bound`` (below if ``below``).

    Strictly, unless ``strict`` is false: then the claim also holds at
    the bound, as a bench's ``>=`` or ``<=`` does.
    """

    run: str
    name: str
    measure: Callable[[Any], float]
    bound: float
    below: bool = False
    strict: bool = True

    def margin(self, result: Any) -> float:
        """Signed distance from the bound; positive when the claim holds."""
        value = self.measure(result)
        return self.bound - value if self.below else value - self.bound

    def holds(self, margin: float) -> bool:
        """Whether a :meth:`margin` keeps the claim (a strict one needs > 0)."""
        return margin > 0 if self.strict else margin >= 0

    def label(self) -> str:
        below, above = ("<", ">") if self.strict else ("≤", "≥")
        return f"{self.run} {self.name} {below if self.below else above} {self.bound:g}"


def _values(r: FigureResult, scheduler: str, metric: str):
    return r.series[scheduler][metric].values


def _mean(r: FigureResult, scheduler: str, metric: str) -> float:
    return r.series[scheduler][metric].mean()


def _tail(r: FigureResult, scheduler: str, metric: str) -> float:
    return r.series[scheduler][metric].tail_mean()


def _gap(r: FigureResult, metric: str) -> float:
    """The auction's mean minus locality's."""
    return _mean(r, "auction", metric) - _mean(r, "locality", metric)


def _welfare(r: Dict[str, Dict[str, float]], scheduler: str) -> float:
    return r[scheduler]["welfare_mean_per_slot"]


def _inter(r: Dict[str, Dict[str, float]], scheduler: str) -> float:
    return r[scheduler]["inter_isp_fraction"]


def _beats(scheduler: str) -> Anchor:
    """A4: the auction's welfare is above ``scheduler``'s."""
    return Anchor(
        "a4",
        f"auction − {scheduler} welfare",
        lambda r: _welfare(r, "auction") - _welfare(r, scheduler),
        0.0,
    )


def _ratio(num: float, den: float) -> float:
    """``num / den`` for ``den >= 0``, so ``_ratio > b`` iff ``num > b·den``.

    At ``den = 0`` that is ``num > 0``: +inf if so, else -inf.
    """
    if den > 0:
        return num / den
    return math.inf if num > 0 else -math.inf


ANCHORS = (
    Anchor("fig2", "max λ_u", lambda r: _values(r, "auction", "lambda_u").max(), 0.0),
    Anchor(
        "fig3",
        "auction tail welfare / max(1, locality's)",
        lambda r: _ratio(
            _tail(r, "auction", "welfare"), max(1.0, _tail(r, "locality", "welfare"))
        ),
        3.0,
    ),
    Anchor(
        "fig3",
        "locality min welfare",
        lambda r: _values(r, "locality", "welfare").min(),
        0.0,
        below=True,
    ),
    Anchor(
        "fig4",
        "locality / auction mean inter-ISP",
        lambda r: _ratio(
            _mean(r, "locality", "inter_isp"), _mean(r, "auction", "inter_isp")
        ),
        1.5,
    ),
    Anchor(
        "fig4", "locality mean inter-ISP", lambda r: _mean(r, "locality", "inter_isp"), 0.05
    ),
    Anchor(
        "fig5", "auction − locality mean miss", lambda r: _gap(r, "miss_rate"), 0.0,
        below=True,
    ),
    Anchor(
        "fig5", "auction mean miss", lambda r: _mean(r, "auction", "miss_rate"), 0.10,
        below=True,
    ),
    Anchor(
        "fig5", "locality mean miss", lambda r: _mean(r, "locality", "miss_rate"), 0.25,
        below=True,
    ),
    Anchor("fig6", "auction tail welfare", lambda r: _tail(r, "auction", "welfare"), 0.0),
    Anchor("fig6", "auction − locality mean welfare", lambda r: _gap(r, "welfare"), 0.0),
    Anchor(
        "fig6", "auction − locality mean inter-ISP", lambda r: _gap(r, "inter_isp"), 0.0,
        below=True,
    ),
    Anchor(
        "fig6", "auction − locality mean miss", lambda r: _gap(r, "miss_rate"), 1e-9,
        below=True,
    ),
    # A4: the auction beats every deployable (distributed) baseline.  The
    # centralized omniscient greedy may lead by a hair across the run
    # (per-slot optimal is not trajectory optimal), so within 2 % there.
    *map(_beats, ("locality", "locality-retry", "agnostic", "random")),
    Anchor(
        "a4",
        "auction − 0.98 × greedy welfare",
        lambda r: _welfare(r, "auction") - 0.98 * _welfare(r, "greedy"),
        0.0,
        strict=False,
    ),
    # An ISP-oblivious scheduler (agnostic or random) is the floor.
    Anchor(
        "a4",
        "ISP-aware min − oblivious min welfare",
        lambda r: min(
            _welfare(r, name) for name in r if name not in ("agnostic", "random")
        ) - min(_welfare(r, "agnostic"), _welfare(r, "random")),
        0.0,
        strict=False,
    ),
    # ISP-awareness ordering on traffic: auction ≤ locality ≤ agnostic.
    Anchor(
        "a4",
        "auction − locality inter-ISP",
        lambda r: _inter(r, "auction") - _inter(r, "locality"),
        0.0,
        below=True,
        strict=False,
    ),
    Anchor(
        "a4",
        "locality − agnostic inter-ISP",
        lambda r: _inter(r, "locality") - _inter(r, "agnostic"),
        0.0,
        below=True,
        strict=False,
    ),
)

_BY_LABEL = {anchor.label(): anchor for anchor in ANCHORS}


def assert_anchors(name: str, result: Any) -> None:
    """Assert every anchor of run ``name`` on its ``result``."""
    for anchor in ANCHORS:
        if anchor.run == name:
            margin = anchor.margin(result)
            assert anchor.holds(margin), f"{anchor.label()}: margin {margin:+.4g}"


def sweep(
    seeds: Iterable[int] = SEEDS, scale: str = "bench"
) -> Dict[str, List[Union[float, bool]]]:
    """Each anchor's margin and each shape check's outcome, per seed.

    Keys are row labels, in run order (a figure's anchors, then its
    shape checks); values hold one entry per seed.
    """
    rows: Dict[str, List[Union[float, bool]]] = {}
    for seed in seeds:
        for name in RUNS:
            result = result_of(name, scale=scale, seed=seed)
            for anchor in ANCHORS:
                if anchor.run == name:
                    rows.setdefault(anchor.label(), []).append(anchor.margin(result))
            if name in FIGURES:
                for check, ok in result.shape.items():
                    rows.setdefault(f"{name} shape {check}", []).append(bool(ok))
    return rows


def _fails(label: str, value: Union[float, bool]) -> bool:
    """Whether a sweep cell fails: a shape check, or an anchor's margin."""
    if isinstance(value, bool):
        return not value
    return not _BY_LABEL[label].holds(value)


def render(rows: Dict[str, List[Union[float, bool]]], seeds: Iterable[int]) -> str:
    """The sweep as a text table; ``fails`` counts the seeds a row fails at."""
    return render_table(
        ["anchor"] + [f"seed {s}" for s in seeds] + ["fails"],
        [
            [label]
            + [
                ("pass" if v else "FAIL") if isinstance(v, bool) else f"{v:+.4g}"
                for v in values
            ]
            + [sum(_fails(label, v) for v in values)]
            for label, values in rows.items()
        ],
    )


def main() -> int:
    """Print the sweep; exit 1 if any anchor or shape check fails at a seed."""
    start = time.perf_counter()
    rows = sweep()
    print(render(rows, SEEDS))
    print(f"\nFig. 2-6 and A4 at bench scale, seeds {SEEDS[0]}-{SEEDS[-1]}: "
          f"{time.perf_counter() - start:.0f} s")
    return int(any(_fails(label, v) for label, values in rows.items() for v in values))


if __name__ == "__main__":
    sys.exit(main())
