"""The paper's figure anchors, stated once, and their margins across seeds.

An anchor is one claim of Fig. 2-6 that a figure bench
(``test_fig*.py``) asserts at seed 0: a measure of the figure's result
lies above (or below) a bound.  Its margin is the signed distance from
the bound, positive exactly when the claim holds, so a thin claim shows
as a small margin before it fails.  The benches assert every anchor of
their figure through :func:`assert_anchors`.

Run as a script (``make claims``), it runs Fig. 2-6 at bench scale for
seeds 0-7 through the same figure functions the benches call and prints
one table: one row per anchor and one column per seed, then each
figure's ``shape`` checks (:mod:`repro.experiments.figures`) as pass or
fail.  Nothing under ``results/`` is written.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Union

from repro.experiments.figures import FigureResult, run_figure
from repro.metrics.report import render_table

FIGURES = ("fig2", "fig3", "fig4", "fig5", "fig6")
SEEDS = range(8)


@dataclass(frozen=True)
class Anchor:
    """One claim: ``measure(result)`` lies above ``bound`` (below if ``below``)."""

    figure: str
    name: str
    measure: Callable[[FigureResult], float]
    bound: float
    below: bool = False

    def margin(self, result: FigureResult) -> float:
        """Signed distance from the bound; positive exactly when the claim holds."""
        value = self.measure(result)
        return self.bound - value if self.below else value - self.bound

    def label(self) -> str:
        return f"{self.figure} {self.name} {'<' if self.below else '>'} {self.bound:g}"


def _values(r: FigureResult, scheduler: str, metric: str):
    return r.series[scheduler][metric].values


def _mean(r: FigureResult, scheduler: str, metric: str) -> float:
    return r.series[scheduler][metric].mean()


def _tail(r: FigureResult, scheduler: str, metric: str) -> float:
    return r.series[scheduler][metric].tail_mean()


def _gap(r: FigureResult, metric: str) -> float:
    """The auction's mean minus locality's."""
    return _mean(r, "auction", metric) - _mean(r, "locality", metric)


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
)


def assert_anchors(result: FigureResult) -> None:
    """Assert every anchor of ``result``'s figure."""
    for anchor in ANCHORS:
        if anchor.figure == result.figure:
            margin = anchor.margin(result)
            assert margin > 0, f"{anchor.label()}: margin {margin:+.4g}"


def sweep(
    seeds: Iterable[int] = SEEDS, scale: str = "bench"
) -> Dict[str, List[Union[float, bool]]]:
    """Each anchor's margin and each shape check's outcome, per seed.

    Keys are row labels, in figure order (anchors, then shape checks);
    values hold one entry per seed.
    """
    rows: Dict[str, List[Union[float, bool]]] = {}
    for seed in seeds:
        for figure in FIGURES:
            result = run_figure(figure, scale=scale, seed=seed)
            for anchor in ANCHORS:
                if anchor.figure == figure:
                    rows.setdefault(anchor.label(), []).append(anchor.margin(result))
            for check, ok in result.shape.items():
                rows.setdefault(f"{figure} shape {check}", []).append(bool(ok))
    return rows


def _fails(value: Union[float, bool]) -> bool:
    return not value if isinstance(value, bool) else not value > 0


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
            + [sum(map(_fails, values))]
            for label, values in rows.items()
        ],
    )


def main() -> int:
    """Print the sweep; exit 1 if any anchor or shape check fails at a seed."""
    start = time.perf_counter()
    rows = sweep()
    print(render(rows, SEEDS))
    print(f"\nFig. 2-6 at bench scale, seeds {SEEDS[0]}-{SEEDS[-1]}: "
          f"{time.perf_counter() - start:.0f} s")
    return int(any(_fails(v) for values in rows.values() for v in values))


if __name__ == "__main__":
    sys.exit(main())
