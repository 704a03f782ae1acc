"""The anchor table and the seed sweep of ``make claims`` (tiny scale)."""

from __future__ import annotations

import math

import pytest
from claims import ANCHORS, RUNS, Anchor, _ratio, render, sweep


def test_every_figure_has_an_anchor():
    assert {a.run for a in ANCHORS} == set(RUNS)
    labels = [a.label() for a in ANCHORS]
    assert len(set(labels)) == len(labels)


def test_margin_is_positive_exactly_when_the_claim_holds():
    above = Anchor("fig4", "x", lambda r: r, 1.5)
    below = Anchor("fig5", "x", lambda r: r, 0.10, below=True)
    assert above.margin(2.0) == pytest.approx(0.5)
    assert above.margin(1.5) == 0.0
    assert below.margin(0.04) == pytest.approx(0.06)
    assert below.margin(0.10) == 0.0
    assert not above.holds(above.margin(1.5))


def test_a_non_strict_anchor_holds_at_its_bound():
    at_least = Anchor("a4", "x", lambda r: r, 0.0, strict=False)
    at_most = Anchor("a4", "x", lambda r: r, 0.0, below=True, strict=False)
    assert at_least.holds(at_least.margin(0.0))
    assert at_most.holds(at_most.margin(0.0))
    assert not at_least.holds(at_least.margin(-1e-12))
    assert not at_most.holds(at_most.margin(1e-12))
    assert at_least.label() == "a4 x ≥ 0" and at_most.label() == "a4 x ≤ 0"


def test_ratio_at_zero_denominator():
    assert _ratio(3.0, 2.0) == 1.5
    assert _ratio(0.2, 0.0) == math.inf
    assert _ratio(0.0, 0.0) == -math.inf


def test_sweep_reports_one_row_per_anchor_and_shape_check():
    seeds = [0, 1]
    rows = sweep(seeds, scale="tiny")
    for anchor in ANCHORS:
        assert len(rows[anchor.label()]) == len(seeds)
    shape_rows = [label for label in rows if " shape " in label]
    assert shape_rows and all(
        isinstance(v, bool) for label in shape_rows for v in rows[label]
    )
    lines = render(rows, seeds).splitlines()
    assert len(lines) == 2 + len(rows)
    assert "seed 1" in lines[0] and lines[0].endswith("fails")
