"""Archived ablation results must regenerate from the live pipeline.

``results/ablation_solvers.txt`` and ``results/ablation_epsilon.txt``
are produced by the benchmark harness from the array-native problem
pipeline.  These smoke tests re-run the exact generating configuration
and assert the rendered table matches the archived text byte for byte
(the tables hold no wall-clock columns).  A mismatch means the
pipeline's numeric behaviour changed and the archives (and any
conclusions drawn from them) are stale.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro.experiments.sweep import (
    epsilon_sweep,
    rebid_study,
    render_epsilon_sweep,
    render_rebid_study,
    render_solver_comparison,
    solver_comparison,
)

RESULTS = pathlib.Path(__file__).resolve().parent.parent.parent / "results"


@pytest.mark.skipif(
    not (RESULTS / "ablation_solvers.txt").exists(),
    reason="archive not generated yet",
)
def test_ablation_solvers_regenerates_identically():
    archived = (RESULTS / "ablation_solvers.txt").read_text(encoding="utf-8")
    rows = solver_comparison(
        rng=np.random.default_rng(1),
        n_requests=800,
        n_uploaders=40,
        max_candidates=8,
        epsilon=0.01,
    )
    assert render_solver_comparison(rows) + "\n" == archived


@pytest.mark.skipif(
    not (RESULTS / "ablation_rebid.txt").exists(),
    reason="archive not generated yet",
)
def test_ablation_rebid_regenerates_identically():
    """The re-bid study's leading lines must regenerate byte-equal.

    Heavier than the other regen pins (seven end-to-end runs), so it
    samples the study at its first two round counts and compares just
    those lines (note, header, rule and three rows) against the archive.
    """
    archived = (RESULTS / "ablation_rebid.txt").read_text(encoding="utf-8")
    rows = rebid_study(rounds_list=(1, 2), seed=0)
    regenerated = render_rebid_study(rows).splitlines()
    assert regenerated == archived.splitlines()[: len(regenerated)]


@pytest.mark.skipif(
    not (RESULTS / "ablation_epsilon.txt").exists(),
    reason="archive not generated yet",
)
def test_ablation_epsilon_regenerates_identically():
    archived = (RESULTS / "ablation_epsilon.txt").read_text(encoding="utf-8")
    rows = epsilon_sweep(
        [10.0, 1.0, 0.1, 0.01, 0.001],
        rng=np.random.default_rng(0),
        n_requests=600,
        n_uploaders=30,
        max_candidates=8,
    )
    assert render_epsilon_sweep(rows) + "\n" == archived
