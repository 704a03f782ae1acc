"""Shared fixtures for the benchmark harness.

Each figure bench runs its experiment once (``benchmark.pedantic`` with a
single round — these are minutes-scale simulations, not microbenchmarks),
prints the same series the paper plots, asserts the paper's qualitative
shape, and archives the text under ``results/`` for EXPERIMENTS.md.

Benches reach the archive through the ``archive`` fixture, not by
importing from this module: ``from conftest import ...`` resolves to
whichever ``conftest`` module pytest imported first, which in a run
that also collects ``tests/`` can be ``tests/conftest.py``.
"""

from __future__ import annotations

import pathlib
from typing import Callable

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture
def archive() -> Callable[[str, str], None]:
    """``archive(name, text)``: print a result block, save it as results/<name>.txt."""

    def write(name: str, text: str) -> None:
        print(f"\n{text}\n")
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")

    return write
