"""Tests for the scheduler registry and adapters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.scheduler import (
    AuctionScheduler,
    ChunkScheduler,
    HungarianScheduler,
    LPScheduler,
    available_schedulers,
    make_scheduler,
)


class TestRegistry:
    def test_all_names_instantiable(self):
        rng = np.random.default_rng(0)
        for name in available_schedulers():
            scheduler = make_scheduler(name, rng=rng)
            assert isinstance(scheduler, ChunkScheduler)
            assert scheduler.name == name

    def test_expected_names_present(self):
        names = available_schedulers()
        for expected in ("auction", "locality", "locality-retry", "agnostic",
                         "greedy", "random", "hungarian", "lp"):
            assert expected in names

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("nope")

    def test_kwargs_forwarded(self):
        scheduler = make_scheduler("auction", epsilon=0.5)
        assert scheduler.epsilon == 0.5


class TestAdapters:
    def test_auction_scheduler_optimal(self, small_problem, small_problem_optimum):
        result = AuctionScheduler(epsilon=1e-9).schedule(small_problem)
        assert result.welfare(small_problem) == pytest.approx(small_problem_optimum)

    def test_hungarian_scheduler(self, small_problem, small_problem_optimum):
        result = HungarianScheduler().schedule(small_problem)
        assert result.welfare(small_problem) == pytest.approx(small_problem_optimum)

    def test_lp_scheduler(self, small_problem, small_problem_optimum):
        result = LPScheduler().schedule(small_problem)
        assert result.welfare(small_problem) == pytest.approx(small_problem_optimum)

    def test_all_schedulers_feasible_on_small_problem(self, small_problem):
        rng = np.random.default_rng(1)
        for name in available_schedulers():
            result = make_scheduler(name, rng=rng).schedule(small_problem)
            result.check_feasible(small_problem)
