"""Tests for the baseline schedulers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.auction import AuctionSolver
from repro.core.baselines import (
    LocalityRetryScheduler,
    NetworkAgnosticScheduler,
    RandomScheduler,
    SimpleLocalityScheduler,
    UtilityGreedyScheduler,
)
from repro.core.problem import ProblemBuilder, random_problem


def contended_problem():
    """Three requests competing for one cheap uploader (B=1) plus a dearer one."""
    builder = ProblemBuilder()
    builder.set_capacity(10, 1)  # cheap
    builder.set_capacity(20, 2)  # expensive
    builder.add_request(1, "a", 8.0, {10: 0.5, 20: 4.0})
    builder.add_request(2, "b", 6.0, {10: 0.5, 20: 4.0})
    builder.add_request(3, "c", 4.0, {10: 0.5, 20: 4.0})
    p = builder.build()
    return p


class TestSimpleLocality:
    def test_requests_cheapest_neighbor(self, small_problem):
        result = SimpleLocalityScheduler().schedule(small_problem)
        # r0's cheapest is 100 (cost 1 < 2), r2's cheapest is 200 (1 < 4).
        assert result.assignment[0] == 100
        assert result.assignment[2] == 200

    def test_serves_negative_utility_edges(self, small_problem):
        """The strawman ignores valuations: r3 (v−w = −1) still gets served."""
        result = SimpleLocalityScheduler().schedule(small_problem)
        assert result.assignment[3] == 200 or result.assignment[2] == 200
        # Whoever got 200, locality filled it with the more urgent request:
        # r2 (v=5) beats r3 (v=2).
        assert result.assignment[2] == 200
        assert result.assignment[3] is None

    def test_single_shot_drops_overflow(self):
        """All three pile on the cheap uploader; the two less urgent are
        dropped even though uploader 20 has room — the paper's strawman."""
        result = SimpleLocalityScheduler().schedule(contended_problem())
        assert result.assignment[0] == 10  # most urgent wins the hotspot
        assert result.assignment[1] is None
        assert result.assignment[2] is None

    def test_urgency_priority_at_uploader(self):
        builder = ProblemBuilder()
        builder.set_capacity(10, 1)
        builder.add_request(1, "a", 2.0, {10: 0.5})
        builder.add_request(2, "b", 9.0, {10: 0.5})
        p = builder.build()
        result = SimpleLocalityScheduler().schedule(p)
        assert result.assignment[1] == 10
        assert result.assignment[0] is None


class TestLocalityRetry:
    def test_overflow_retries_next_cheapest(self):
        result = LocalityRetryScheduler().schedule(contended_problem())
        assert result.assignment[0] == 10
        assert result.assignment[1] == 20
        assert result.assignment[2] == 20

    def test_serves_weakly_more_than_single_shot(self, rng):
        for _ in range(5):
            p = random_problem(rng, n_requests=40, n_uploaders=5, capacity_range=(1, 2))
            single = SimpleLocalityScheduler().schedule(p).n_served()
            retry = LocalityRetryScheduler().schedule(p).n_served()
            assert retry >= single


class TestAgnostic:
    def test_deterministic_given_rng(self, small_problem):
        a = NetworkAgnosticScheduler(np.random.default_rng(3)).schedule(small_problem)
        b = NetworkAgnosticScheduler(np.random.default_rng(3)).schedule(small_problem)
        assert a.assignment == b.assignment

    def test_feasible(self, rng):
        p = random_problem(rng, n_requests=50, n_uploaders=6, capacity_range=(1, 2))
        NetworkAgnosticScheduler(rng).schedule(p).check_feasible(p)

    def test_retry_mode_serves_more(self, rng):
        p = random_problem(rng, n_requests=60, n_uploaders=4, capacity_range=(1, 2))
        single = NetworkAgnosticScheduler(np.random.default_rng(1)).schedule(p)
        retry = NetworkAgnosticScheduler(np.random.default_rng(1), retries=True).schedule(p)
        assert retry.n_served() >= single.n_served()

    def test_ignores_cost_on_average(self, rng):
        """Agnostic picks expensive uploaders as readily as cheap ones;
        locality must achieve lower total cost on the same instance."""
        p = random_problem(rng, n_requests=100, n_uploaders=8, max_candidates=6)

        def total_cost(result):
            return sum(
                p.cost_of_edge(r, u)
                for r, u in result.assignment.items()
                if u is not None
            )

        locality_cost = total_cost(SimpleLocalityScheduler().schedule(p))
        agnostic_cost = total_cost(NetworkAgnosticScheduler(rng).schedule(p))
        assert locality_cost < agnostic_cost


class TestGreedy:
    def test_known_optimum_when_greedy_suffices(self, small_problem, small_problem_optimum):
        result = UtilityGreedyScheduler().schedule(small_problem)
        assert result.welfare(small_problem) == pytest.approx(small_problem_optimum)

    def test_never_serves_negative(self, rng):
        p = random_problem(rng, n_requests=40, n_uploaders=5,
                           valuation_range=(0.0, 2.0), cost_range=(3.0, 10.0))
        result = UtilityGreedyScheduler().schedule(p)
        assert result.n_served() == 0

    def test_auction_weakly_beats_greedy(self, rng):
        """The auction is optimal per instance, so it can't lose to greedy."""
        for _ in range(8):
            p = random_problem(rng, n_requests=40, n_uploaders=5, capacity_range=(1, 2))
            auction = AuctionSolver(epsilon=1e-7).solve(p).welfare(p)
            greedy = UtilityGreedyScheduler().schedule(p).welfare(p)
            assert auction >= greedy - 40 * 1e-7 - 1e-9


class TestRandom:
    def test_feasible_and_deterministic(self, rng):
        p = random_problem(rng, n_requests=50, n_uploaders=5, capacity_range=(1, 2))
        a = RandomScheduler(np.random.default_rng(7)).schedule(p)
        b = RandomScheduler(np.random.default_rng(7)).schedule(p)
        a.check_feasible(p)
        assert a.assignment == b.assignment

    def test_positive_only_mode(self, rng):
        p = random_problem(rng, n_requests=50, n_uploaders=5,
                           valuation_range=(0.0, 2.0), cost_range=(3.0, 10.0))
        result = RandomScheduler(rng, positive_only=True).schedule(p)
        assert result.n_served() == 0

    def test_auction_beats_random_on_welfare(self, rng):
        p = random_problem(rng, n_requests=80, n_uploaders=8, capacity_range=(1, 3))
        auction = AuctionSolver(epsilon=1e-7).solve(p).welfare(p)
        rand = RandomScheduler(rng).schedule(p).welfare(p)
        assert auction >= rand
