"""Tests for the primal-dual auction (Alg. 1)."""

from __future__ import annotations

import pathlib
import sys

import numpy as np
import pytest

from repro.core.auction import (
    AuctionNonConvergence,
    AuctionSolver,
    PriceTrace,
)
from repro.core.exact import solve_hungarian
from repro.core.problem import ProblemBuilder, SchedulingProblem, random_problem
from repro.core.scheduler import AuctionScheduler

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "oracles"))
from auction import solve_in_mode  # noqa: E402

MODES = ("gauss-seidel", "jacobi")


@pytest.fixture(params=MODES)
def mode(request):
    return request.param


class TestKnownOptima:
    def test_small_problem_optimal(self, small_problem, small_problem_optimum, mode):
        result = AuctionSolver(epsilon=1e-9, mode=mode).solve(small_problem)
        result.check_feasible(small_problem)
        assert result.welfare(small_problem) == pytest.approx(small_problem_optimum)

    def test_never_serves_negative_utility(self, small_problem, mode):
        result = AuctionSolver(epsilon=1e-9, mode=mode).solve(small_problem)
        assert result.assignment[3] is None  # v − w = −1 at its only edge

    def test_single_request_single_uploader(self, mode):
        builder = ProblemBuilder()
        builder.set_capacity(10, 1)
        builder.add_request(1, "a", 5.0, {10: 2.0})
        p = builder.build()
        result = AuctionSolver(mode=mode).solve(p)
        assert result.assignment[0] == 10
        assert result.welfare(p) == pytest.approx(3.0)

    def test_contention_highest_value_wins(self, mode):
        """Two requests, one slot: the higher-surplus request must win."""
        builder = ProblemBuilder()
        builder.set_capacity(10, 1)
        builder.add_request(1, "a", 8.0, {10: 1.0})  # surplus 7
        builder.add_request(2, "b", 5.0, {10: 1.0})  # surplus 4
        p = builder.build()
        result = AuctionSolver(epsilon=1e-6, mode=mode).solve(p)
        assert result.assignment[0] == 10
        assert result.assignment[1] is None
        # The price must have been bid up beyond what the loser pays.
        assert result.prices[10] >= 4.0 - 1e-6

    def test_spreads_across_uploaders(self, mode):
        """Capacity-1 uploaders force the optimum to spread requests."""
        builder = ProblemBuilder()
        builder.set_capacity(10, 1)
        builder.set_capacity(20, 1)
        builder.add_request(1, "a", 9.0, {10: 1.0, 20: 2.0})
        builder.add_request(2, "b", 9.0, {10: 1.0, 20: 2.0})
        p = builder.build()
        result = AuctionSolver(epsilon=1e-6, mode=mode).solve(p)
        assigned = {result.assignment[0], result.assignment[1]}
        assert assigned == {10, 20}
        assert result.welfare(p) == pytest.approx(15.0)

    def test_empty_problem(self, mode):
        builder = ProblemBuilder()
        builder.set_capacity(10, 2)
        p = builder.build()
        result = AuctionSolver(mode=mode).solve(p)
        assert result.assignment == {}
        assert result.welfare(p) == 0.0

    def test_request_without_candidates_unserved(self, mode):
        builder = ProblemBuilder()
        builder.set_capacity(10, 1)
        builder.add_request(1, "a", 5.0, {})
        builder.add_request(2, "b", 5.0, {10: 1.0})
        p = builder.build()
        result = AuctionSolver(mode=mode).solve(p)
        assert result.assignment[0] is None
        assert result.assignment[1] == 10

    def test_zero_capacity_uploader_ignored(self, mode):
        builder = ProblemBuilder()
        builder.set_capacity(10, 0)
        builder.set_capacity(20, 1)
        builder.add_request(1, "a", 5.0, {10: 0.1, 20: 1.0})
        p = builder.build()
        result = AuctionSolver(mode=mode).solve(p)
        assert result.assignment[0] == 20


class TestEpsilonZeroPaperMode:
    def test_untied_instance_still_optimal(self, small_problem, small_problem_optimum, mode):
        result = AuctionSolver(epsilon=0.0, mode=mode).solve(small_problem)
        assert result.welfare(small_problem) == pytest.approx(small_problem_optimum)

    def test_exact_tie_goes_dormant_and_terminates(self, mode):
        """Two identical options tie exactly: with ε=0 the bid equals the
        price, the bidder waits (paper rule), and the auction still ends."""
        builder = ProblemBuilder()
        builder.set_capacity(10, 1)
        builder.set_capacity(20, 1)
        builder.add_request(1, "a", 5.0, {10: 1.0, 20: 1.0})
        p = builder.build()
        result = AuctionSolver(epsilon=0.0, mode=mode).solve(p)
        # ties at price 0 with positive utility: bid = λ ⇒ dormant forever
        # OR assigned if the implementation's argmax committed first.
        assert result.stats.converged
        # Whatever happened, feasibility and price sanity hold.
        result.check_feasible(p)


class TestDiagnostics:
    def test_budget_exhaustion_raises(self, mode):
        rng = np.random.default_rng(0)
        p = random_problem(rng, n_requests=50, n_uploaders=3, max_candidates=3)
        solver = AuctionSolver(
            epsilon=1e-12,
            mode=mode,
            max_bids=3,
            max_rounds=1,
        )
        with pytest.raises(AuctionNonConvergence):
            solver.solve(p)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AuctionSolver(epsilon=-1.0)
        with pytest.raises(ValueError):
            AuctionSolver(mode="bogus")
        with pytest.raises(ValueError, match="mode"):
            AuctionSolver(mode="jacobi-dense")  # an oracle now, not a mode

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -1.0])
    @pytest.mark.parametrize("solver_mode", ["gauss-seidel", "jacobi", "jacobi-dense"])
    def test_non_finite_epsilon_rejected(self, small_problem, epsilon, solver_mode):
        # NaN let jacobi serve nothing at λ = 0 and gauss-seidel serve
        # at λ = inf; inf posted λ = inf everywhere.
        with pytest.raises(ValueError, match="epsilon"):
            solve_in_mode(solver_mode, small_problem, epsilon=epsilon)

    def test_scheduler_rejects_bad_epsilon_at_construction(self):
        with pytest.raises(ValueError, match="epsilon"):
            AuctionScheduler(epsilon=float("nan"))

    def test_stats_counters_populated(self, small_problem, mode):
        result = AuctionSolver(epsilon=1e-9, mode=mode).solve(small_problem)
        assert result.stats.bids_submitted >= 3
        assert result.stats.converged

    def test_price_trace_recorded(self, small_problem):
        trace = PriceTrace()
        AuctionSolver(epsilon=1e-9, mode="jacobi", trace=trace).solve(small_problem)
        assert len(trace.times) >= 1
        times, prices = trace.series(100)
        assert len(times) == len(prices)

    def test_price_update_callback(self, mode):
        builder = ProblemBuilder()
        builder.set_capacity(10, 1)
        builder.add_request(1, "a", 8.0, {10: 1.0})
        builder.add_request(2, "b", 5.0, {10: 1.0})
        p = builder.build()
        updates = []
        AuctionSolver(
            epsilon=1e-6, mode=mode, on_price_update=lambda t, u, pr: updates.append((u, pr))
        ).solve(p)
        assert updates
        assert all(u == 10 for u, _ in updates)
        prices = [pr for _, pr in updates]
        assert prices == sorted(prices)  # prices never decrease


class TestWarmStart:
    def test_initial_prices_respected(self, mode):
        builder = ProblemBuilder()
        builder.set_capacity(10, 1)
        builder.set_capacity(20, 1)
        builder.add_request(1, "a", 5.0, {10: 1.0, 20: 1.5})
        p = builder.build()
        # Price 10 out of reach: the request must go to 20.
        result = AuctionSolver(epsilon=1e-9, mode=mode).solve(
            p, initial_prices={10: 100.0}
        )
        assert result.assignment[0] == 20

    def test_negative_initial_prices_clamped(self, mode):
        builder = ProblemBuilder()
        builder.set_capacity(10, 1)
        builder.add_request(1, "a", 5.0, {10: 1.0})
        p = builder.build()
        result = AuctionSolver(mode=mode).solve(p, initial_prices={10: -5.0})
        assert result.assignment[0] == 10

    @staticmethod
    def two_uploaders() -> SchedulingProblem:
        """Uploaders 10 and 20 (B = 1), one request for each."""
        builder = ProblemBuilder()
        builder.set_capacity(10, 1)
        builder.set_capacity(20, 1)
        builder.add_request(1, "a", 5.0, {10: 1.0})
        builder.add_request(2, "b", 5.0, {20: 1.0})
        return builder.build()

    @pytest.mark.parametrize("price", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("form", ["dict", "arrays"])
    def test_non_finite_initial_prices_rejected(self, mode, price, form):
        # A NaN in the array form left jacobi serving nothing at λ = NaN;
        # the other forms and modes read it as 0 (max(0.0, nan) is 0.0).
        prices = {10: price, 20: 0.5}
        if form == "arrays":
            prices = (np.array([10, 20]), np.array([price, 0.5]))
        with pytest.raises(ValueError, match="initial_prices"):
            AuctionSolver(mode=mode).solve(self.two_uploaders(), initial_prices=prices)

    @pytest.mark.parametrize("n_ids, n_vals", [(2, 3), (3, 2)])
    def test_unequal_price_arrays_rejected(self, mode, n_ids, n_vals):
        # Jacobi adopted a 3-long λ for 2 uploaders when the ids matched
        # and raised IndexError when the ids were longer; Gauss-Seidel
        # zipped the two and dropped the extra silently.
        prices = (np.array([10, 20, 30][:n_ids]), np.full(n_vals, 0.5))
        with pytest.raises(ValueError, match="initial_prices"):
            AuctionSolver(mode=mode).solve(self.two_uploaders(), initial_prices=prices)


class TestModesAgree:
    @pytest.mark.parametrize("seed", range(5))
    def test_same_welfare_both_modes(self, seed):
        rng = np.random.default_rng(seed)
        p = random_problem(rng, n_requests=60, n_uploaders=8, max_candidates=5)
        gs = AuctionSolver(epsilon=1e-7, mode="gauss-seidel").solve(p)
        jac = AuctionSolver(epsilon=1e-7, mode="jacobi").solve(p)
        assert gs.welfare(p) == pytest.approx(jac.welfare(p), abs=1e-4)

    def test_auto_mode_rejected(self):
        with pytest.raises(ValueError, match="'auto'"):
            AuctionSolver(mode="auto")


class TestScarcity:
    """Outside Theorem 1's sufficiency assumption the auction must still
    terminate and match the optimum (with adequate ε)."""

    @pytest.mark.parametrize("seed", range(3))
    def test_heavy_contention_reaches_optimum(self, seed, mode):
        rng = np.random.default_rng(seed)
        p = random_problem(
            rng,
            n_requests=80,
            n_uploaders=4,
            max_candidates=3,
            capacity_range=(1, 3),
        )
        result = AuctionSolver(epsilon=0.01, mode=mode).solve(p)
        result.check_feasible(p)
        optimum = solve_hungarian(p).welfare(p)
        assert result.welfare(p) >= optimum - 80 * 0.01 - 1e-9
