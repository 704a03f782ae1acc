"""Tests for dual objective, complementary slackness and Theorem 1 checks."""

from __future__ import annotations

import pytest

from repro.core.auction import AuctionSolver
from repro.core.duality import (
    check_complementary_slackness,
    dual_objective,
    duality_gap,
    verify_theorem1,
)
from repro.core.result import ScheduleResult


class TestDualObjective:
    def test_formula(self, small_problem):
        prices = {100: 2.0, 200: 0.5}
        etas = {0: 1.0, 1: 0.0, 2: 3.0, 3: 0.0}
        # Σ λ_u B(u) = 2·2 + 0.5·1 = 4.5; Σ η = 4.0
        assert dual_objective(small_problem, prices, etas) == pytest.approx(8.5)

    def test_zero_duals(self, small_problem):
        assert dual_objective(small_problem, {}, {}) == 0.0


class TestCertificates:
    def test_auction_result_passes(self, small_problem):
        result = AuctionSolver(epsilon=1e-9).solve(small_problem)
        report = check_complementary_slackness(small_problem, result, tol=1e-6)
        assert report.optimal
        assert report.violations == []
        assert -1e-9 <= report.gap <= 1e-6

    def test_verify_theorem1_passes(self, small_problem):
        result = AuctionSolver(epsilon=1e-9).solve(small_problem)
        assert verify_theorem1(small_problem, result, epsilon=1e-9).optimal

    def test_detects_dual_infeasibility(self, small_problem):
        result = AuctionSolver(epsilon=1e-9).solve(small_problem)
        broken = ScheduleResult(
            assignment=dict(result.assignment),
            prices={u: 0.0 for u in result.prices},  # λ=0 but η too small
            etas={r: 0.0 for r in result.etas},
            stats=result.stats,
        )
        report = check_complementary_slackness(small_problem, broken, tol=1e-6)
        assert not report.dual_feasible
        assert any("dual infeasible" in v for v in report.violations)

    def test_detects_cs_capacity_violation(self, small_problem):
        """Positive price on an unsaturated uploader must be flagged."""
        result = AuctionSolver(epsilon=1e-9).solve(small_problem)
        prices = dict(result.prices)
        prices[200] = 50.0  # uploader 200 serves 1/1... raise on 100 instead
        prices[100] = 50.0
        broken = ScheduleResult(
            assignment={0: 100, 1: None, 2: 200, 3: None},  # 100 at 1/2 load
            prices=prices,
            etas={r: 100.0 for r in range(4)},  # keep dual feasible
            stats=result.stats,
        )
        report = check_complementary_slackness(small_problem, broken, tol=1e-6)
        assert not report.cs_capacity

    def test_detects_cs_assignment_violation(self, small_problem):
        """Assigned edge with λ + η ≠ v − w must be flagged."""
        broken = ScheduleResult(
            assignment={0: 100, 1: 100, 2: 200, 3: None},
            prices={100: 0.0, 200: 0.0},
            etas={0: 100.0, 1: 100.0, 2: 100.0, 3: 0.0},
            stats=None or ScheduleResult(assignment={}).stats,
        )
        report = check_complementary_slackness(small_problem, broken, tol=1e-6)
        assert not report.cs_assignment

    def test_detects_cs_request_violation(self, small_problem):
        """η > 0 on an unserved request must be flagged."""
        broken = ScheduleResult(
            assignment={0: None, 1: None, 2: None, 3: None},
            prices={100: 100.0, 200: 100.0},  # dual feasible via huge λ
            etas={0: 5.0, 1: 0.0, 2: 0.0, 3: 0.0},
        )
        report = check_complementary_slackness(small_problem, broken, tol=1e-6)
        assert not report.cs_request

    def test_verify_theorem1_rejects_infeasible_assignment(self, small_problem):
        solved = AuctionSolver(epsilon=1e-9).solve(small_problem)
        assignment = dict(solved.assignment)
        assignment[1] = 200  # overloads uploader 200 (B=1, now 2)
        result = ScheduleResult(
            assignment, solved.prices, solved.etas, solved.stats
        )
        with pytest.raises(AssertionError):
            verify_theorem1(small_problem, result, epsilon=1e-9)


class TestGap:
    def test_gap_nonnegative_at_optimum(self, small_problem):
        result = AuctionSolver(epsilon=1e-9).solve(small_problem)
        assert duality_gap(small_problem, result) >= -1e-12

    def test_gap_positive_for_suboptimal_primal(self, small_problem):
        result = AuctionSolver(epsilon=1e-9).solve(small_problem)
        weaker = ScheduleResult(
            assignment={0: 100, 1: None, 2: None, 3: None},  # welfare 7 < 16
            prices=result.prices,
            etas=result.etas,
        )
        assert duality_gap(small_problem, weaker) > 5.0
