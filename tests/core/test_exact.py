"""Tests for the exact reference solvers (oracles)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exact import (
    solve_hungarian,
    solve_lp_relaxation,
    solve_min_cost_flow,
)
from repro.core.problem import ProblemBuilder, random_problem


class TestHungarian:
    def test_known_optimum(self, small_problem, small_problem_optimum):
        result = solve_hungarian(small_problem)
        result.check_feasible(small_problem)
        assert result.welfare(small_problem) == pytest.approx(small_problem_optimum)

    def test_leaves_negative_requests_unserved(self, small_problem):
        assert solve_hungarian(small_problem).assignment[3] is None


class TestLPRelaxation:
    def test_integral_and_matches_hungarian(self, rng):
        for _ in range(8):
            p = random_problem(rng, n_requests=30, n_uploaders=6)
            lp = solve_lp_relaxation(p)
            assert lp.integral, f"fractional LP vertex: {lp.max_fractionality}"
            assert lp.value == pytest.approx(
                solve_hungarian(p).welfare(p), abs=1e-6
            )

    def test_lp_result_feasible(self, rng):
        p = random_problem(rng, n_requests=25, n_uploaders=4, capacity_range=(1, 2))
        lp = solve_lp_relaxation(p)
        lp.result.check_feasible(p)

    def test_empty_edges(self):
        builder = ProblemBuilder()
        builder.set_capacity(1, 1)
        builder.add_request(2, "a", 5.0, {})
        p = builder.build()
        lp = solve_lp_relaxation(p)
        assert lp.value == 0.0
        assert lp.integral

    def test_known_optimum(self, small_problem, small_problem_optimum):
        assert solve_lp_relaxation(small_problem).value == pytest.approx(
            small_problem_optimum
        )


class TestMinCostFlow:
    def test_known_optimum(self, small_problem, small_problem_optimum):
        result = solve_min_cost_flow(small_problem)
        result.check_feasible(small_problem)
        assert result.welfare(small_problem) == pytest.approx(small_problem_optimum)

    def test_exact_on_integer_weights(self, rng):
        for _ in range(8):
            p = random_problem(rng, n_requests=30, n_uploaders=5, integer_weights=True)
            flow = solve_min_cost_flow(p, scale=1)
            assert flow.welfare(p) == pytest.approx(
                solve_hungarian(p).welfare(p), abs=1e-9
            )

    def test_close_on_float_weights(self, rng):
        p = random_problem(rng, n_requests=40, n_uploaders=6)
        flow = solve_min_cost_flow(p, scale=10**6)
        hungarian = solve_hungarian(p).welfare(p)
        assert flow.welfare(p) == pytest.approx(hungarian, abs=1e-3)


class TestOraclesAgree:
    @pytest.mark.parametrize("seed", range(6))
    def test_three_way_agreement(self, seed):
        rng = np.random.default_rng(seed)
        p = random_problem(
            rng,
            n_requests=int(rng.integers(5, 50)),
            n_uploaders=int(rng.integers(2, 8)),
            capacity_range=(1, 3),
        )
        hungarian = solve_hungarian(p).welfare(p)
        lp = solve_lp_relaxation(p).value
        flow = solve_min_cost_flow(p).welfare(p)
        assert hungarian == pytest.approx(lp, abs=1e-6)
        assert hungarian == pytest.approx(flow, abs=1e-3)
