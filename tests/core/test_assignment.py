"""Tests for the transportation → assignment conversion (Fig. 1)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import optimize

from repro.core.assignment import FORBIDDEN, expand_to_assignment
from repro.core.exact import solve_hungarian
from repro.core.problem import ProblemBuilder, random_problem


class TestExpansion:
    def test_slot_counts_match_capacity(self, small_problem):
        expansion = expand_to_assignment(small_problem)
        assert expansion.n_real_slots == small_problem.total_capacity()
        # Uploader 100 owns 2 slots, 200 owns 1.
        owners = list(expansion.slot_owner)
        assert owners.count(100) == 2
        assert owners.count(200) == 1

    def test_matrix_shape_includes_dummies(self, small_problem):
        expansion = expand_to_assignment(small_problem)
        n, s = small_problem.n_requests, small_problem.total_capacity()
        assert expansion.weights.shape == (n, s + n)

    def test_slot_copies_share_edge_weight(self, small_problem):
        """Fig. 1: each of B(u) slot copies carries the original weight."""
        expansion = expand_to_assignment(small_problem)
        slots_100 = [i for i, o in enumerate(expansion.slot_owner) if o == 100]
        for r in range(small_problem.n_requests):
            weights = {expansion.weights[r, s] for s in slots_100}
            assert len(weights) == 1  # identical on all copies

    def test_dummy_column_is_own_outside_option(self, small_problem):
        expansion = expand_to_assignment(small_problem)
        s = expansion.n_real_slots
        for r in range(small_problem.n_requests):
            assert expansion.weights[r, s + r] == 0.0
            for other in range(small_problem.n_requests):
                if other != r:
                    assert expansion.weights[r, s + other] == FORBIDDEN

    def test_absent_edges_forbidden(self, small_problem):
        expansion = expand_to_assignment(small_problem)
        # Request 1 has no edge to uploader 200 (slot index 2).
        slot_200 = [i for i, o in enumerate(expansion.slot_owner) if o == 200][0]
        assert expansion.weights[1, slot_200] == FORBIDDEN


class TestRoundTrip:
    def test_matching_converts_back(self, small_problem, small_problem_optimum):
        expansion = expand_to_assignment(small_problem)
        rows, cols = optimize.linear_sum_assignment(expansion.weights, maximize=True)
        result = expansion.to_result(rows, cols)
        result.check_feasible(small_problem)
        assert result.welfare(small_problem) == pytest.approx(small_problem_optimum)

    def test_negative_edges_never_selected(self, rng):
        """The dummy (0) column dominates any negative edge."""
        for _ in range(10):
            p = random_problem(
                rng, n_requests=20, n_uploaders=5, valuation_range=(0.0, 3.0),
                cost_range=(2.0, 10.0),  # most edges negative
            )
            result = solve_hungarian(p)
            for r, uploader in result.assignment.items():
                if uploader is not None:
                    assert p.edge_value(r, uploader) >= 0.0

    def test_equivalence_with_capacity_scarcity(self, rng):
        """Expansion optimum == direct ILP optimum on scarce instances."""
        p = random_problem(rng, n_requests=40, n_uploaders=3, capacity_range=(1, 2))
        hungarian = solve_hungarian(p).welfare(p)
        # Independent check through the LP relaxation.
        from repro.core.exact import solve_lp_relaxation

        assert hungarian == pytest.approx(solve_lp_relaxation(p).value, abs=1e-6)

    def test_empty_problem(self):
        builder = ProblemBuilder()
        builder.set_capacity(1, 2)
        p = builder.build()
        expansion = expand_to_assignment(p)
        assert expansion.weights.shape == (0, 2)
        result = solve_hungarian(p)
        assert result.assignment == {}
