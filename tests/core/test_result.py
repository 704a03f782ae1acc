"""Tests for ScheduleResult and SolverStats."""

from __future__ import annotations

import pytest

from repro.core.result import ScheduleResult, SolverStats


class TestScheduleResult:
    def test_counts(self, small_problem):
        result = ScheduleResult(assignment={0: 100, 1: 100, 2: 200, 3: None})
        assert result.n_served() == 3
        assert result.n_unserved() == 1

    def test_welfare(self, small_problem):
        result = ScheduleResult(assignment={0: 100, 1: 100, 2: 200, 3: None})
        assert result.welfare(small_problem) == pytest.approx(16.0)

    def test_served_edges_iterator(self, small_problem):
        result = ScheduleResult(assignment={0: 100, 1: None, 2: None, 3: None})
        edges = list(result.served_edges(small_problem))
        assert len(edges) == 1
        index, downstream, chunk, uploader, utility = edges[0]
        assert (index, downstream, chunk, uploader) == (0, 1, "a", 100)
        assert utility == pytest.approx(7.0)

    def test_uploader_loads(self, small_problem):
        result = ScheduleResult(assignment={0: 100, 1: 100, 2: 200, 3: None})
        assert result.uploader_loads() == {100: 2, 200: 1}

    def test_check_feasible_passes(self, small_problem):
        ScheduleResult(assignment={0: 100, 1: 100, 2: 200, 3: None}).check_feasible(
            small_problem
        )

    def test_check_feasible_rejects_overload(self, small_problem):
        result = ScheduleResult(assignment={0: 200, 1: None, 2: 200, 3: None})
        with pytest.raises(AssertionError):
            result.check_feasible(small_problem)  # 200 has B=1

    def test_check_feasible_rejects_non_candidate(self, small_problem):
        result = ScheduleResult(assignment={0: 100, 1: 200, 2: None, 3: None})
        with pytest.raises(AssertionError):
            result.check_feasible(small_problem)  # r1 has no edge to 200

    def test_check_feasible_rejects_missing_requests(self, small_problem):
        result = ScheduleResult(assignment={0: 100})
        with pytest.raises(AssertionError):
            result.check_feasible(small_problem)

    def test_summary_text(self, small_problem):
        result = ScheduleResult(assignment={0: 100, 1: None, 2: None, 3: None})
        text = result.summary(small_problem)
        assert "welfare=7.000" in text
        assert "served=1/4" in text


class TestSolverStats:
    def test_merge_adds_counters(self):
        a = SolverStats(rounds=1, bids_submitted=5, converged=True)
        b = SolverStats(rounds=2, bids_submitted=7, evictions=1, converged=True)
        merged = a.merge(b)
        assert merged.rounds == 3
        assert merged.bids_submitted == 12
        assert merged.evictions == 1

    def test_merge_propagates_non_convergence(self):
        a = SolverStats(converged=True)
        b = SolverStats(converged=False)
        assert not a.merge(b).converged

    def test_telemetry_is_summed_but_not_compared(self):
        a = SolverStats(rounds=2, rows_evaluated=10, scalar_rounds=1)
        b = SolverStats(rounds=3, rows_evaluated=4, scalar_rounds=2)
        merged = a.merge(b)
        assert (merged.rows_evaluated, merged.scalar_rounds) == (14, 3)
        # How a solve did its work is not part of what it found.
        assert SolverStats(rounds=2) == a
