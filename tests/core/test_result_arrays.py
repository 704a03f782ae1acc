"""Array-native ScheduleResult: dict views round-trip the arrays exactly.

The result's source of truth is numpy columns; the dict API is a lazy,
read-only view.  These tests pin the round trip both ways (dicts →
arrays → dict views, arrays → dict views → arrays), the array
accessors, and that every edit through a view raises ``TypeError``
and leaves the arrays as they were.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.auction import AuctionSolver
from repro.core.baselines import UtilityGreedyScheduler
from repro.core.problem import ProblemBuilder, random_problem
from repro.core.result import ScheduleResult, SolverStats

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "oracles"))
from auction import solve_in_mode  # noqa: E402

assignments = st.lists(
    st.one_of(st.none(), st.integers(min_value=0, max_value=500)),
    max_size=40,
)
price_maps = st.dictionaries(
    st.integers(min_value=0, max_value=500),
    st.floats(min_value=0.0, max_value=100.0),
    max_size=20,
)


class TestDictRoundTrip:
    @given(uploads=assignments, prices=price_maps)
    @settings(max_examples=150, deadline=None)
    def test_dict_constructor_round_trips(self, uploads, prices):
        assignment = dict(enumerate(uploads))
        etas = {r: float(r) * 0.5 for r in assignment}
        result = ScheduleResult(assignment=assignment, prices=prices, etas=etas)
        # Dict views reproduce the inputs exactly (values and order).
        assert result.assignment == assignment
        assert list(result.assignment) == list(assignment)
        assert result.prices == prices
        assert result.etas == etas
        # Arrays agree with the dicts.
        ids = result.request_indices()
        arr = result.assignment_array()
        mask = result.served_mask()
        for r, u, s in zip(ids.tolist(), arr.tolist(), mask.tolist()):
            assert s == (assignment[r] is not None)
            if s:
                assert u == assignment[r]
        assert result.n_served() == sum(u is not None for u in uploads)

    @given(uploads=assignments)
    @settings(max_examples=80, deadline=None)
    def test_served_pairs_match_dict(self, uploads):
        result = ScheduleResult(assignment=dict(enumerate(uploads)))
        indices, uploaders = result.served_pairs()
        expected = [(r, u) for r, u in enumerate(uploads) if u is not None]
        assert list(zip(indices.tolist(), uploaders.tolist())) == expected

    def test_from_arrays_round_trips(self):
        uploaders = np.array([50, 60, 70], dtype=np.int64)
        assigned = np.array([1, -1, 0, 2, -1], dtype=np.int64)
        lam = np.array([0.5, 0.0, 2.5])
        etas = np.array([1.0, 0.0, 3.0, 0.0, 0.25])
        result = ScheduleResult.from_arrays(
            assigned, uploaders, lam, etas, SolverStats(rounds=3)
        )
        assert result.assignment == {0: 60, 1: None, 2: 50, 3: 70, 4: None}
        assert result.prices == {50: 0.5, 60: 0.0, 70: 2.5}
        assert result.etas == {0: 1.0, 1: 0.0, 2: 3.0, 3: 0.0, 4: 0.25}
        assert result.n_served() == 3
        assert result.uploader_loads() == {50: 1, 60: 1, 70: 1}
        assert result.stats.rounds == 3
        # Round trip: rebuild from the dict views and compare arrays.
        rebuilt = ScheduleResult(
            assignment=dict(result.assignment),
            prices=dict(result.prices),
            etas=dict(result.etas),
        )
        assert np.array_equal(
            rebuilt.assignment_array(), result.assignment_array()
        )
        assert np.array_equal(rebuilt.served_mask(), result.served_mask())

    def test_from_arrays_no_uploaders(self):
        """Requests with no declared uploaders must yield an all-None result."""
        result = ScheduleResult.from_arrays(
            np.full(3, -1, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert result.assignment == {0: None, 1: None, 2: None}
        assert result.n_served() == 0
        assert result.prices == {}

    def test_solver_handles_request_only_problem(self):
        builder = ProblemBuilder()
        builder.add_request(peer=1, chunk="a", valuation=2.0, candidates={})
        builder.add_request(peer=2, chunk="b", valuation=3.0, candidates={})
        p = builder.build()
        for mode in ("jacobi", "jacobi-dense", "gauss-seidel"):
            result = solve_in_mode(mode, p, epsilon=1e-6)
            assert result.assignment == {0: None, 1: None}

    def test_from_assignment_ids_round_trips(self):
        assigned = np.array([7, -1, 9], dtype=np.int64)
        result = ScheduleResult.from_assignment_ids(assigned, prices={7: 1.0})
        assert result.assignment == {0: 7, 1: None, 2: 9}
        assert result.prices == {7: 1.0}
        assert result.etas == {}
        assert np.array_equal(result.assignment_array(), assigned)

    def test_solver_results_identical_dicts_across_backings(self):
        """Auction results (array-backed) equal dict-backed reconstructions."""
        p = random_problem(np.random.default_rng(4), n_requests=40)
        result = AuctionSolver(epsilon=1e-6, mode="jacobi").solve(p)
        clone = ScheduleResult(
            assignment=dict(result.assignment),
            prices=dict(result.prices),
            etas=dict(result.etas),
            stats=result.stats,
        )
        assert clone.assignment == result.assignment
        assert clone.welfare(p) == pytest.approx(result.welfare(p))
        assert clone.uploader_loads() == result.uploader_loads()
        assert clone.n_served() == result.n_served()


def _three_ways():
    """The same result built by each constructor."""
    uploaders = np.array([10, 20], dtype=np.int64)
    return {
        "from_arrays": ScheduleResult.from_arrays(
            np.array([0, -1, 1]), uploaders, np.array([1.0, 2.0]),
            np.array([0.5, 0.0, 0.25]),
        ),
        "from_assignment_ids": ScheduleResult.from_assignment_ids(
            np.array([10, -1, 20]), prices={10: 1.0, 20: 2.0},
            etas={0: 0.5, 1: 0.0, 2: 0.25},
        ),
        "dict": ScheduleResult(
            assignment={0: 10, 1: None, 2: 20}, prices={10: 1.0, 20: 2.0},
            etas={0: 0.5, 1: 0.0, 2: 0.25},
        ),
    }


def _arrays(result):
    return [
        a.tolist()
        for a in (
            result.request_indices(), result.assignment_array(),
            result.served_mask(), *result.price_arrays(), *result.eta_arrays(),
        )
    ]


class TestReadOnlyViews:
    """The arrays are the result: every dict view refuses edits."""

    @pytest.mark.parametrize("how", ["from_arrays", "from_assignment_ids", "dict"])
    @pytest.mark.parametrize("view", ["assignment", "prices", "etas"])
    def test_edits_raise_and_leave_the_arrays(self, how, view):
        result = _three_ways()[how]
        before = _arrays(result)
        mapping = getattr(result, view)
        key = next(iter(mapping))
        snapshot = dict(mapping)
        with pytest.raises(TypeError):
            mapping[key] = 7
        with pytest.raises(TypeError):
            mapping.update({key: 7})
        with pytest.raises(TypeError):
            mapping |= {key: 7}
        for edit in (
            lambda: mapping.pop(key),
            lambda: mapping.setdefault(99, 7),
            mapping.popitem,
            mapping.clear,
        ):
            with pytest.raises(TypeError):
                edit()
        with pytest.raises(TypeError):
            del mapping[key]
        assert getattr(result, view) is mapping
        assert dict(mapping) == snapshot
        assert _arrays(result) == before

    def test_check_feasible_rejects_a_rebuilt_overload(self, small_problem):
        result = AuctionSolver(epsilon=1e-9).solve(small_problem)
        result.check_feasible(small_problem)
        edited = dict(result.assignment)
        edited[1] = 200  # overloads uploader 200 (B = 1)
        with pytest.raises(AssertionError):
            ScheduleResult(assignment=edited).check_feasible(small_problem)


class TestServedColumns:
    def test_columns_match_iterator(self, small_problem):
        result = ScheduleResult(assignment={0: 100, 1: 100, 2: 200, 3: None})
        indices, downstream, uploaders, values = result.served_columns(
            small_problem
        )
        edges = list(result.served_edges(small_problem))
        assert len(edges) == 3
        for i, (r, d, chunk, u, v) in enumerate(edges):
            assert r == indices[i]
            assert d == downstream[i]
            assert u == uploaders[i]
            assert v == pytest.approx(values[i])
            assert chunk == small_problem.chunk_of(r)
            assert v == pytest.approx(small_problem.edge_value(r, u))

    def test_non_candidate_raises_keyerror(self, small_problem):
        result = ScheduleResult(assignment={0: 100, 1: 200, 2: None, 3: None})
        with pytest.raises(KeyError):
            result.served_columns(small_problem)


class TestServedEdges:
    """A jacobi result reads ``v − w`` at its solve's edges, else by pair.

    The fallback must score the result's assignment against the problem
    it is given.
    """

    def test_scored_against_another_problem(self, small_problem):
        result = AuctionSolver(epsilon=1e-9, mode="jacobi").solve(small_problem)
        other = ProblemBuilder()
        other.set_capacities([100, 200], [2, 1])
        # Same requests and candidates; every edge is worth 1.0 more.
        other.add_block(
            np.array([1, 2, 3, 4]),
            ["a", "b", "c", "d"],
            np.array([9.0, 7.0, 6.0, 3.0]),
            np.array([100, 200, 100, 100, 200, 200]),
            np.array([1.0, 2.0, 1.0, 4.0, 1.0, 3.0]),
            np.array([0, 2, 3, 5, 6]),
        )
        other = other.build()
        assert result.welfare(other) == pytest.approx(16.0 + 3.0)
        assert result.welfare(other) == other.welfare(result.assignment)
        assert result.served_values(other).tolist() == [8.0, 6.0, 5.0]

    def test_solvers_scoring_one_problem_in_turn(self):
        problem = random_problem(np.random.default_rng(5), n_requests=120)
        solvers = [
            AuctionSolver(epsilon=1e-9, mode="jacobi").solve,
            AuctionSolver(epsilon=2.0, mode="jacobi").solve,
            AuctionSolver(epsilon=1e-9, mode="gauss-seidel").solve,
            UtilityGreedyScheduler().schedule,
            AuctionSolver(epsilon=0.5, mode="jacobi").solve,
        ]
        welfares = []
        for _ in range(2):
            for solve in solvers:
                # Each result is dropped right after scoring, so a later
                # one may reuse its id.
                result = solve(problem)
                welfare = result.welfare(problem)
                assert welfare == problem.welfare_pairs(*result.served_pairs())
                assert np.array_equal(
                    result.served_values(problem),
                    problem.edge_value_pairs(*result.served_pairs()),
                )
                welfares.append(welfare)
        assert len(set(welfares[:5])) > 1  # the solvers really differ
        assert welfares[:5] == welfares[5:]
