"""Tests for the scheduling-problem model."""

from __future__ import annotations

import pathlib
import sys

import numpy as np
import pytest

from repro.core.auction import AuctionSolver
from repro.core.problem import (
    ChunkRequest,
    ProblemBuilder,
    SchedulingProblem,
    random_problem,
)

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "oracles"))
from auction import dense_view  # noqa: E402


class TestConstruction:
    """Hand-built problems: every rejection comes from ``build()``."""

    def test_capacity_declaration(self):
        builder = ProblemBuilder()
        builder.set_capacity(1, 3)
        p = builder.build()
        assert p.capacity_of(1) == 3
        assert p.total_capacity() == 3

    def test_capacity_validation(self):
        """``set_capacity`` passes a capacity through unconverted."""
        for capacity in (-1, 1.5):
            builder = ProblemBuilder()
            builder.set_capacity(10, capacity)
            with pytest.raises(ValueError, match="capacity must be a non-negative int"):
                builder.build()

    def test_capacities_validation(self):
        """``set_capacities`` passes its capacities through unconverted."""
        for capacity in (-1, 2.7):
            builder = ProblemBuilder()
            builder.set_capacities([10], [capacity])
            with pytest.raises(ValueError, match="capacity must be a non-negative int"):
                builder.build()

    def test_add_request_returns_index(self):
        builder = ProblemBuilder()
        builder.set_capacity(10, 1)
        assert builder.add_request(1, "a", 5.0, {10: 1.0}) == 0
        assert builder.add_request(1, "b", 5.0, {10: 1.0}) == 1
        assert builder.build().n_requests == 2

    def test_duplicate_request_rejected(self):
        builder = ProblemBuilder()
        builder.set_capacity(10, 1)
        builder.add_request(1, "a", 5.0, {10: 1.0})
        builder.add_request(1, "a", 6.0, {10: 2.0})
        with pytest.raises(ValueError, match="duplicate request"):
            builder.build()

    def test_self_upload_rejected(self):
        builder = ProblemBuilder()
        builder.set_capacity(1, 1)
        builder.add_request(1, "a", 5.0, {1: 0.5})
        with pytest.raises(ValueError, match="cannot upload to itself"):
            builder.build()

    def test_unknown_uploader_rejected(self):
        builder = ProblemBuilder()
        builder.add_request(1, "a", 5.0, {99: 1.0})
        with pytest.raises(ValueError, match="no declared capacity"):
            builder.build()

    def test_bad_cost_rejected(self):
        for cost in (-1.0, float("inf")):
            builder = ProblemBuilder()
            builder.set_capacity(10, 1)
            builder.add_request(1, "a", 5.0, {10: cost})
            with pytest.raises(ValueError, match="cost must be finite"):
                builder.build()

    def test_nonfinite_valuation_rejected(self):
        with pytest.raises(ValueError):
            ChunkRequest(peer=1, chunk="a", valuation=float("nan"))
        builder = ProblemBuilder()
        builder.add_request(1, "a", float("nan"), {})
        with pytest.raises(ValueError, match="valuation must be finite"):
            builder.build()

    def test_empty_candidates_allowed(self):
        builder = ProblemBuilder()
        index = builder.add_request(1, "a", 5.0, {})
        p = builder.build()
        assert len(p.candidates_of(index)) == 0


class TestAccessors:
    def test_edge_values(self, small_problem):
        assert small_problem.edge_value(0, 100) == pytest.approx(7.0)
        assert small_problem.edge_value(0, 200) == pytest.approx(6.0)
        assert small_problem.edge_value(3, 200) == pytest.approx(-1.0)

    def test_cost_of_edge_missing_raises(self, small_problem):
        with pytest.raises(KeyError):
            small_problem.cost_of_edge(1, 200)

    def test_counts(self, small_problem):
        assert small_problem.n_requests == 4
        assert small_problem.n_edges() == 6
        assert small_problem.total_capacity() == 3
        assert small_problem.uploaders() == [100, 200]

    def test_max_edge_value(self, small_problem):
        assert small_problem.max_edge_value() == pytest.approx(7.0)

    def test_describe_mentions_sizes(self, small_problem):
        text = small_problem.describe()
        assert "requests=4" in text and "uploaders=2" in text


    def test_handed_out_arrays_reject_writes(self):
        peers = np.array([1, 2])
        valuations = np.array([5.0, 4.0])
        p = SchedulingProblem(
            uploaders=[10, 11], capacity=[1, 2], peers=peers,
            chunks=np.array([[0, 3], [0, 4]]), valuations=valuations,
            cand_uploaders=[10, 11, 10], cand_costs=[1.0, 2.0, 0.5],
            indptr=[0, 2, 3],
        )
        builder = ProblemBuilder()
        builder.add_request(1, (0, 3), 5.0, {})
        csr = p.csr()
        handed_out = [
            p.request_peer_array(), p.request_valuation_array(),
            p.chunk_pair_array(), builder.build().chunk_pair_array(),
            p.candidates_of(0), p.costs_of(0), p.edge_values_of(0),
            csr.values, csr.uploader_index, csr.indptr, csr.uploaders,
            csr.capacity,
        ]
        for array in handed_out:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]
        # The caller's own peer and valuation arrays stay its own.
        peers[0], valuations[0] = 7, 1.0
        assert p.request(0) == ChunkRequest(peer=1, chunk=(0, 3), valuation=5.0)


class TestWelfare:
    def test_welfare_of_known_assignment(self, small_problem):
        assignment = {0: 100, 1: 100, 2: 200, 3: None}
        assert small_problem.welfare(assignment) == pytest.approx(16.0)

    def test_unserved_contributes_zero(self, small_problem):
        assert small_problem.welfare({0: None, 1: None, 2: None, 3: None}) == 0.0


class TestDenseView:
    """The dense oracle's padded view (``tests/oracles/auction.py``)."""

    def test_shapes_and_padding(self, small_problem):
        dense = dense_view(small_problem)
        assert dense.values.shape == (4, 2)
        assert dense.uploader_index.shape == (4, 2)
        # Request 1 has one candidate: second column padded.
        assert dense.uploader_index[1, 1] == -1
        assert dense.values[1, 1] == -np.inf

    def test_values_match_edges(self, small_problem):
        dense = dense_view(small_problem)
        uploader_ids = dense.uploaders
        for r in range(4):
            for k in range(dense.max_candidates):
                idx = dense.uploader_index[r, k]
                if idx < 0:
                    continue
                uploader = int(uploader_ids[idx])
                assert dense.values[r, k] == pytest.approx(
                    small_problem.edge_value(r, uploader)
                )

    def test_capacity_alignment(self, small_problem):
        dense = dense_view(small_problem)
        for uploader, capacity in zip(dense.uploaders, dense.capacity):
            assert small_problem.capacity_of(int(uploader)) == int(capacity)


class TestRandomProblem:
    def test_respects_sizes(self, rng):
        p = random_problem(rng, n_requests=30, n_uploaders=7, max_candidates=4)
        assert p.n_requests == 30
        assert len(p.uploaders()) == 7
        for r in range(30):
            assert 1 <= len(p.candidates_of(r)) <= 4

    def test_integer_weights_mode(self, rng):
        p = random_problem(rng, n_requests=20, integer_weights=True)
        for r in range(20):
            assert float(p.request(r).valuation).is_integer()
            for c in p.costs_of(r):
                assert float(c).is_integer()

    def test_more_requests_than_the_uploader_offset(self):
        """Requester ids past 10,000 stay clear of the uploader ids."""
        p = random_problem(
            np.random.default_rng(3), n_requests=20_000, n_uploaders=2000
        )
        assert p.n_requests == 20_000
        assert min(p.uploaders()) == 20_000
        result = AuctionSolver(epsilon=0.01).solve(p)
        result.check_feasible(p)
        assert result.n_served() > 0

    def test_small_problems_keep_their_uploader_ids(self, rng):
        p = random_problem(rng, n_requests=30, n_uploaders=7)
        assert sorted(p.uploaders()) == list(range(10_000, 10_007))

    def test_deterministic_for_seed(self):
        a = random_problem(np.random.default_rng(5), n_requests=10)
        b = random_problem(np.random.default_rng(5), n_requests=10)
        assert a.welfare({r: None for r in range(10)}) == 0.0
        for r in range(10):
            assert a.request(r).valuation == b.request(r).valuation
            assert np.array_equal(a.candidates_of(r), b.candidates_of(r))
