"""Batch/columnar construction equivalence and the CSR view.

The columnar pipeline rests on two pins:

* ``add_requests_batch`` / ``ProblemBuilder`` build the *identical*
  problem as a sequence of ``add_request`` calls (property-tested over
  random instances);
* ``csr()`` encodes every request's edges, in candidate order: the
  dense oracle's padded expansion of it (``tests/oracles/auction.py``)
  gives back the per-request accessors row by row.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import ProblemBuilder, SchedulingProblem, random_problem

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "oracles"))
from auction import dense_view, to_dense  # noqa: E402


# ----------------------------------------------------------------------
# Random instance description: plain data both construction paths consume.
# ----------------------------------------------------------------------
@st.composite
def instance_descriptions(draw):
    n_uploaders = draw(st.integers(1, 6))
    uploader_ids = [100 + i for i in range(n_uploaders)]
    capacities = {
        uid: draw(st.integers(0, 3)) for uid in uploader_ids
    }
    n_requests = draw(st.integers(0, 15))
    requests = []
    for r in range(n_requests):
        subset = draw(
            st.lists(st.sampled_from(uploader_ids), unique=True, max_size=n_uploaders)
        )
        candidates = {
            uid: draw(st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False))
            for uid in subset
        }
        valuation = draw(st.floats(-2.0, 12.0, allow_nan=False, allow_infinity=False))
        requests.append((r, f"chunk-{r}", valuation, candidates))
    return capacities, requests


def build_per_request(capacities, requests) -> SchedulingProblem:
    p = SchedulingProblem()
    for uploader, capacity in capacities.items():
        p.set_capacity(uploader, capacity)
    for peer, chunk, valuation, candidates in requests:
        p.add_request(peer=peer, chunk=chunk, valuation=valuation, candidates=candidates)
    return p


def build_batched(capacities, requests) -> SchedulingProblem:
    p = SchedulingProblem()
    p.set_capacities_batch(list(capacities.keys()), list(capacities.values()))
    peers = [peer for peer, _, _, _ in requests]
    chunks = [chunk for _, chunk, _, _ in requests]
    valuations = [v for _, _, v, _ in requests]
    cand_uploaders: list = []
    cand_costs: list = []
    indptr = [0]
    for _, _, _, candidates in requests:
        cand_uploaders.extend(candidates.keys())
        cand_costs.extend(candidates.values())
        indptr.append(len(cand_uploaders))
    p.add_requests_batch(peers, chunks, valuations, cand_uploaders, cand_costs, indptr)
    return p


def build_with_builder(capacities, requests) -> SchedulingProblem:
    b = ProblemBuilder()
    b.set_capacities(list(capacities.keys()), list(capacities.values()))
    # One block per request: the builder must concatenate correctly.
    for peer, chunk, valuation, candidates in requests:
        b.add_block(
            peers=peer,
            chunks=[chunk],
            valuations=[valuation],
            cand_uploaders=list(candidates.keys()),
            cand_costs=list(candidates.values()),
            counts=[len(candidates)],
        )
    return b.build()


def assert_problems_identical(a: SchedulingProblem, b: SchedulingProblem) -> None:
    assert a.n_requests == b.n_requests
    assert a.n_edges() == b.n_edges()
    assert a.uploaders() == b.uploaders()
    for u in a.uploaders():
        assert a.capacity_of(u) == b.capacity_of(u)
    for r in range(a.n_requests):
        assert a.request(r) == b.request(r)
        assert np.array_equal(a.candidates_of(r), b.candidates_of(r))
        assert np.array_equal(a.costs_of(r), b.costs_of(r))
    da, db = dense_view(a), dense_view(b)
    assert np.array_equal(da.values, db.values)
    assert np.array_equal(da.uploader_index, db.uploader_index)
    assert np.array_equal(da.uploaders, db.uploaders)
    assert np.array_equal(da.capacity, db.capacity)


@settings(max_examples=60, deadline=None)
@given(description=instance_descriptions())
def test_batch_equals_per_request(description):
    capacities, requests = description
    assert_problems_identical(
        build_per_request(capacities, requests), build_batched(capacities, requests)
    )


@settings(max_examples=60, deadline=None)
@given(description=instance_descriptions())
def test_builder_equals_per_request(description):
    capacities, requests = description
    assert_problems_identical(
        build_per_request(capacities, requests),
        build_with_builder(capacities, requests),
    )


@settings(max_examples=60, deadline=None)
@given(description=instance_descriptions())
def test_csr_round_trips_against_dense(description):
    capacities, requests = description
    p = build_per_request(capacities, requests)
    csr = p.csr()
    dense = to_dense(csr)
    assert np.array_equal(dense.uploaders, csr.uploaders)
    assert np.array_equal(dense.capacity, csr.capacity)
    # CSR row slices and padded rows reproduce the per-request accessors.
    uploaders = csr.uploaders
    for r in range(p.n_requests):
        k = len(p.candidates_of(r))
        assert np.array_equal(uploaders[dense.uploader_index[r, :k]], p.candidates_of(r))
        np.testing.assert_array_equal(dense.values[r, :k], p.edge_values_of(r))
        assert (dense.uploader_index[r, k:] == -1).all()
        assert np.isneginf(dense.values[r, k:]).all()
        row = csr.row(r)
        assert np.array_equal(uploaders[csr.uploader_index[row]], p.candidates_of(r))
        np.testing.assert_array_equal(csr.values[row], p.edge_values_of(r))
    assert csr.n_edges == p.n_edges()
    assert csr.n_requests == p.n_requests


class TestCSRView:
    def test_shapes_and_order(self, small_problem):
        csr = small_problem.csr()
        assert csr.n_requests == 4
        assert csr.n_edges == 6
        assert list(csr.indptr) == [0, 2, 3, 5, 6]
        assert np.array_equal(csr.counts(), [2, 1, 2, 1])
        assert np.array_equal(csr.edge_rows(), [0, 0, 1, 2, 2, 3])

    def test_cached_and_invalidated(self, small_problem):
        first = small_problem.csr()
        assert small_problem.csr() is first
        small_problem.set_capacity(300, 1)
        assert small_problem.csr() is not first

    def test_welfare_matches_loop(self, small_problem):
        assignment = {0: 100, 1: 100, 2: 200, 3: None}
        assert small_problem.welfare(assignment) == pytest.approx(16.0)
        assert small_problem._welfare_loop(assignment) == pytest.approx(16.0)

    def test_welfare_non_candidate_raises(self, small_problem):
        with pytest.raises(KeyError):
            small_problem.welfare({1: 200})


class TestBatchValidation:
    def make_base(self):
        p = SchedulingProblem()
        p.set_capacity(10, 1)
        p.set_capacity(11, 2)
        return p

    def test_duplicate_key_within_batch(self):
        p = self.make_base()
        with pytest.raises(ValueError, match="duplicate request"):
            p.add_requests_batch(
                [1, 1], ["a", "a"], [5.0, 6.0], [10, 10], [1.0, 1.0], [0, 1, 2]
            )
        assert p.n_requests == 0  # failed batch must not half-commit

    def test_duplicate_key_against_existing(self):
        p = self.make_base()
        p.add_request(1, "a", 5.0, {10: 1.0})
        with pytest.raises(ValueError, match="duplicate request"):
            p.add_requests_batch([1], ["a"], [6.0], [11], [1.0], [0, 1])
        assert p.n_requests == 1

    def test_self_upload_rejected(self):
        p = self.make_base()
        p.set_capacity(1, 1)
        with pytest.raises(ValueError, match="cannot upload to itself"):
            p.add_requests_batch([1], ["a"], [5.0], [1], [0.5], [0, 1])

    def test_unknown_uploader_rejected(self):
        p = self.make_base()
        with pytest.raises(ValueError, match="no declared capacity"):
            p.add_requests_batch([1], ["a"], [5.0], [99], [1.0], [0, 1])

    def test_bad_cost_rejected(self):
        p = self.make_base()
        with pytest.raises(ValueError, match="cost must be finite"):
            p.add_requests_batch([1], ["a"], [5.0], [10], [-1.0], [0, 1])
        with pytest.raises(ValueError, match="cost must be finite"):
            p.add_requests_batch([1], ["a"], [5.0], [10], [np.inf], [0, 1])

    def test_nonfinite_valuation_rejected(self):
        p = self.make_base()
        with pytest.raises(ValueError, match="valuation must be finite"):
            p.add_requests_batch([1], ["a"], [np.nan], [10], [1.0], [0, 1])

    def test_duplicate_candidate_in_one_request(self):
        p = self.make_base()
        with pytest.raises(ValueError, match="duplicate candidate"):
            p.add_requests_batch(
                [1], ["a"], [5.0], [10, 10], [1.0, 2.0], [0, 2]
            )

    def test_bad_indptr_rejected(self):
        p = self.make_base()
        with pytest.raises(ValueError, match="indptr"):
            p.add_requests_batch([1], ["a"], [5.0], [10], [1.0], [0, 2])
        with pytest.raises(ValueError, match="indptr"):
            p.add_requests_batch([1, 2], ["a", "b"], [5.0, 5.0], [10], [1.0], [0, 1])

    def test_empty_batch_is_noop(self):
        p = self.make_base()
        indices = p.add_requests_batch([], [], [], [], [], [0])
        assert indices == range(0, 0)
        assert p.n_requests == 0

    def test_returns_contiguous_indices(self):
        p = self.make_base()
        p.add_request(5, "z", 1.0, {10: 0.5})
        indices = p.add_requests_batch(
            [1, 2], ["a", "b"], [5.0, 4.0], [10, 11], [1.0, 2.0], [0, 1, 2]
        )
        assert indices == range(1, 3)
        assert p.request(1).key == (1, "a")
        assert p.request(2).key == (2, "b")

    def test_mixed_batch_then_per_request(self):
        p = self.make_base()
        p.add_requests_batch([1], ["a"], [5.0], [10], [1.0], [0, 1])
        index = p.add_request(2, "b", 4.0, {11: 0.5})
        assert index == 1
        assert p.n_edges() == 2
        csr = p.csr()
        assert csr.n_edges == 2


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_problem_csr_consistency(seed):
    p = random_problem(np.random.default_rng(seed), n_requests=25, n_uploaders=6)
    csr = p.csr()
    total = 0.0
    for r in range(p.n_requests):
        total += float(p.edge_values_of(r).sum())
    assert float(csr.values.sum()) == pytest.approx(total)
