"""The three paths into the constructor, derived problems and the CSR view.

The columnar problem rests on three pins:

* ``ProblemBuilder.add_request``, ``ProblemBuilder.add_block`` and a
  direct ``SchedulingProblem`` constructor call build the *identical*
  problem from the same instance (property-tested over random
  instances);
* ``without_peer`` and ``reweighted`` return the problem that a
  rebuild, one ``add_request`` at a time, returns;
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
# Random instance description: plain data all three construction paths consume.
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
    builder = ProblemBuilder()
    for uploader, capacity in capacities.items():
        builder.set_capacity(uploader, capacity)
    for peer, chunk, valuation, candidates in requests:
        builder.add_request(peer=peer, chunk=chunk, valuation=valuation, candidates=candidates)
    return builder.build()


def build_direct(capacities, requests) -> SchedulingProblem:
    cand_uploaders: list = []
    cand_costs: list = []
    indptr = [0]
    for _, _, _, candidates in requests:
        cand_uploaders.extend(candidates.keys())
        cand_costs.extend(candidates.values())
        indptr.append(len(cand_uploaders))
    return SchedulingProblem(
        uploaders=list(capacities.keys()),
        capacity=list(capacities.values()),
        peers=[peer for peer, _, _, _ in requests],
        chunks=[chunk for _, chunk, _, _ in requests],
        valuations=[v for _, _, v, _ in requests],
        cand_uploaders=cand_uploaders,
        cand_costs=cand_costs,
        indptr=indptr,
    )


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
    # Every column, exactly: same dtype, same bytes.
    columns = [
        (a.request_peer_array(), b.request_peer_array()),
        (a.request_valuation_array(), b.request_valuation_array()),
    ]
    ca, cb = a.csr(), b.csr()
    for name in ("values", "uploader_index", "indptr", "uploaders", "capacity"):
        columns.append((getattr(ca, name), getattr(cb, name)))
    for x, y in columns:
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    da, db = dense_view(a), dense_view(b)
    assert np.array_equal(da.values, db.values)
    assert np.array_equal(da.uploader_index, db.uploader_index)
    assert np.array_equal(da.uploaders, db.uploaders)
    assert np.array_equal(da.capacity, db.capacity)


def rebuild(problem: SchedulingProblem, keep=None, valuation_of=None):
    """The request-by-request copy ``without_peer`` and ``reweighted`` replaced."""
    builder = ProblemBuilder()
    for uploader in problem.uploaders():
        builder.set_capacity(uploader, problem.capacity_of(uploader))
    for index in range(problem.n_requests):
        if keep is not None and not keep(index):
            continue
        request = problem.request(index)
        builder.add_request(
            request.peer,
            request.chunk,
            request.valuation if valuation_of is None else float(valuation_of(index)),
            {
                int(u): float(c)
                for u, c in zip(problem.candidates_of(index), problem.costs_of(index))
            },
        )
    return builder.build()


@settings(max_examples=60, deadline=None)
@given(description=instance_descriptions())
def test_batch_equals_per_request(description):
    """A direct constructor call builds what ``add_request`` builds."""
    capacities, requests = description
    assert_problems_identical(
        build_per_request(capacities, requests), build_direct(capacities, requests)
    )


@settings(max_examples=60, deadline=None)
@given(description=instance_descriptions())
def test_builder_equals_per_request(description):
    """``add_block`` builds what ``add_request`` builds."""
    capacities, requests = description
    assert_problems_identical(
        build_per_request(capacities, requests),
        build_with_builder(capacities, requests),
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_requests=st.integers(0, 30),
    factor=st.sampled_from([0.0, 0.5, 3.0]),
)
def test_derived_problems_equal_a_rebuild(seed, n_requests, factor):
    rng = np.random.default_rng(seed)
    p = random_problem(rng, n_requests=n_requests, n_uploaders=5)
    # random_problem's request r is peer r's, so peer n_requests has none.
    peer = int(rng.integers(n_requests + 1))

    def kept(index):
        return p.request(index).peer != peer

    reduced, index_map = p.without_peer(peer)
    assert_problems_identical(reduced, rebuild(p, keep=kept))
    assert index_map == dict(enumerate(filter(kept, range(n_requests))))

    def valuation_of(index):
        value = p.request(index).valuation
        return value if kept(index) else value * factor

    assert_problems_identical(
        p.reweighted(valuation_of), rebuild(p, valuation_of=valuation_of)
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

    def test_cached(self, small_problem):
        first = small_problem.csr()
        assert small_problem.csr() is first

    def test_welfare_matches_loop(self, small_problem):
        assignment = {0: 100, 1: 100, 2: 200, 3: None}
        assert small_problem.welfare(assignment) == pytest.approx(16.0)
        assert small_problem._welfare_loop(assignment) == pytest.approx(16.0)

    def test_welfare_non_candidate_raises(self, small_problem):
        with pytest.raises(KeyError):
            small_problem.welfare({1: 200})


class TestBatchValidation:
    """Each invariant, rejected by the constructor with its message."""

    def construct(self, peers, chunks, valuations, cand_uploaders, cand_costs,
                  indptr, uploaders=(10, 11), capacity=(1, 2)):
        return SchedulingProblem(
            uploaders, capacity, peers, chunks, valuations,
            cand_uploaders, cand_costs, indptr,
        )

    def test_duplicate_key_within_batch(self):
        with pytest.raises(ValueError, match="duplicate request"):
            self.construct(
                [1, 1], ["a", "a"], [5.0, 6.0], [10, 10], [1.0, 1.0], [0, 1, 2]
            )

    def test_duplicate_key_against_existing(self):
        builder = ProblemBuilder()
        builder.set_capacities([10, 11], [1, 2])
        builder.add_request(1, "a", 5.0, {10: 1.0})
        builder.add_block([1], ["a"], [6.0], [11], [1.0], indptr=[0, 1])
        with pytest.raises(ValueError, match="duplicate request"):
            builder.build()

    def test_duplicate_uploader_rejected(self):
        with pytest.raises(ValueError, match="duplicate uploader 10"):
            self.construct([], [], [], [], [], [0], uploaders=[10, 11, 10],
                           capacity=[1, 2, 3])

    def test_self_upload_rejected(self):
        with pytest.raises(ValueError, match="cannot upload to itself"):
            self.construct([1], ["a"], [5.0], [1], [0.5], [0, 1],
                           uploaders=[10, 11, 1], capacity=[1, 2, 1])

    def test_unknown_uploader_rejected(self):
        with pytest.raises(ValueError, match="no declared capacity"):
            self.construct([1], ["a"], [5.0], [99], [1.0], [0, 1])

    def test_bad_cost_rejected(self):
        with pytest.raises(ValueError, match="cost must be finite"):
            self.construct([1], ["a"], [5.0], [10], [-1.0], [0, 1])
        with pytest.raises(ValueError, match="cost must be finite"):
            self.construct([1], ["a"], [5.0], [10], [np.inf], [0, 1])

    def test_nonfinite_valuation_rejected(self):
        with pytest.raises(ValueError, match="valuation must be finite"):
            self.construct([1], ["a"], [np.nan], [10], [1.0], [0, 1])

    def test_duplicate_candidate_in_one_request(self):
        with pytest.raises(ValueError, match="duplicate candidate"):
            self.construct([1], ["a"], [5.0], [10, 10], [1.0, 2.0], [0, 2])

    def test_bad_indptr_rejected(self):
        with pytest.raises(ValueError, match="indptr"):
            self.construct([1], ["a"], [5.0], [10], [1.0], [0, 2])
        with pytest.raises(ValueError, match="indptr"):
            self.construct([1, 2], ["a", "b"], [5.0, 5.0], [10], [1.0], [0, 1])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_problem_csr_consistency(seed):
    p = random_problem(np.random.default_rng(seed), n_requests=25, n_uploaders=6)
    csr = p.csr()
    total = 0.0
    for r in range(p.n_requests):
        total += float(p.edge_values_of(r).sum())
    assert float(csr.values.sum()) == pytest.approx(total)
