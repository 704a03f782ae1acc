"""Property: the CSR-built LP relaxation ≡ the per-edge loop.

``solve_lp_relaxation`` builds linprog's ``(c, A_ub, b_ub)`` from the
problem's CSR columns and reads the assignment off ``x`` with one mask;
its twin in ``tests/oracles/lp.py`` lists the edges one at a time.  The
two must hand HiGHS the same arrays, bit for bit, and so return the same
:class:`~repro.core.exact.LPSolution`: value, ``x``, integrality and
assignment.  Random problems mix requests with no candidate, uploaders
with zero capacity and negative-value edges; the empty problem and an
edgeless one are pinned too.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.exact import _lp_arrays, solve_lp_relaxation
from repro.core.problem import ProblemBuilder, SchedulingProblem

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "oracles"))
from lp import lp_arrays_reference, solve_lp_relaxation_reference  # noqa: E402


def sparse_problem(seed: int, n_requests: int, n_uploaders: int) -> SchedulingProblem:
    """Random problem whose requests hold 0..n_uploaders candidates each."""
    rng = np.random.default_rng(seed)
    builder = ProblemBuilder()
    uploaders = [100 + i for i in range(n_uploaders)]
    for u in uploaders:
        builder.set_capacity(u, int(rng.integers(0, 4)))
    for r in range(n_requests):
        k = int(rng.integers(0, n_uploaders + 1))
        chosen = rng.choice(uploaders, size=k, replace=False)
        builder.add_request(
            peer=r,
            chunk=r,
            valuation=float(rng.uniform(0.8, 8.0)),
            candidates={int(u): float(rng.uniform(0.0, 10.0)) for u in chosen},
        )
    return builder.build()


def assert_same_lp(problem: SchedulingProblem) -> None:
    c, a_ub, b_ub = _lp_arrays(problem)
    c_ref, a_ref, b_ref = lp_arrays_reference(problem)
    assert c.dtype == c_ref.dtype and np.array_equal(c, c_ref)
    assert b_ub.dtype == b_ref.dtype and np.array_equal(b_ub, b_ref)
    assert a_ub.shape == a_ref.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a_ub, name), getattr(a_ref, name)), name

    new = solve_lp_relaxation(problem)
    ref = solve_lp_relaxation_reference(problem)
    assert new.value.hex() == ref.value.hex()
    assert np.array_equal(new.x, ref.x)
    assert new.integral == ref.integral
    assert np.array_equal(new.result.assignment_array(), ref.result.assignment_array())
    assert dict(new.result.assignment) == dict(ref.result.assignment)


@given(
    seed=st.integers(0, 50_000),
    n_requests=st.integers(0, 40),
    n_uploaders=st.integers(1, 8),
)
def test_matches_reference_on_random_problems(seed, n_requests, n_uploaders):
    assert_same_lp(sparse_problem(seed, n_requests, n_uploaders))


def edgeless_problem() -> SchedulingProblem:
    builder = ProblemBuilder()
    builder.set_capacity(1, 1)
    builder.add_request(2, "a", 5.0, {})
    builder.add_request(3, "b", 5.0, {})
    return builder.build()


@pytest.mark.parametrize(
    "problem",
    [SchedulingProblem(), edgeless_problem()],
    ids=["empty", "edgeless"],
)
def test_matches_reference_without_edges(problem):
    assert_same_lp(problem)
    lp = solve_lp_relaxation(problem)
    assert lp.value == 0.0 and lp.integral and len(lp.x) == 0
    assert lp.result.n_served() == 0
