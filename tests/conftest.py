"""Shared fixtures and the Hypothesis profile for the test suite.

Every ``@given`` test under ``tests/`` runs under the ``repro-props``
profile, which keeps the fuzzing deterministic and bounded so tier-1
stays fast and reproducible: ``derandomize=True`` makes Hypothesis
derive examples from the test function itself (no ambient random seed,
no example database), and the example budget is fixed (override with
``REPRO_PROPS_EXAMPLES=n`` for a deeper local soak).  It is loaded
here, before pytest imports any test module, because a module's
``@settings(...)`` take their unset fields from the profile loaded when
the module is imported.  The equivalence suite runs with
``make test-props`` or ``pytest tests/properties -q``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.core.problem import ProblemBuilder, SchedulingProblem

settings.register_profile(
    "repro-props",
    settings(
        max_examples=int(os.environ.get("REPRO_PROPS_EXAMPLES", "70")),
        deadline=None,
        derandomize=True,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.data_too_large,
            HealthCheck.filter_too_much,
        ],
    ),
)
settings.load_profile("repro-props")


def pytest_configure(config) -> None:
    config.addinivalue_line(
        "markers", "slow: a long-running test (about a minute or more)"
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_problem() -> SchedulingProblem:
    """A hand-built 4-request / 2-uploader instance with a known optimum.

    Uploaders: 100 (B=2), 200 (B=1).
    Requests (peer, chunk, v, candidates{uploader: cost}):
      r0: (1, a, 8.0, {100: 1.0, 200: 2.0})   best edge 7.0 at 100
      r1: (2, b, 6.0, {100: 1.0})             edge 5.0 at 100
      r2: (3, c, 5.0, {100: 4.0, 200: 1.0})   edges 1.0 / 4.0
      r3: (4, d, 2.0, {200: 3.0})             edge -1.0 (never worth serving)

    Optimum: r0→100, r1→100, r2→200; r3 unserved; welfare = 7+5+4 = 16.
    """
    builder = ProblemBuilder()
    builder.set_capacity(100, 2)
    builder.set_capacity(200, 1)
    builder.add_request(peer=1, chunk="a", valuation=8.0, candidates={100: 1.0, 200: 2.0})
    builder.add_request(peer=2, chunk="b", valuation=6.0, candidates={100: 1.0})
    builder.add_request(peer=3, chunk="c", valuation=5.0, candidates={100: 4.0, 200: 1.0})
    builder.add_request(peer=4, chunk="d", valuation=2.0, candidates={200: 3.0})
    p = builder.build()
    return p


SMALL_PROBLEM_OPTIMUM = 16.0


@pytest.fixture
def small_problem_optimum() -> float:
    return SMALL_PROBLEM_OPTIMUM
