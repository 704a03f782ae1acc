"""Tests for truncated normal sampling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.trunc_normal import TruncatedNormal


class TestValidation:
    def test_rejects_zero_std(self):
        with pytest.raises(ValueError):
            TruncatedNormal(mean=1.0, std=0.0, low=0.0, high=2.0)

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            TruncatedNormal(mean=1.0, std=1.0, low=2.0, high=2.0)


class TestSampling:
    def test_samples_respect_bounds(self, rng):
        dist = TruncatedNormal(mean=5.0, std=1.0, low=1.0, high=10.0)
        samples = dist.sample(rng, size=5000)
        assert samples.min() >= 1.0
        assert samples.max() <= 10.0

    def test_sample_mean_close_to_parent_mean_when_symmetric(self, rng):
        # Symmetric truncation around the mean keeps the mean.
        dist = TruncatedNormal(mean=5.0, std=1.0, low=1.0, high=9.0)
        samples = dist.sample(rng, size=20000)
        assert abs(samples.mean() - 5.0) < 0.05

    def test_deterministic_given_rng(self):
        dist = TruncatedNormal(mean=1.0, std=1.0, low=0.0, high=2.0)
        a = dist.sample(np.random.default_rng(3), size=10)
        b = dist.sample(np.random.default_rng(3), size=10)
        assert np.allclose(a, b)

    def test_from_uniform_is_what_sample_applies(self):
        dist = TruncatedNormal(mean=1.0, std=1.0, low=0.0, high=2.0)
        u = np.random.default_rng(4).random(50)
        samples = dist.sample(np.random.default_rng(4), size=50)
        assert np.array_equal(dist.from_uniform(u), samples)
        assert np.array_equal(dist.from_uniform(u[7:9]), samples[7:9])

    def test_paper_intra_distribution_bounds(self, rng):
        # Paper: intra-ISP ~ TN(1, 1, [0, 2]) — heavy truncation both sides.
        dist = TruncatedNormal(mean=1.0, std=1.0, low=0.0, high=2.0)
        samples = dist.sample(rng, size=5000)
        assert (samples >= 0.0).all() and (samples <= 2.0).all()
        assert abs(samples.mean() - 1.0) < 0.05  # symmetric truncation

    def test_pdf_zero_outside_range(self):
        dist = TruncatedNormal(mean=5.0, std=1.0, low=1.0, high=10.0)
        assert dist.pdf(np.array([0.0]))[0] == 0.0
        assert dist.pdf(np.array([11.0]))[0] == 0.0
        assert dist.pdf(np.array([5.0]))[0] > 0.0

    def test_expected_value_within_bounds(self):
        dist = TruncatedNormal(mean=5.0, std=2.0, low=1.0, high=6.0)
        assert 1.0 < dist.expected_value() < 6.0
        # Truncating the right tail pulls the mean below the parent's.
        assert dist.expected_value() < 5.0


@settings(max_examples=30, deadline=None)
@given(
    mean=st.floats(-5, 5),
    std=st.floats(0.1, 3.0),
    width=st.floats(0.5, 10.0),
)
def test_property_samples_always_in_bounds(mean, std, width):
    dist = TruncatedNormal(mean=mean, std=std, low=mean - width, high=mean + width)
    samples = dist.sample(np.random.default_rng(0), size=50)
    assert (samples >= mean - width - 1e-9).all()
    assert (samples <= mean + width + 1e-9).all()
