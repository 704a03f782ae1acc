"""Tests for the pairwise cost model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.costs import PAPER_INTER_ISP_COST, PAPER_INTRA_ISP_COST, CostModel
from repro.net.isp import ISPTopology


def make_model(symmetric=True, seed=0):
    topo = ISPTopology(2)
    for peer in (1, 2, 3):
        topo.add_peer(peer, isp=0)
    for peer in (4, 5):
        topo.add_peer(peer, isp=1)
    return topo, CostModel(topo, np.random.default_rng(seed), symmetric=symmetric)


class TestSampling:
    def test_self_cost_zero(self):
        _, model = make_model()
        assert model.cost(1, 1) == 0.0

    def test_cached_pair_is_stable(self):
        _, model = make_model()
        first = model.cost(1, 2)
        assert model.cost(1, 2) == first
        assert model.cost(1, 2) == first

    def test_symmetric_mode(self):
        _, model = make_model(symmetric=True)
        assert model.cost(1, 2) == model.cost(2, 1)

    def test_asymmetric_mode_draws_independently(self):
        _, model = make_model(symmetric=False, seed=3)
        # With independent draws, exact equality has probability 0.
        assert model.cost(1, 2) != model.cost(2, 1)

    def test_intra_isp_range(self):
        _, model = make_model()
        costs = [model.cost(1, 2), model.cost(1, 3), model.cost(2, 3)]
        for c in costs:
            assert PAPER_INTRA_ISP_COST.low <= c <= PAPER_INTRA_ISP_COST.high

    def test_inter_isp_range(self):
        _, model = make_model()
        for c in (model.cost(1, 4), model.cost(2, 5), model.cost(3, 4)):
            assert PAPER_INTER_ISP_COST.low <= c <= PAPER_INTER_ISP_COST.high

    def test_inter_typically_exceeds_intra(self):
        """With the paper's distributions, the mean inter cost is far above intra."""
        topo = ISPTopology(2)
        for peer in range(100):
            topo.add_peer(peer, isp=peer % 2)
        model = CostModel(topo, np.random.default_rng(1))
        intra = [model.cost(0, i) for i in range(2, 100, 2)]
        inter = [model.cost(0, i) for i in range(1, 100, 2)]
        assert np.mean(inter) > np.mean(intra) + 2.0

    def test_is_inter_isp(self):
        _, model = make_model()
        assert model.is_inter_isp(1, 4)
        assert not model.is_inter_isp(1, 2)

    def test_costs_from_vector(self):
        _, model = make_model()
        vec = model.costs_from([2, 3, 4], 1)
        assert vec.shape == (3,)
        assert vec[0] == model.cost(2, 1)


class TestMaintenance:
    def test_forget_peer_evicts_cache(self):
        _, model = make_model()
        model.cost(1, 2)
        model.cost(1, 4)
        model.cost(2, 3)
        evicted = model.forget_peer(1)
        assert evicted == 2
        assert model.cache_size() == 1

    @staticmethod
    def full_cache(seed=0):
        _, model = make_model(seed=seed)
        for src in (1, 2, 3, 4, 5):
            for dst in (1, 2, 3, 4, 5):
                model.cost(src, dst)
        return model

    def test_batched_forget_equals_single_calls(self):
        batched, single = self.full_cache(), self.full_cache()
        total = batched.forget_peer(1, 4, 5)
        expected = sum(single.forget_peer(pid) for pid in (1, 4, 5))
        assert total == expected == 9
        assert list(batched._cache.items()) == list(single._cache.items())

    def test_forget_nothing_is_noop(self):
        model = self.full_cache()
        before = list(model._cache.items())
        assert model.forget_peer() == 0
        assert list(model._cache.items()) == before

    def test_repeated_id_counts_once(self):
        repeated, once = self.full_cache(), self.full_cache()
        assert repeated.forget_peer(2, 2, 3, 2) == once.forget_peer(2, 3) == 7
        assert list(repeated._cache.items()) == list(once._cache.items())

    def test_forgotten_pair_resamples(self):
        _, model = make_model(seed=5)
        first = model.cost(1, 2)
        model.forget_peer(1)
        # New draw — almost surely different.
        assert model.cost(1, 2) != first

    def test_matrix_shape_and_diagonal(self):
        _, model = make_model()
        matrix = model.matrix([1, 2, 4])
        assert matrix.shape == (3, 3)
        assert np.all(np.diag(matrix) == 0.0)
        assert matrix[0, 1] == model.cost(1, 2)

    def test_as_cost_fn(self):
        _, model = make_model()
        fn = model.as_cost_fn()
        assert fn(1, 2) == model.cost(1, 2)
