"""Tests for the pairwise cost model."""

from __future__ import annotations

import pathlib
import sys

import numpy as np
import pytest

from repro.net.costs import PAPER_INTER_ISP_COST, PAPER_INTRA_ISP_COST, CostModel
from repro.net.isp import ISPTopology

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "oracles"))
from slot import cost_matrix, costs_from, is_inter_isp  # noqa: E402


def make_model(seed=0):
    topo = ISPTopology(2)
    for peer in (1, 2, 3):
        topo.add_peer(peer, isp=0)
    for peer in (4, 5):
        topo.add_peer(peer, isp=1)
    return topo, CostModel(topo, np.random.default_rng(seed))


def cache_of(model):
    """The model's cache as ``{(lo, hi): cost}``, ascending by pair."""
    lo, hi, cost = model.cached_pairs()
    return dict(zip(zip(lo.tolist(), hi.tolist()), cost.tolist()))


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
        _, model = make_model()
        assert model.cost(1, 2) == model.cost(2, 1)

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
        assert is_inter_isp(model, 1, 4)
        assert not is_inter_isp(model, 1, 2)

    def test_costs_from_vector(self):
        _, model = make_model()
        vec = costs_from(model, [2, 3, 4], 1)
        assert vec.shape == (3,)
        assert vec[0] == model.cost(2, 1)


class TestBatchedDraws:
    def test_repeated_source_draws_once(self):
        """A pair draws once in a call, however often its source repeats.

        Drawing once per repeat (and keeping the first) shifted every
        later cost: ``cost(3, 1)`` read 0.1096 after ``[2, 2]`` and
        0.5953 after ``[2]``.
        """
        _, repeated = make_model()
        _, once = make_model()
        assert repeated.costs_for_pairs([2, 2], 1)[1] == once.costs_for_pairs([2], 1)[0]
        assert repeated.cost(3, 1) == once.cost(3, 1) == pytest.approx(0.5953, abs=1e-4)
        assert repeated.rng.bit_generator.state == once.rng.bit_generator.state

    def test_runs_draw_what_one_call_per_run_draws(self):
        _, batched = make_model(seed=3)
        _, per_run = make_model(seed=3)
        sources = [2, 4, 3, 5, 1, 5, 4, 2, 1]
        dsts = [1, 1, 1, 1, 5, 5, 5, 4, 4]
        got = batched.costs_for_pairs(sources, dsts)
        want = np.concatenate([
            per_run.costs_for_pairs([2, 4, 3, 5], 1),
            per_run.costs_for_pairs([1, 5, 4], 5),
            per_run.costs_for_pairs([2, 1], 4),
        ])
        assert np.array_equal(got, want)
        # Later runs read pairs an earlier run drew; a self pair is 0.
        assert got[4] == got[3] and got[8] == got[1] and got[5] == 0.0
        assert cache_of(batched) == cache_of(per_run)
        assert batched.rng.bit_generator.state == per_run.rng.bit_generator.state

    def test_self_pairs_and_empty_batches_draw_nothing(self):
        _, model = make_model()
        state = model.rng.bit_generator.state
        assert model.costs_for_pairs([], []).shape == (0,)
        assert model.costs_for_pairs([1, 2], [1, 2]).tolist() == [0.0, 0.0]
        assert model.rng.bit_generator.state == state
        assert model.cache_size() == 0

    @pytest.mark.parametrize("bad", [-1, 2**31])
    def test_ids_must_fit_the_packed_key(self, bad):
        _, model = make_model()
        with pytest.raises(ValueError):
            model.costs_for_pairs([bad], 1)
        with pytest.raises(ValueError):
            model.cost(1, bad)


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
        assert cache_of(batched) == cache_of(single)

    def test_forget_nothing_is_noop(self):
        model = self.full_cache()
        before = cache_of(model)
        assert model.forget_peer() == 0
        assert cache_of(model) == before

    def test_repeated_id_counts_once(self):
        repeated, once = self.full_cache(), self.full_cache()
        assert repeated.forget_peer(2, 2, 3, 2) == once.forget_peer(2, 3) == 7
        assert cache_of(repeated) == cache_of(once)

    def test_forgotten_pair_resamples(self):
        _, model = make_model(seed=5)
        first = model.cost(1, 2)
        model.forget_peer(1)
        # New draw — almost surely different.
        assert model.cost(1, 2) != first

    def test_matrix_shape_and_diagonal(self):
        _, model = make_model()
        matrix = cost_matrix(model, [1, 2, 4])
        assert matrix.shape == (3, 3)
        assert np.all(np.diag(matrix) == 0.0)
        assert matrix[0, 1] == model.cost(1, 2)

    def test_as_cost_fn(self):
        _, model = make_model()
        fn = model.as_cost_fn()
        assert fn(1, 2) == model.cost(1, 2)
