"""Warm-started prices through the slot loop (config-gated re-bids).

``warm_start_prices`` feeds each bid round's final λ into the next
round's auction; the first round of every slot starts cold.  Off by
default — every archived experiment regenerates cold — so these tests
pin the plumbing: the flag, tuple/dict price-form equivalence at the
solver, within-slot carry semantics, and graceful no-op for schedulers
without warm-start support.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np
import pytest

from repro.core.auction import AuctionSolver
from repro.core.problem import random_problem
from repro.core.scheduler import AuctionScheduler
from repro.p2p.config import SystemConfig
from repro.p2p.system import P2PSystem

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "oracles"))
from auction import solve_in_mode, solve_jacobi_dense  # noqa: E402


class TestConfigFlags:
    def test_flags_accepted(self):
        config = SystemConfig.tiny(warm_start_prices=True)
        config.validate()
        assert config.warm_start_prices

    def test_default_off(self):
        assert not SystemConfig.tiny().warm_start_prices
        assert not SystemConfig.paper().warm_start_prices


class TestPriceFormEquivalence:
    """(ids, values) arrays and the dict warm-start agree exactly."""

    @pytest.mark.parametrize("mode", ["jacobi", "jacobi-dense", "gauss-seidel"])
    def test_tuple_equals_dict(self, mode):
        p = random_problem(np.random.default_rng(5), n_requests=40, n_uploaders=8)
        warm_dict = {u: 0.25 * i for i, u in enumerate(p.uploaders())}
        ids = np.fromiter(warm_dict.keys(), dtype=np.int64, count=len(warm_dict))
        vals = np.fromiter(warm_dict.values(), dtype=float, count=len(warm_dict))
        a = solve_in_mode(mode, p, initial_prices=warm_dict, epsilon=0.01)
        b = solve_in_mode(mode, p, initial_prices=(ids, vals), epsilon=0.01)
        assert a.assignment == b.assignment
        assert a.prices == b.prices
        assert a.etas == b.etas

    def test_mismatched_ids_fall_back_to_dict_semantics(self):
        p = random_problem(np.random.default_rng(6), n_requests=25, n_uploaders=6)
        uploaders = p.uploaders()
        # Subset of uploaders, scrambled order, one unknown id, one negative λ.
        ids = np.asarray([uploaders[2], uploaders[0], 999_999], dtype=np.int64)
        vals = np.asarray([1.5, -3.0, 7.0])
        as_dict = dict(zip(ids.tolist(), vals.tolist()))
        a = AuctionSolver(epsilon=0.01, mode="jacobi").solve(p, initial_prices=(ids, vals))
        b = AuctionSolver(epsilon=0.01, mode="jacobi").solve(p, initial_prices=as_dict)
        assert a.assignment == b.assignment
        assert a.prices == b.prices

    def test_result_price_arrays_round_trip(self):
        """A result's own price columns are a valid warm start.

        Re-bidding at converged prices is *not* an identity — requests
        whose bid ties the posted λ stay dormant (that is the documented
        CS-1 caveat) — but the warm continuation must stay bit-identical
        between the frontier and dense solvers, and prices never fall.
        """
        p = random_problem(np.random.default_rng(7), n_requests=30, n_uploaders=7)
        cold = AuctionSolver(epsilon=0.01, mode="jacobi").solve(p)
        warm = cold.price_arrays()
        a = AuctionSolver(epsilon=0.01, mode="jacobi").solve(p, initial_prices=warm)
        b = solve_jacobi_dense(AuctionSolver(epsilon=0.01), p, initial_prices=warm)
        assert a.assignment == b.assignment
        assert a.prices == b.prices
        assert a.etas == b.etas
        for u, price in a.prices.items():
            assert price >= cold.prices[u]


class TestSlotLoop:
    def _system(self, **overrides) -> P2PSystem:
        config = SystemConfig.tiny(seed=11, bid_rounds_per_slot=3, **overrides)
        system = P2PSystem(config)
        system.populate_static(12)
        return system

    def test_warm_slot_runs_and_records(self):
        system = self._system(warm_start_prices=True)
        collector = system.run(30.0)
        assert len(collector.slots) == 3
        totals = collector.totals()
        assert totals["served_total"] > 0
        assert 0.0 <= totals["miss_rate"] <= 1.0

    def test_within_slot_only_does_not_carry(self):
        """Rounds after the first warm-start; each slot's first is cold."""
        system = self._system(warm_start_prices=True)
        inner = system.scheduler
        seen = []

        class Spy:
            name = inner.name
            supports_warm_start = True

            def schedule(self, problem, initial_prices=None):
                seen.append(initial_prices)
                return inner.schedule(problem, initial_prices=initial_prices)

        system.scheduler = Spy()
        system.run_slot()
        system.run_slot()
        assert len(seen) == 6  # 2 slots × 3 bid rounds
        for slot_start in (0, 3):
            assert seen[slot_start] is None
            assert seen[slot_start + 1] is not None
            assert seen[slot_start + 2] is not None

    def test_warm_flag_ignored_for_schedulers_without_support(self):
        system = self._system(warm_start_prices=True, scheduler="locality")
        metrics = system.run_slot()
        assert metrics.n_requests >= 0

    def test_default_off_matches_cold_twin(self):
        """Flag off ⇒ trajectories identical to a system never touched."""
        a = self._system()
        b = self._system(warm_start_prices=True)
        # Different flags, same seed: the *first* round of the first slot
        # is cold in both, so its problem must be identical.
        pa = a.build_problem(a.now)
        pb = b.build_problem(b.now)
        assert pa.n_requests == pb.n_requests
        ra = AuctionScheduler(epsilon=0.01).schedule(pa)
        rb = AuctionScheduler(epsilon=0.01).schedule(pb)
        assert ra.assignment == rb.assignment
