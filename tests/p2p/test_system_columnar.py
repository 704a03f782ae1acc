"""Columnar vs per-request slot problem construction equivalence.

``P2PSystem.build_problem`` (columnar CSR assembly) must produce the
identical problem as ``build_problem_reference`` (the per-request
dict/loop path): same request sequence, same valuations bit-for-bit,
same candidate edge sets and costs, same capacities.  Candidate *order*
within a request is canonicalized (the columnar path sorts by uploader
id), so edges are compared as mappings.
"""

from __future__ import annotations

import pytest

from repro.core.auction import AuctionSolver
from repro.p2p.config import SystemConfig
from repro.p2p.system import P2PSystem


def assert_same_slot_problem(system, now, capacities=None):
    ref, ref_owner = system.build_problem_reference(now, capacities=capacities)
    col = system.build_problem(now, capacities=capacities)
    assert ref_owner == dict(enumerate(col.request_peer_array().tolist()))
    assert ref.n_requests == col.n_requests
    assert ref.n_edges() == col.n_edges()
    assert ref.uploaders() == col.uploaders()
    for u in ref.uploaders():
        assert ref.capacity_of(u) == col.capacity_of(u)
    for r in range(ref.n_requests):
        assert ref.request(r) == col.request(r)  # peer, chunk, exact valuation
        ref_edges = dict(zip(ref.candidates_of(r).tolist(), ref.costs_of(r).tolist()))
        col_edges = dict(zip(col.candidates_of(r).tolist(), col.costs_of(r).tolist()))
        assert ref_edges == col_edges
    return ref, col


class TestStaticEquivalence:
    def test_fresh_static_network(self):
        system = P2PSystem(SystemConfig.tiny(seed=11))
        system.populate_static(25)
        # Sample costs once so both paths read identical cached values.
        system.build_problem(system.now)
        ref, col = assert_same_slot_problem(system, system.now)
        assert ref.n_requests > 0  # non-vacuous

    def test_after_running_slots(self):
        system = P2PSystem(SystemConfig.tiny(seed=5))
        system.populate_static(30)
        system.run(duration_seconds=40)
        assert_same_slot_problem(system, system.now)

    def test_with_subround_budgets(self):
        system = P2PSystem(SystemConfig.tiny(seed=7, bid_rounds_per_slot=3))
        system.populate_static(20)
        system.run(duration_seconds=20)
        rounds = system.config.bid_rounds_per_slot
        budgets = {
            p.peer_id: system._round_budget(p.upload_capacity_chunks, 1, rounds)
            for p in system.peers.values()
        }
        assert_same_slot_problem(system, system.now, capacities=budgets)

    def test_zero_budget_peers_equal_missing_entries(self):
        """Satellite: skipping zero entries must not change the problem."""
        system = P2PSystem(SystemConfig.tiny(seed=9))
        system.populate_static(15)
        system.run(duration_seconds=20)
        full = {p.peer_id: 0 for p in system.peers.values()}
        some = list(full)[: len(full) // 2]
        for pid in some:
            full[pid] = system.peers[pid].upload_capacity_chunks
        sparse = {pid: cap for pid, cap in full.items() if cap > 0}
        p_full = system.build_problem(system.now, capacities=full)
        p_sparse = system.build_problem(system.now, capacities=sparse)
        assert p_full.uploaders() == p_sparse.uploaders()
        for u in p_full.uploaders():
            assert p_full.capacity_of(u) == p_sparse.capacity_of(u)
        assert p_full.n_requests == p_sparse.n_requests


class TestChurnEquivalence:
    def test_under_churn(self):
        system = P2PSystem(SystemConfig.tiny(seed=21, arrival_rate_per_s=0.4))
        system.populate_static(15)
        system.run(duration_seconds=60, churn=True)
        assert_same_slot_problem(system, system.now)


class TestSolverOnBothBuilds:
    def test_welfare_agrees_within_n_eps(self):
        system = P2PSystem(SystemConfig.tiny(seed=13))
        system.populate_static(30)
        system.run(duration_seconds=30)
        system.build_problem(system.now)  # warm the cost cache
        ref, _ = system.build_problem_reference(system.now)
        col = system.build_problem(system.now)
        eps = 1e-6
        res_ref = AuctionSolver(epsilon=eps, mode="jacobi").solve(ref)
        res_col = AuctionSolver(epsilon=eps, mode="jacobi").solve(col)
        bound = ref.n_requests * eps + 1e-9
        assert abs(res_ref.welfare(ref) - res_col.welfare(col)) <= bound


class TestRunSlotBudgets:
    def test_slot_metrics_unchanged_by_budget_pruning(self):
        """Two identical systems produce identical slot series."""
        a = P2PSystem(SystemConfig.tiny(seed=17, bid_rounds_per_slot=2))
        b = P2PSystem(SystemConfig.tiny(seed=17, bid_rounds_per_slot=2))
        a.populate_static(20)
        b.populate_static(20)
        ca = a.run(duration_seconds=40)
        cb = b.run(duration_seconds=40)
        for ma, mb in zip(ca.slots, cb.slots):
            assert ma.welfare == pytest.approx(mb.welfare)
            assert ma.n_served == mb.n_served
            assert ma.n_requests == mb.n_requests
