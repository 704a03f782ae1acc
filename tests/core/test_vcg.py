"""Tests for the VCG truthfulness extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exact import solve_hungarian
from repro.core.problem import ProblemBuilder, random_problem
from repro.core.strategic import manipulation_study, true_utility_of_peer
from repro.core.vcg import vcg_payments


def monopoly_problem():
    """Two peers compete for one unit; the loser sets the winner's price."""
    builder = ProblemBuilder()
    builder.set_capacity(10, 1)
    builder.add_request(peer=1, chunk="a", valuation=8.0, candidates={10: 1.0})  # surplus 7
    builder.add_request(peer=2, chunk="b", valuation=5.0, candidates={10: 1.0})  # surplus 4
    p = builder.build()
    return p


class TestRestriction:
    def test_without_peer_removes_requests(self, small_problem):
        reduced, index_map = small_problem.without_peer(1)
        assert reduced.n_requests == 3
        assert all(reduced.request(i).peer != 1 for i in range(3))
        # Capacities intact.
        assert reduced.capacity_of(100) == 2

    def test_index_map_points_back(self, small_problem):
        reduced, index_map = small_problem.without_peer(1)
        for new, old in index_map.items():
            assert reduced.request(new).key == small_problem.request(old).key

    def test_reweighted_changes_only_valuations(self, small_problem):
        doubled = small_problem.reweighted(
            lambda r: small_problem.request(r).valuation * 2.0
        )
        assert doubled.n_requests == small_problem.n_requests
        for r in range(small_problem.n_requests):
            assert doubled.request(r).valuation == pytest.approx(
                2.0 * small_problem.request(r).valuation
            )
            assert np.array_equal(
                doubled.candidates_of(r), small_problem.candidates_of(r)
            )


class TestVCGPayments:
    def test_monopoly_price_is_displaced_surplus(self):
        """Winner pays exactly the displaced bidder's surplus (4.0)."""
        p = monopoly_problem()
        outcome = vcg_payments(p)
        assert outcome.result.assignment[0] == 10
        assert outcome.payment_of(1) == pytest.approx(4.0)
        assert outcome.net_utility_of(1) == pytest.approx(7.0 - 4.0)

    def test_loser_pays_nothing(self):
        outcome = vcg_payments(monopoly_problem())
        assert outcome.payment_of(2) == 0.0
        assert outcome.net_utility_of(2) == 0.0

    def test_no_competition_no_payment(self):
        builder = ProblemBuilder()
        builder.set_capacity(10, 2)
        builder.add_request(peer=1, chunk="a", valuation=8.0, candidates={10: 1.0})
        builder.add_request(peer=2, chunk="b", valuation=5.0, candidates={10: 1.0})
        p = builder.build()
        outcome = vcg_payments(p)
        assert outcome.total_payments() == pytest.approx(0.0)

    def test_payments_nonnegative_and_ir(self, rng):
        """Non-negative payments; individual rationality (net utility ≥ 0)."""
        for _ in range(6):
            p = random_problem(rng, n_requests=25, n_uploaders=4, capacity_range=(1, 2))
            outcome = vcg_payments(p)
            for peer, payment in outcome.payments.items():
                assert payment >= -1e-9
                assert outcome.net_utility_of(peer) >= -1e-9

    def test_payment_bounded_by_gross_utility(self, rng):
        p = random_problem(rng, n_requests=30, n_uploaders=3, capacity_range=(1, 2))
        outcome = vcg_payments(p)
        for peer in outcome.payments:
            assert outcome.payment_of(peer) <= outcome.gross_utilities[peer] + 1e-9


class TestTruthfulness:
    @pytest.mark.parametrize("factor", [0.3, 0.7, 1.5, 3.0])
    def test_misreporting_never_beats_truth_under_vcg(self, factor, rng):
        """VCG's dominant-strategy property, numerically."""
        p = random_problem(rng, n_requests=20, n_uploaders=3, capacity_range=(1, 2))
        peer = p.request(0).peer
        truthful, lied = manipulation_study(p, peer, [1.0, factor])
        assert lied.vcg_net_utility <= truthful.vcg_net_utility + 1e-9

    def test_paper_auction_is_manipulable(self):
        """Without payments, inflating reports strictly helps the cheater
        and strictly hurts society — the gap the paper's future work targets."""
        p = monopoly_problem()
        # Peer 2 (the rightful loser) inflates 5.0 → 25.0 and steals the unit.
        truthful, lied = manipulation_study(p, peer=2, factors=[1.0, 5.0])
        assert lied.auction_true_utility > truthful.auction_true_utility
        assert lied.auction_welfare < truthful.auction_welfare
        # Under VCG the theft is unprofitable.
        assert lied.vcg_net_utility <= truthful.vcg_net_utility + 1e-9

    def test_true_utility_of_peer_accounting(self, small_problem):
        result = solve_hungarian(small_problem)
        total = sum(
            true_utility_of_peer(small_problem, result, peer)
            for peer in {small_problem.request(r).peer for r in range(4)}
        )
        assert total == pytest.approx(result.welfare(small_problem))
