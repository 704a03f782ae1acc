"""Pins for the CSR-vectorized jacobi auction and dual computation.

The CSR port is held to a stronger standard than the theorem bound: on
the same problem it must reproduce the padded dense oracle
(``tests/oracles/auction.py``) *exactly* (same assignment, prices and duals), because both follow the
identical round/tie-break semantics.  Gauss-seidel remains the
sequential-semantics reference and only agrees within ``n·ε``.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import auction
from repro.core.auction import AuctionSolver, PriceTrace, _segment_max
from repro.core.duality import check_complementary_slackness
from repro.core.exact import solve_hungarian
from repro.core.problem import ProblemBuilder, random_problem
from repro.p2p.config import SystemConfig
from repro.p2p.system import P2PSystem

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "oracles"))
from auction import etas_reference, solve_in_mode, solve_jacobi_dense  # noqa: E402

EPSILON = 1e-6


def solve_like_dense(problem, epsilon):
    """The jacobi result and its price-callback stream, both asserted
    equal to the dense oracle's: assignment, λ, η, stats and callbacks."""
    outcomes = []
    for mode in ("jacobi", "jacobi-dense"):
        calls = []
        result = solve_in_mode(
            mode,
            problem,
            epsilon=epsilon,
            on_price_update=lambda *call, calls=calls: calls.append(call),
        )
        outcomes.append((result, calls))
    (result, calls), (dense, dense_calls) = outcomes
    assert result.assignment == dense.assignment
    assert result.prices == dense.prices
    assert result.etas == dense.etas
    assert result.stats == dense.stats
    assert calls == dense_calls
    return result, calls


def skewed_problem(rng: np.random.Generator, n_requests=60, n_uploaders=25):
    """Instance with heavily skewed candidate counts (the padding worst case)."""
    builder = ProblemBuilder()
    ids = [10_000 + i for i in range(n_uploaders)]
    for u in ids:
        builder.set_capacity(u, int(rng.integers(0, 3)))
    for r in range(n_requests):
        # A few requests see almost every uploader; most see one or two.
        k = n_uploaders if r % 10 == 0 else int(rng.integers(1, 3))
        chosen = rng.choice(n_uploaders, size=min(k, n_uploaders), replace=False)
        candidates = {
            ids[int(j)]: float(rng.uniform(0, 10)) for j in chosen
        }
        builder.add_request(r, f"c{r}", float(rng.uniform(0.5, 12.0)), candidates)
    p = builder.build()
    return p


class TestSegmentMax:
    def test_basic_segments(self):
        x = np.array([1.0, 3.0, 2.0, 7.0, 5.0])
        indptr = np.array([0, 2, 2, 5])
        out = _segment_max(x, indptr)
        assert out[0] == 3.0
        assert out[1] == -np.inf  # empty segment
        assert out[2] == 7.0

    def test_all_empty(self):
        out = _segment_max(np.empty(0), np.array([0, 0, 0]))
        assert np.all(np.isneginf(out))


class TestJacobiCSRvsDense:
    @pytest.mark.parametrize("seed", range(12))
    def test_identical_outcomes_random(self, seed):
        p = random_problem(
            np.random.default_rng(seed), n_requests=70, n_uploaders=10, max_candidates=6
        )
        a = AuctionSolver(epsilon=EPSILON, mode="jacobi").solve(p)
        b = solve_jacobi_dense(AuctionSolver(epsilon=EPSILON), p)
        assert a.assignment == b.assignment
        assert a.prices == b.prices
        assert a.etas == b.etas
        assert a.stats.bids_submitted == b.stats.bids_submitted
        assert a.stats.rounds == b.stats.rounds

    @pytest.mark.parametrize("seed", range(6))
    def test_identical_outcomes_skewed(self, seed):
        p = skewed_problem(np.random.default_rng(100 + seed))
        a = AuctionSolver(epsilon=EPSILON, mode="jacobi").solve(p)
        b = solve_jacobi_dense(AuctionSolver(epsilon=EPSILON), p)
        assert a.assignment == b.assignment
        assert a.prices == b.prices

    def test_matches_hungarian_within_bound(self):
        for seed in range(8):
            p = random_problem(np.random.default_rng(seed), n_requests=50)
            result = AuctionSolver(epsilon=EPSILON, mode="jacobi").solve(p)
            result.check_feasible(p)
            optimum = solve_hungarian(p).welfare(p)
            assert result.welfare(p) >= optimum - p.n_requests * EPSILON - 1e-9

    def test_gauss_seidel_welfare_within_n_eps(self):
        for seed in range(8):
            p = random_problem(np.random.default_rng(seed), n_requests=60)
            jac = AuctionSolver(epsilon=EPSILON, mode="jacobi").solve(p)
            gs = AuctionSolver(epsilon=EPSILON, mode="gauss-seidel").solve(p)
            # Both land in [optimum − n·ε, optimum], so they agree within n·ε.
            bound = p.n_requests * EPSILON + 1e-9
            assert abs(jac.welfare(p) - gs.welfare(p)) <= bound

    def test_large_solve_runs_both_round_paths(self):
        # 2,500 requests: the bulk and mid-size rounds take the vector
        # path, the small rounds after them the tail loop.
        p = random_problem(
            np.random.default_rng(0), n_requests=2500, n_uploaders=400, max_candidates=6
        )
        result, _ = solve_like_dense(p, 0.01)
        assert 0 < result.stats.scalar_rounds < result.stats.rounds

    def test_price_trace_matches_dense_on_both_round_paths(self):
        # 400 requests: 3 vector rounds, then 14 tail rounds.  The trace
        # reads λ after every round, so a tail reprice that missed the
        # solver's λ array would show in the series.
        p = random_problem(
            np.random.default_rng(0), n_requests=400, n_uploaders=80, max_candidates=5
        )
        dense = PriceTrace()
        solve_jacobi_dense(AuctionSolver(epsilon=0.01, trace=dense), p)
        for small in (0, auction._SMALL_ROUND_ROWS):
            trace = PriceTrace()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(auction, "_SMALL_ROUND_ROWS", small)
                solver = AuctionSolver(epsilon=0.01, mode="jacobi", trace=trace)
                stats = solver.solve(p).stats
            if small:
                assert 10 <= stats.scalar_rounds < stats.rounds
            else:
                assert stats.scalar_rounds == 0
            assert trace.times == dense.times
            assert trace.prices == dense.prices  # every uploader's series

    def test_warm_start_equivalence(self, small_problem):
        warm = {100: 0.5, 200: 0.25}
        a = AuctionSolver(epsilon=EPSILON, mode="jacobi").solve(small_problem, warm)
        b = solve_jacobi_dense(AuctionSolver(epsilon=EPSILON), small_problem, warm)
        assert a.assignment == b.assignment
        assert a.prices == b.prices


class TestEmptyProblem:
    """Satellite fix: n == 0 must return a fully-populated result."""

    def make_empty(self):
        builder = ProblemBuilder()
        builder.set_capacity(7, 3)
        builder.set_capacity(8, 0)
        p = builder.build()
        return p

    @pytest.mark.parametrize("mode", ["jacobi", "jacobi-dense", "gauss-seidel"])
    def test_all_fields_populated(self, mode):
        result = solve_in_mode(mode, self.make_empty())
        assert result.assignment == {}
        assert result.prices == {7: 0.0, 8: 0.0}
        assert result.etas == {}
        assert result.stats is not None
        assert result.stats.converged
        assert result.stats.bids_submitted == 0

    @pytest.mark.parametrize("mode", ["jacobi", "jacobi-dense", "gauss-seidel"])
    def test_warm_start_prices_clamped_and_reported(self, mode):
        result = solve_in_mode(
            mode, self.make_empty(), initial_prices={7: 1.5, 8: -2.0}
        )
        assert result.prices == {7: 1.5, 8: 0.0}
        assert result.etas == {}


class TestEtasVectorized:
    """Satellite pin: vectorized _etas equals the per-request loop."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 5_000))
    def test_pinned_against_loop(self, seed):
        rng = np.random.default_rng(seed)
        p = random_problem(rng, n_requests=30, n_uploaders=8, capacity_range=(0, 3))
        lam = {
            u: float(rng.uniform(0, 5)) if rng.random() < 0.8 else 0.0
            for u in p.uploaders()
        }
        fast = AuctionSolver._etas(p, lam)
        slow = etas_reference(p, lam)
        assert fast.keys() == slow.keys()
        for r in fast:
            assert fast[r] == slow[r]

    def test_zero_capacity_excluded(self):
        builder = ProblemBuilder()
        builder.set_capacity(1, 0)
        builder.set_capacity(2, 1)
        builder.add_request(10, "a", 9.0, {1: 0.5, 2: 4.0})
        p = builder.build()
        lam = {1: 0.0, 2: 1.0}
        # Only uploader 2 counts: eta = 9 - 4 - 1 = 4 (not 8.5 via u=1).
        assert AuctionSolver._etas(p, lam) == {0: 4.0}
        assert etas_reference(p, lam) == {0: 4.0}

    def test_empty_problem(self):
        builder = ProblemBuilder()
        builder.set_capacity(1, 2)
        p = builder.build()
        assert AuctionSolver._etas(p, {1: 0.0}) == {}


class TestDeferredEtas:
    """The jacobi result computes η on first read, at the solve's λ."""

    def test_matches_the_reference_and_dense(self):
        p = random_problem(
            np.random.default_rng(5), n_requests=80, n_uploaders=12,
            capacity_range=(0, 3),
        )
        result = AuctionSolver(epsilon=EPSILON, mode="jacobi").solve(p)
        dense = solve_jacobi_dense(AuctionSolver(epsilon=EPSILON), p)
        ids, etas = result.eta_arrays()
        assert ids.tolist() == list(range(p.n_requests))
        assert dict(zip(ids.tolist(), etas.tolist())) == dense.etas
        assert result.etas == etas_reference(p, result.prices)

    def test_certificate_on_a_cold_solve_of_a_built_problem(self):
        system = P2PSystem(SystemConfig.tiny(seed=2))
        system.populate_static(12)
        problem = system.build_problem(system.now)
        system.close()
        assert problem.n_requests > 0
        result = AuctionSolver(epsilon=EPSILON, mode="jacobi").solve(problem)
        report = check_complementary_slackness(problem, result, tol=2 * EPSILON)
        assert report.dual_feasible and report.cs_capacity, report.violations[:3]
        assert report.cs_assignment and report.cs_request, report.violations[:3]


class TestContestedCommit:
    """Hand-built rounds that pin the contested merge's tie order.

    ``ε = 0.5`` and integer values keep every bid an exact binary
    fraction, so ties are exact.  In each case a strong bidder ``D``
    takes uploader ``V`` in round 1 and the requests it outbids turn to
    their second choice in round 2, against members accepted in round 1.
    The last case pins the wake-up of an ε = 0 tie instead.
    """

    EPS = 0.5
    #: The zero-capacity uploader of the inert padding requests.
    DEAD = 99

    def solve(self, builder, epsilon=EPS):
        """Jacobi outcome and price-callback stream on both round paths.

        The builder's problem is solved twice, each time held equal to
        the dense oracle.
        First every round runs on the vector path (``_SMALL_ROUND_ROWS
        = 0``).  Then the builder pads the problem with inert requests
        whose only candidate, ``DEAD``, has no capacity: they retire up
        front and raise n, so round 1 is small (2·rows < n) and the whole
        solve runs in the tail loop.  Both runs must agree on the hand-built
        requests' assignment, the other uploaders' prices, the stats and
        the callback stream, which are returned.
        """
        problem = builder.build()
        live = problem.n_requests
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(auction, "_SMALL_ROUND_ROWS", 0)
            result, calls = solve_like_dense(problem, epsilon)
        assert result.stats.scalar_rounds == 0
        vector = (result.assignment, result.prices, result.stats, calls)

        builder.set_capacity(self.DEAD, 0)
        for i in range(2 * live):
            builder.add_request(900 + i, f"inert{i}", 1.0, {self.DEAD: 0.0})
        result, calls = solve_like_dense(builder.build(), epsilon)
        assert result.stats.scalar_rounds == result.stats.rounds
        assignment = {r: u for r, u in result.assignment.items() if r < live}
        prices = {u: lam for u, lam in result.prices.items() if u != self.DEAD}
        assert (assignment, prices, result.stats, calls) == vector
        return vector

    def test_incoming_bid_tying_the_lowest_member_loses(self):
        # U (id 1, B = 2) accepts A at 3.5 in round 1 and is not full.
        # In round 2 B bids 5.5 and C bids 3.5 at U: B fills the set and
        # C, tying member A, is rejected (the heap rejects b <= min).
        builder = ProblemBuilder()
        builder.set_capacity(1, 2)
        builder.set_capacity(2, 1)
        builder.add_request(100, "a", 5.0, {1: 2.0})  # A
        builder.add_request(101, "b", 10.0, {1: 5.0, 2: 1.0})  # B
        builder.add_request(102, "c", 10.0, {1: 7.0, 2: 2.0})  # C
        builder.add_request(103, "d", 20.0, {2: 0.0})  # D
        assignment, prices, stats, _ = self.solve(builder)
        assert assignment == {0: 1, 1: 1, 2: None, 3: 2}
        assert stats.evictions == 0
        assert prices == {1: 3.5, 2: 20.5}

    def test_earlier_accepted_of_equal_members_is_evicted(self):
        # A and B both bid 3.5 in round 1 and fill U (id 1, B = 2), A
        # first.  In round 2 C bids 5.5 and evicts the lowest (bid, seq)
        # member: A.  The lowest kept bid stays 3.5, so λ_U does not move.
        builder = ProblemBuilder()
        builder.set_capacity(1, 2)
        builder.set_capacity(2, 1)
        builder.add_request(100, "a", 5.0, {1: 2.0})  # A
        builder.add_request(101, "b", 6.0, {1: 3.0})  # B
        builder.add_request(102, "c", 10.0, {1: 5.0, 2: 1.0})  # C
        builder.add_request(103, "d", 20.0, {2: 0.0})  # D
        assignment, prices, stats, _ = self.solve(builder)
        assert assignment == {0: None, 1: 1, 2: 1, 3: 2}
        assert stats.evictions == 1
        assert prices == {1: 3.5, 2: 20.5}

    def test_member_bidding_its_batch_best_bid_stays(self):
        # A bids 3.5 and B 5.5 in round 1 and fill U (id 1, B = 2).  In
        # round 2 C bids 5.5 at U, its batch's best bid and equal to
        # member B's: B ranks above C and keeps its slot unsorted, C
        # evicts A, the lowest member, and λ_U rises to 5.5.
        builder = ProblemBuilder()
        builder.set_capacity(1, 2)
        builder.set_capacity(2, 1)
        builder.add_request(100, "a", 5.0, {1: 2.0})  # A
        builder.add_request(101, "b", 5.0, {1: 0.0})  # B
        builder.add_request(102, "c", 10.0, {1: 5.0, 2: 1.0})  # C
        builder.add_request(103, "d", 20.0, {2: 0.0})  # D
        assignment, prices, stats, calls = self.solve(builder)
        assert assignment == {0: None, 1: 1, 2: 1, 3: 2}
        assert stats.evictions == 1
        assert prices == {1: 5.5, 2: 20.5}
        assert calls == [(1, 1, 3.5), (1, 2, 20.5), (2, 1, 5.5)]

    def test_contested_and_empty_auctioneers_reprice_in_uploader_order(self):
        # Round 1: A fills uploader 2 (B = 1) at 3.5 and D takes V (id 4).
        # Round 2: E and G fill the empty uploaders 1 and 3 while F
        # evicts A from uploader 2; all three reprice in the same round,
        # and the callbacks arrive in ascending uploader order.
        builder = ProblemBuilder()
        for uploader in (1, 2, 3, 4):
            builder.set_capacity(uploader, 1)
        builder.add_request(100, "a", 5.0, {2: 2.0})  # A
        builder.add_request(103, "d", 20.0, {4: 0.0})  # D
        builder.add_request(104, "e", 10.0, {4: 1.0, 1: 5.0})  # E
        builder.add_request(105, "f", 10.0, {4: 1.0, 2: 4.0})  # F
        builder.add_request(106, "g", 10.0, {4: 1.0, 3: 5.0})  # G
        assignment, prices, stats, calls = self.solve(builder)
        assert assignment == {0: None, 1: 4, 2: 1, 3: 2, 4: 3}
        assert stats.evictions == 1
        assert prices == {1: 5.5, 2: 6.5, 3: 5.5, 4: 20.5}
        assert calls == [(1, 2, 3.5), (1, 4, 20.5), (2, 1, 5.5), (2, 2, 6.5), (2, 3, 5.5)]

    def test_dormant_tie_wakes_when_its_other_candidate_reprices(self):
        # ε = 0.  X values uploaders 1 and 2 at 8 each, so its bid at
        # its target, 1, equals λ and it goes dormant in round 1, when
        # A takes uploader 3 at 20 and rejects B.  In round 2 B bids 5
        # at uploader 2, X's other candidate; that reprice wakes X,
        # which takes uploader 1 at 8 − 3 = 5 in round 3.  X is
        # evaluated twice, where the dense reference's scan evaluates
        # it in all three rounds.
        builder = ProblemBuilder()
        for uploader in (1, 2, 3):
            builder.set_capacity(uploader, 1)
        builder.add_request(100, "x", 10.0, {1: 2.0, 2: 2.0})  # X
        builder.add_request(101, "a", 20.0, {3: 0.0})  # A
        builder.add_request(102, "b", 10.0, {3: 0.0, 2: 5.0})  # B
        assignment, prices, stats, calls = self.solve(builder, epsilon=0.0)
        assert assignment == {0: 1, 1: 3, 2: 2}
        assert prices == {1: 5.0, 2: 5.0, 3: 20.0}
        assert calls == [(1, 3, 20.0), (2, 2, 5.0), (3, 1, 5.0)]
        assert stats.rows_evaluated == 5
