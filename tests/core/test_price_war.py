"""A pinned price war: ties that make the auction crawl at small ε.

``test_gauss_seidel_and_jacobi_agree`` (``test_auction_properties.py``)
explores at random, and it once drew this instance.  Several requests
value two or more uploaders equally (zero-cost edges), so rival bidders
outbid each other by one ε at a time: the auction needs about 1.4/ε
bids.  At ε = 1e-6 that is past either mode's default budget, and both
raise :class:`AuctionNonConvergence` (7 of 20 requests assigned).  At
ε = 1e-4 both reach the Hungarian optimum, 40.77.

ε-scaling does not rescue it: its warm phases fall from welfare 40.51
to 17.85 with prices stranded on uploaders that end unsaturated (ROADMAP
item 6, warm starts that keep Theorem 1), so only its cold fallback
reaches the optimum.
"""

from __future__ import annotations

import pytest

from repro.core.auction import AuctionNonConvergence, AuctionSolver
from repro.core.epsilon_scaling import ScaledAuctionSolver
from repro.core.exact import solve_hungarian
from repro.core.problem import ProblemBuilder

CAPACITY = {100: 2, 101: 1, 102: 3, 103: 1}
#: Request ``r`` is ``peer=r, chunk=f"c{r}"``: (valuation, {uploader: cost}).
REQUESTS = [
    (7.26, {101: 0.0}), (9.502, {100: 0.0, 102: 0.0, 103: 9.679, 101: 2.292}), (5.0, {}),
    (7.54, {102: 4.707}), (5.181, {100: 3.779, 103: 4.0}),
    (5.165, {100: 4.824, 101: 0.0, 103: 0.0, 102: 0.0}), (0.0, {}), (0.0, {}), (0.0, {}),
    (0.0, {102: 0.0, 103: 0.0}), (0.0, {100: 0.333, 101: 0.0}), (0.0, {102: 0.0}),
    (6.0, {103: 0.0, 100: 7.565, 102: 0.0}), (0.531, {}),
    (0.001, {101: 6.299, 102: 0.0, 103: 1.1, 100: 9.975}), (0.01, {}),
    (1.661, {103: 0.0, 102: 0.0, 101: 0.294}), (3.382, {}), (0.0, {}),
    (8.349, {100: 0.0, 103: 1.0, 102: 2.546}),
]
OPTIMUM = 40.77


@pytest.fixture(scope="module")
def problem():
    builder = ProblemBuilder()
    for uploader, capacity in CAPACITY.items():
        builder.set_capacity(uploader, capacity)
    for r, (valuation, candidates) in enumerate(REQUESTS):
        builder.add_request(
            peer=r, chunk=f"c{r}", valuation=valuation, candidates=candidates
        )
    return builder.build()


def test_hungarian_optimum(problem):
    assert solve_hungarian(problem).welfare(problem) == pytest.approx(OPTIMUM)


@pytest.mark.parametrize(
    "mode, bids", [("gauss-seidel", 14_052), ("jacobi", 14_056)]
)
def test_both_modes_reach_the_optimum_at_1e_4(problem, mode, bids):
    result = AuctionSolver(epsilon=1e-4, mode=mode).solve(problem)
    result.check_feasible(problem)
    assert result.welfare(problem) == pytest.approx(OPTIMUM)
    assert result.stats.bids_submitted == bids


@pytest.mark.parametrize(
    "mode, max_bids",
    # Gauss-Seidel would take about 15 s to spend its default budget of
    # 1,000,000 bids; jacobi's default round budget runs out in about 1 s.
    [("gauss-seidel", 20_000), ("jacobi", None)],
)
def test_a_budget_below_the_war_raises(problem, mode, max_bids):
    solver = AuctionSolver(epsilon=1e-6, mode=mode, max_bids=max_bids)
    with pytest.raises(AuctionNonConvergence, match="7/20 assigned"):
        solver.solve(problem)


def test_scaled_solver_reaches_the_optimum_through_its_fallback(problem):
    solver = ScaledAuctionSolver(epsilon_final=1e-4)
    result = solver.solve(problem)
    assert result.welfare(problem) == pytest.approx(OPTIMUM)
    assert solver.phases[0].welfare == pytest.approx(40.51, abs=0.01)
    assert solver.phases[-1].welfare == pytest.approx(17.85, abs=0.01)
    assert solver.fell_back


@pytest.mark.xfail(
    strict=True,
    reason="warm phases strand prices (ROADMAP item 6); only the cold "
    "fallback reaches the optimum",
)
def test_scaled_solver_finishes_without_its_fallback(problem):
    solver = ScaledAuctionSolver(epsilon_final=1e-4)
    result = solver.solve(problem)
    assert not solver.fell_back
    assert result.welfare(problem) == pytest.approx(OPTIMUM)
