"""Parameter sweeps and ablations beyond the paper's figures.

These quantify the reproduction's design choices:

* ε sensitivity of the auction (A1): optimality gap and work vs ε;
* solver shoot-out (A2): auction vs Hungarian vs LP vs min-cost flow;
* bidding mode (A3): the Gauss-Seidel reference vs the vectorized
  jacobi auction that every slot runs;
* scheduler shoot-out on the full system (A4), including the retry
  variant of the locality baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.auction import AuctionSolver
from ..core.epsilon_scaling import ScaledAuctionSolver
from ..core.exact import solve_hungarian, solve_lp_relaxation, solve_min_cost_flow
from ..core.problem import SchedulingProblem, random_problem
from ..metrics.report import render_table
from ..p2p.config import SystemConfig
from ..p2p.system import P2PSystem

__all__ = [
    "EpsilonSweepRow",
    "RebidRow",
    "SolverRow",
    "epsilon_sweep",
    "rebid_study",
    "render_rebid_study",
    "scheduler_shootout",
    "solver_comparison",
]


@dataclass(frozen=True)
class EpsilonSweepRow:
    """One ε setting's outcome on a fixed instance."""

    epsilon: float
    welfare: float
    optimality: float  # welfare / hungarian optimum
    bids: int
    rounds: int


def epsilon_sweep(
    epsilons: List[float],
    rng: Optional[np.random.Generator] = None,
    n_requests: int = 400,
    n_uploaders: int = 40,
    max_candidates: int = 8,
) -> List[EpsilonSweepRow]:
    """Ablation A1: the work/optimality trade-off of the bidding increment."""
    rng = rng or np.random.default_rng(0)
    problem = random_problem(
        rng,
        n_requests=n_requests,
        n_uploaders=n_uploaders,
        max_candidates=max_candidates,
    )
    optimum = solve_hungarian(problem).welfare(problem)
    rows = []
    for epsilon in epsilons:
        result = AuctionSolver(epsilon=epsilon).solve(problem)
        welfare = result.welfare(problem)
        rows.append(
            EpsilonSweepRow(
                epsilon=epsilon,
                welfare=welfare,
                optimality=welfare / optimum if optimum else 1.0,
                bids=result.stats.bids_submitted,
                rounds=result.stats.rounds,
            )
        )
    return rows


@dataclass(frozen=True)
class SolverRow:
    """One solver's outcome on a fixed instance."""

    solver: str
    welfare: float
    served: int


def solver_comparison(
    rng: Optional[np.random.Generator] = None,
    n_requests: int = 400,
    n_uploaders: int = 40,
    max_candidates: int = 8,
    epsilon: float = 0.01,
) -> List[SolverRow]:
    """Ablation A2: auction and scaled auction vs the exact oracles."""
    rng = rng or np.random.default_rng(1)
    problem = random_problem(
        rng,
        n_requests=n_requests,
        n_uploaders=n_uploaders,
        max_candidates=max_candidates,
    )

    def row(name: str, result) -> SolverRow:
        return SolverRow(
            solver=name,
            welfare=result.welfare(problem),
            served=result.n_served(),
        )

    return [
        row("auction-gs", AuctionSolver(epsilon, mode="gauss-seidel").solve(problem)),
        row("auction-jacobi", AuctionSolver(epsilon, mode="jacobi").solve(problem)),
        row("auction-scaled", ScaledAuctionSolver(epsilon_final=epsilon).solve(problem)),
        row("hungarian", solve_hungarian(problem)),
        row("lp", solve_lp_relaxation(problem).result),
        row("min-cost-flow", solve_min_cost_flow(problem)),
    ]


def scheduler_shootout(
    schedulers: tuple = ("auction", "locality", "locality-retry", "agnostic", "greedy", "random"),
    seed: int = 0,
    n_peers: int = 150,
    duration_seconds: float = 100.0,
) -> Dict[str, Dict[str, float]]:
    """Ablation A4: whole-system metrics per scheduler on one workload.

    Besides the collector totals, each row carries ``download_fairness``
    (Jain's index over non-seed peers' downloaded-chunk counts) and
    ``traffic_localization`` (diagonal share of the ISP traffic matrix).
    """
    from ..metrics.fairness import jain_index

    out: Dict[str, Dict[str, float]] = {}
    for name in schedulers:
        config = SystemConfig.bench(seed=seed, scheduler=name)
        system = P2PSystem(config)
        system.populate_static(n_peers)
        collector = system.run(duration_seconds)
        totals = collector.totals()
        downloads = [
            p.chunks_downloaded for p in system.peers.values() if not p.is_seed
        ]
        totals["download_fairness"] = jain_index(downloads)
        totals["traffic_localization"] = system.traffic_matrix.localization_index()
        out[name] = totals
    return out


@dataclass(frozen=True)
class RebidRow:
    """One (bid rounds, warm-start) setting's whole-run outcome."""

    rounds: int
    warm: bool
    welfare_total: float
    welfare_per_slot: float
    served: int
    miss_rate: float
    auction_rounds: int  # solver work: jacobi rounds summed over every solve


def rebid_study(
    rounds_list: tuple = (1, 2, 4, 8),
    seed: int = 0,
    n_peers: int = 150,
    duration_seconds: float = 80.0,
) -> List[RebidRow]:
    """Ablation A5: multi-round re-bidding × warm-started prices.

    The paper's peers "keep bidding" within a slot; ``bid_rounds_per_slot
    = R`` splits each slot into R re-bid rounds with refreshed deadlines
    and 1/R budget shares, and ``warm_start_prices`` carries round r's
    final λ into round r+1 (price continuity: a warm re-bid round
    starts near the last round's clearing prices, so fewer of its bids
    lose and bid again).  Each (R, warm)
    cell runs the same moderately-contended static workload (fig5's
    tightened supply) end to end; every column is deterministic.
    """
    rows: List[RebidRow] = []
    for rounds in rounds_list:
        for warm in (False, True) if rounds > 1 else (False,):
            config = SystemConfig.bench(
                seed=seed,
                bid_rounds_per_slot=rounds,
                warm_start_prices=warm,
                peer_upload_min_multiple=0.8,
                peer_upload_max_multiple=2.0,
                seed_upload_multiple=3.0,
            )
            system = P2PSystem(config)
            system.populate_static(n_peers, stagger=False)
            collector = system.run(duration_seconds)
            totals = collector.totals()
            n_slots = len(collector.slots)
            rows.append(
                RebidRow(
                    rounds=rounds,
                    warm=warm,
                    welfare_total=totals["welfare_total"],
                    welfare_per_slot=totals["welfare_mean_per_slot"],
                    served=int(totals["served_total"]),
                    miss_rate=totals["miss_rate"],
                    auction_rounds=sum(
                        s.auction_rounds for s in collector.slots
                    ),
                )
            )
            assert n_slots == int(duration_seconds / config.slot_seconds)
    return rows


def render_rebid_study(rows: List[RebidRow]) -> str:
    """Text table for the re-bid ablation (archived under results/)."""
    note = "auction_rounds sums the jacobi rounds of every solve in the run"
    return note + "\n" + render_table(
        [
            "rounds", "prices", "welfare", "welfare/slot", "served",
            "miss_rate", "auction_rounds",
        ],
        [
            [
                r.rounds,
                "warm" if r.warm else "cold",
                r.welfare_total,
                r.welfare_per_slot,
                r.served,
                r.miss_rate,
                r.auction_rounds,
            ]
            for r in rows
        ],
    )


def render_epsilon_sweep(rows: List[EpsilonSweepRow]) -> str:
    """Text table for the ε ablation."""
    return render_table(
        ["epsilon", "welfare", "optimality", "bids", "rounds"],
        [[r.epsilon, r.welfare, r.optimality, r.bids, r.rounds] for r in rows],
    )


def render_solver_comparison(rows: List[SolverRow]) -> str:
    """Text table for the solver ablation."""
    return render_table(
        ["solver", "welfare", "served"],
        [[r.solver, r.welfare, r.served] for r in rows],
    )
