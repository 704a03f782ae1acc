"""Solve-time bench: the live auction solves of one perfbench workload.

    make solve-bench W=premiere-3k SEED=1
    python3 benchmarks/solve_bench.py --workload premiere-3k --seed 1

Sets up pass 0 of a workload of ``perfbench/slotbench.py``
(``WORKLOADS``; the same sub-seed, config and warm-up slots as the
benchmark's first pass) and captures every solve of its first
``CAPTURED_SLOTS`` measured slots — the problem and the warm-start
prices as the slot loop passed them to the scheduler: 3 slots × 4 bid
rounds = 12 solves.  It then re-solves them with a fresh
``AuctionSolver`` at the workload's ε and prints

* ``solve_ms``: the solver's mean time per solve, from the fastest of
  ``SWEEPS`` sweeps over all captured solves, with no price callback
  and with each problem's CSR view already built;
* ``digest``: one sha256 over every result's assignment, λ, every
  ``SolverStats`` counter and its price-callback stream, from one more
  solve with a callback.

Two trees can so be checked for bit-identical solves, and their solve
time compared, in seconds rather than a full ``make perf-ab``; run both
from paths of equal length, as ``make perf-ab`` does, before comparing
times.  One process, no threads.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import slotbench  # noqa: E402  (puts src/ on the path)

from repro.core.auction import AuctionSolver  # noqa: E402

#: Measured slots whose solves are captured.
CAPTURED_SLOTS = 3
#: Timed sweeps over the captured solves; the fastest counts.
SWEEPS = 5

Solve = Tuple[object, Optional[Tuple[np.ndarray, np.ndarray]]]


def capture(workload: "slotbench.Workload", seed: int) -> Tuple[List[Solve], float]:
    """The solves of ``workload``'s first measured slots, and its ε."""
    system = workload.setup(slotbench.pass_seed(seed, 0))
    scheduler = system.scheduler
    schedule = scheduler.schedule
    solves: List[Solve] = []

    def record(problem, initial_prices=None):
        if initial_prices is not None:
            initial_prices = tuple(np.array(a) for a in initial_prices)
        solves.append((problem, initial_prices))
        return schedule(problem, initial_prices=initial_prices)

    scheduler.schedule = record
    try:
        for _ in range(CAPTURED_SLOTS):
            workload.run_slot(system)
    finally:
        del scheduler.schedule
        system.close()
    return solves, system.config.epsilon


def digest(solves: List[Solve], epsilon: float) -> str:
    """sha256 over each solve's assignment, λ, stats and price callbacks."""
    h = hashlib.sha256()
    for problem, prices in solves:
        calls: list = []
        solver = AuctionSolver(
            epsilon=epsilon, on_price_update=lambda *c: calls.append(c)
        )
        result = solver.solve(problem, prices)
        h.update(result.assignment_array().tobytes())
        for column in result.price_arrays():
            h.update(np.ascontiguousarray(column).tobytes())
        h.update(json.dumps(dataclasses.astuple(result.stats)).encode())
        h.update(json.dumps(calls).encode())
    return h.hexdigest()


def solve_ms(solves: List[Solve], epsilon: float, sweeps: int = SWEEPS) -> float:
    """Mean ms per solve over the fastest of ``sweeps`` sweeps."""
    solver = AuctionSolver(epsilon=epsilon)
    best = float("inf")
    for _ in range(sweeps):
        t0 = time.perf_counter()
        for problem, prices in solves:
            solver.solve(problem, prices)
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best / max(len(solves), 1)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(slotbench.WORKLOADS)
    )
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    solves, epsilon = capture(slotbench.WORKLOADS[args.workload], args.seed)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"solves {len(solves)}  epsilon {epsilon}")
    print(f"solve_ms {solve_ms(solves, epsilon):.3f}  (min of {SWEEPS} sweeps)")
    print(f"digest {digest(solves, epsilon)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
