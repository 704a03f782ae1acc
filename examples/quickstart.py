"""Quickstart: schedule one slot with the primal-dual auction.

Builds a small chunk-scheduling problem by hand, solves it with the
paper's auction, verifies Theorem 1's optimality certificates, and
cross-checks the welfare against the exact Hungarian oracle.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    AuctionSolver,
    ProblemBuilder,
    solve_hungarian,
    verify_theorem1,
)


def main() -> None:
    # One slot: two uploaders selling bandwidth, four chunk requests.
    # Edge weight = valuation − network cost (cheap intra-ISP links ~1,
    # expensive inter-ISP links ~5, as in the paper's cost model).
    builder = ProblemBuilder()
    builder.set_capacity(100, 2)  # peer 100 can upload 2 chunks this slot
    builder.set_capacity(200, 1)

    builder.add_request(peer=1, chunk="v0:17", valuation=8.0,
                        candidates={100: 1.2, 200: 5.1})
    builder.add_request(peer=2, chunk="v0:18", valuation=6.5,
                        candidates={100: 0.8})
    builder.add_request(peer=3, chunk="v3:02", valuation=5.0,
                        candidates={100: 4.9, 200: 0.6})
    builder.add_request(peer=4, chunk="v9:40", valuation=1.0,
                        candidates={200: 4.8})  # v − w < 0: not worth serving
    problem = builder.build()  # checks every request; the problem is immutable

    print(problem.describe())

    solver = AuctionSolver(epsilon=1e-9)
    result = solver.solve(problem)

    print("\nAuction outcome:")
    for index, downstream, chunk, uploader, utility in result.served_edges(problem):
        print(f"  request {index} (peer {downstream}, chunk {chunk}) "
              f"<- uploader {uploader}   net utility {utility:+.2f}")
    for index, uploader in result.assignment.items():
        if uploader is None:
            print(f"  request {index} unserved "
                  f"(best net utility {problem.edge_values_of(index).max():+.2f})")

    print(f"\nbandwidth prices λ_u: "
          f"{ {u: round(p, 3) for u, p in result.prices.items()} }")
    print(f"social welfare: {result.welfare(problem):.3f}")

    # Theorem 1, numerically: complementary slackness + duality gap.
    report = verify_theorem1(problem, result, epsilon=1e-9)
    print(f"optimality certificates hold: {report.optimal} "
          f"(duality gap {report.gap:.2e})")

    # Cross-check against the exact centralized oracle.
    optimum = solve_hungarian(problem).welfare(problem)
    print(f"Hungarian oracle welfare: {optimum:.3f} "
          f"(auction matches: {abs(optimum - result.welfare(problem)) < 1e-6})")


if __name__ == "__main__":
    main()
