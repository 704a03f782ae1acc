"""The primal-dual auction algorithm (Section IV, Alg. 1).

Each uploader ``u`` auctions ``B(u)`` units of upload bandwidth at unit
price ``λ_u`` (initially 0).  A request ``(I_d, c)`` computes its net
utility ``φ_u = v − w_{u→d} − λ_u`` at every candidate, bids at the best
one ``u*`` the amount

    b = λ_{u*} + φ_{u*} − max(φ_second, 0) + ε

i.e. it raises the price to the point of indifference with its
second-best alternative (the paper's ``b = w_û − w_{u*} + λ_û``), where
the *outside option* of not downloading at all (utility 0, dual
``η ≥ 0``) is included among the alternatives.  The auctioneer keeps the
``B(u)`` highest bids, evicting the lowest when displaced, and posts
``λ_u`` = lowest accepted bid once full.

``ε`` is the classic Bertsekas bidding increment.  The paper uses
ε = 0, which is correct when no ties occur (costs are continuous) but
can leave tied bidders dormant; we default to a tiny positive ε which
bounds the welfare loss by ``n·ε`` (see :mod:`repro.core.epsilon_scaling`
for exact optimality via scaling).  ``epsilon=0`` reproduces the paper's
rule exactly, with dormant bidders woken by price changes.

Two execution modes:

* ``"gauss-seidel"`` — one bid at a time, exactly the distributed
  protocol's sequential semantics; Python loops, good to ~10^4 edges.
* ``"jacobi"`` — all unassigned requests bid each round against the
  round-start prices; numpy-vectorized over the problem's flat CSR view
  (segment maxima via ``np.maximum.reduceat``), used for paper-scale
  instances.  The round loop is *event-driven*: per-row best surpluses
  are cached and only rows incident to uploaders whose price
  changed (plus evicted rows) are re-evaluated, via the problem's
  reverse uploader→rows index — so a round costs O(edges touched by
  last round's price changes), not O(pending edges), and there is no
  ``(R, K_max)`` padding, so skewed candidate counts cost nothing.
  Each round commits every auctioneer's batch at once: an auctioneer
  that already holds members and whose batch reaches ``B(u)`` merges
  the two in one ``np.lexsort`` (higher bid first; on equal bids a
  member before an incoming bid, the later-accepted member first, and
  incoming bids in batch order) and keeps the first ``B(u)``, exactly
  what the reference heap walk keeps.
* ``"jacobi-dense"`` — the same synchronized semantics over the padded
  dense view; kept as the equivalence reference for the CSR port (the
  two produce identical assignments) and for benchmarking the padding
  blowup.

All modes provably reach assignments within ``n·ε`` of the optimum;
tests cross-check them against the Hungarian oracle.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .problem import SchedulingProblem
from .result import ScheduleResult, SolverStats

__all__ = [
    "AuctionNonConvergence",
    "AuctionSolver",
    "DEFAULT_EPSILON",
    "PriceTrace",
]

#: Default bidding increment: negligible welfare impact (gap ≤ n·ε) but
#: guarantees termination even on tied instances.
DEFAULT_EPSILON = 1e-9


class AuctionNonConvergence(RuntimeError):
    """Raised when the auction exceeds its work budget without converging.

    Only reachable with ``epsilon=0`` on degenerate (tied) instances or
    with an unreasonably small budget; the exception message carries the
    progress counters for diagnosis.
    """


@dataclass
class PriceTrace:
    """Optional recording of price evolution for Fig. 2-style plots."""

    times: List[float] = field(default_factory=list)
    prices: Dict[int, List[float]] = field(default_factory=dict)

    def record(self, step: float, lam: Dict[int, float]) -> None:
        self.times.append(step)
        for uploader, price in lam.items():
            self.prices.setdefault(uploader, []).append(price)

    def series(self, uploader: int) -> Tuple[List[float], List[float]]:
        """(times, prices) for one uploader."""
        return self.times, self.prices.get(uploader, [])


def _order_bids(bids: np.ndarray, target: np.ndarray, n_uploaders: int) -> np.ndarray:
    """Commit order: by uploader ascending, bid descending, stable ties.

    Exactly ``np.lexsort((-bids, target))``, but built from two cheaper
    passes on large rounds: submitted bids are strictly positive IEEE
    doubles, so their complemented bit patterns sort them descending
    under an *integer* stable sort, and the grouping by uploader is a
    stable counting sort (scipy's one-row csr→csc transpose).  Small
    rounds and scipy-less installs keep the lexsort.
    """
    if len(bids) < 1024:
        return np.lexsort((-bids, target))
    try:
        from scipy import sparse
    except ImportError:  # pragma: no cover - scipy is a core dependency
        return np.lexsort((-bids, target))
    by_bid = np.argsort(~bids.view(np.uint64), kind="stable")
    grouped = sparse.csr_matrix(
        (by_bid, target[by_bid], np.array([0, len(bids)])),
        shape=(1, n_uploaders),
    ).tocsc()
    return grouped.data


def _segment_max(x: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-segment maximum of ``x`` under CSR ``indptr``; empty → -inf.

    ``np.maximum.reduceat`` mis-handles empty segments (it returns the
    element *at* the boundary), so reduce only over non-empty segment
    starts — consecutive non-empty starts still bound exactly one
    original segment because empty segments contribute zero width.
    """
    out = np.full(len(indptr) - 1, -np.inf, dtype=float)
    starts = indptr[:-1]
    nonempty = indptr[1:] > starts
    if nonempty.any():
        out[nonempty] = np.maximum.reduceat(x, starts[nonempty])
    return out


class _AssignmentSet:
    """An auctioneer's set of accepted (request, bid) pairs.

    Supports O(log n) insert / evict-lowest via a lazily-invalidated
    heap.  ``min_bid`` is the price λ_u once the set is full.
    """

    __slots__ = ("capacity", "bids", "_heap", "_seq")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.bids: Dict[int, float] = {}
        self._heap: List[Tuple[float, int, int]] = []
        self._seq = itertools.count()

    @property
    def full(self) -> bool:
        return len(self.bids) >= self.capacity

    def __len__(self) -> int:
        return len(self.bids)

    def add(self, request: int, bid: float) -> None:
        if request in self.bids:
            raise ValueError(f"request {request} already in assignment set")
        self.bids[request] = bid
        heapq.heappush(self._heap, (bid, next(self._seq), request))

    def remove(self, request: int) -> None:
        """Withdraw a request (peer departure); lazily purged from the heap."""
        del self.bids[request]

    def evict_min(self) -> Tuple[int, float]:
        """Remove and return the lowest-bid request."""
        self._settle()
        bid, _, request = heapq.heappop(self._heap)
        del self.bids[request]
        return request, bid

    def min_bid(self) -> float:
        """Lowest accepted bid; +inf when empty."""
        self._settle()
        if not self._heap:
            return float("inf")
        return self._heap[0][0]

    def _settle(self) -> None:
        while self._heap:
            bid, _, request = self._heap[0]
            if self.bids.get(request) == bid:
                return
            heapq.heappop(self._heap)


class AuctionSolver:
    """Centralized executor of the paper's distributed auction.

    Parameters
    ----------
    epsilon:
        Bidding increment; ``0`` is the paper's exact rule.
    mode:
        ``"auto"`` (jacobi for large instances), ``"gauss-seidel"``,
        ``"jacobi"`` (CSR-vectorized) or ``"jacobi-dense"`` (padded
        reference implementation of the same round semantics).
    max_bids / max_rounds:
        Work budgets for the two modes; exceeded ⇒
        :class:`AuctionNonConvergence`.
    trace:
        Optional :class:`PriceTrace` filled with per-round price snapshots.
    on_price_update:
        Optional callback ``(round_or_bid_counter, uploader, price)``.
    """

    #: Edge-count threshold above which ``"auto"`` picks the jacobi mode.
    AUTO_JACOBI_EDGES = 20_000

    def __init__(
        self,
        epsilon: float = DEFAULT_EPSILON,
        mode: str = "auto",
        max_bids: Optional[int] = None,
        max_rounds: int = 100_000,
        trace: Optional[PriceTrace] = None,
        on_price_update: Optional[Callable[[int, int, float], None]] = None,
    ) -> None:
        if epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {epsilon!r}")
        if mode not in ("auto", "gauss-seidel", "jacobi", "jacobi-dense"):
            raise ValueError(f"unknown mode {mode!r}")
        self.epsilon = float(epsilon)
        self.mode = mode
        self.max_bids = max_bids
        self.max_rounds = int(max_rounds)
        self.trace = trace
        self.on_price_update = on_price_update
        # Telemetry: bid-phase row evaluations of the last solve() call.
        # Lives on the solver (not SolverStats) so the stats dataclass
        # stays bit-identical between the frontier and dense paths.
        self.rows_evaluated = 0

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def solve(
        self,
        problem: SchedulingProblem,
        initial_prices: Optional[Dict[int, float]] = None,
    ) -> ScheduleResult:
        """Run the auction to convergence and return the schedule + duals.

        ``initial_prices`` warm-starts ``λ`` (used by ε-scaling and the
        slot pipeline's warm-started re-bids) — either a
        ``{uploader id: λ}`` dict or an ``(ids, values)`` array pair as
        returned by :meth:`ScheduleResult.price_arrays`.  Note that a
        warm start can leave a positive price on an uploader that ends
        up unsaturated, voiding the CS-1 certificate — the scaling
        driver detects that via the duality gap and falls back to a cold
        run.
        """
        self.rows_evaluated = 0
        mode = self.mode
        if mode == "auto":
            mode = "jacobi" if problem.n_edges() > self.AUTO_JACOBI_EDGES else "gauss-seidel"
        if mode == "gauss-seidel":
            return self._solve_gauss_seidel(problem, initial_prices)
        if mode == "jacobi-dense":
            return self._solve_jacobi_dense(problem, initial_prices)
        return self._solve_jacobi(problem, initial_prices)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _bid_budget(self, problem: SchedulingProblem) -> int:
        if self.max_bids is not None:
            return self.max_bids
        # With ε > 0 total bids are bounded by capacity · (1 + C/ε); that
        # is astronomically loose, so use a generous practical budget.
        return max(1_000_000, 200 * max(1, problem.n_edges()))

    @staticmethod
    def _etas_array(problem: SchedulingProblem, lam_by_index: np.ndarray) -> np.ndarray:
        """Optimal duals ``η_d`` as an ``(R,)`` array given index-aligned ``λ``.

        ``lam_by_index`` follows the CSR view's uploader index order —
        exactly the shape the jacobi solvers carry, so the epilogue pays
        zero dict round-trips.
        """
        csr = problem.csr()
        if csr.n_requests == 0:
            return np.empty(0, dtype=float)
        phi = csr.values - lam_by_index[csr.uploader_index]
        phi[csr.capacity[csr.uploader_index] == 0] = -np.inf
        return np.maximum(_segment_max(phi, csr.indptr), 0.0)

    @staticmethod
    def _etas(
        problem: SchedulingProblem, lam: Dict[int, float]
    ) -> Dict[int, float]:
        """Optimal duals η_d = max(0, max_u v − w − λ_u) given final prices.

        Zero-capacity uploaders are excluded: their λ contributes nothing
        to the dual objective (λ·B = 0), so their edge constraints are
        absorbed by λ, not η.

        Vectorized over the CSR view — one segment-max pass over all
        edges; ``tests/oracles/auction.py`` keeps the per-request loop
        this is pinned against.
        """
        csr = problem.csr()
        if csr.n_requests == 0:
            return {}
        lam_arr = np.fromiter(
            (lam.get(int(u), 0.0) for u in csr.uploaders),
            dtype=float,
            count=len(csr.uploaders),
        )
        best = AuctionSolver._etas_array(problem, lam_arr)
        return dict(enumerate(best.tolist()))

    # ------------------------------------------------------------------
    # Gauss-Seidel: one bid at a time (faithful Alg. 1 semantics)
    # ------------------------------------------------------------------
    def _solve_gauss_seidel(
        self,
        problem: SchedulingProblem,
        initial_prices: Optional[Dict[int, float]] = None,
    ) -> ScheduleResult:
        n = problem.n_requests
        stats = SolverStats()
        if isinstance(initial_prices, tuple):
            ids, vals = initial_prices
            initial_prices = dict(
                zip(np.asarray(ids).tolist(), np.asarray(vals).tolist())
            )
        initial_prices = initial_prices or {}
        lam: Dict[int, float] = {
            u: max(0.0, float(initial_prices.get(u, 0.0))) for u in problem.uploaders()
        }
        sets: Dict[int, _AssignmentSet] = {
            u: _AssignmentSet(problem.capacity_of(u)) for u in problem.uploaders()
        }
        assigned_to: List[Optional[int]] = [None] * n
        retired = [False] * n
        dormant: set = set()
        # Reverse index: uploader → requests that list it as a candidate,
        # used to wake dormant bidders on price changes (paper: peers are
        # informed of new prices by their neighbors).
        watchers: Dict[int, List[int]] = {}
        usable: List[np.ndarray] = []
        values: List[np.ndarray] = []
        for r in range(n):
            cands = problem.candidates_of(r)
            vals = problem.edge_values_of(r)
            mask = np.array(
                [problem.capacity_of(int(u)) > 0 for u in cands], dtype=bool
            )
            usable.append(cands[mask])
            values.append(vals[mask])
            for u in cands[mask]:
                watchers.setdefault(int(u), []).append(r)

        active: deque = deque(r for r in range(n) if len(usable[r]) > 0)
        for r in range(n):
            if len(usable[r]) == 0:
                retired[r] = True
        budget = self._bid_budget(problem)

        def wake(uploader: int) -> None:
            for r in watchers.get(uploader, ()):  # pragma: no branch
                if r in dormant:
                    dormant.discard(r)
                    active.append(r)

        while active:
            r = active.popleft()
            if assigned_to[r] is not None or retired[r]:
                continue
            self.rows_evaluated += 1
            cands = usable[r]
            prices = np.fromiter(
                (lam[int(u)] for u in cands), dtype=float, count=len(cands)
            )
            phi = values[r] - prices
            j_star = int(np.argmax(phi))
            phi1 = float(phi[j_star])
            if phi1 <= 0.0:
                # Outside option dominates now and forever (prices only rise).
                retired[r] = True
                continue
            if len(phi) > 1:
                phi2 = float(np.partition(phi, -2)[-2])
            else:
                phi2 = -np.inf
            outside = max(phi2, 0.0)
            u_star = int(cands[j_star])
            bid = lam[u_star] + phi1 - outside + self.epsilon
            if bid <= lam[u_star]:
                # Tied best/second with ε = 0: wait for a price change.
                dormant.add(r)
                continue
            stats.bids_submitted += 1
            if stats.bids_submitted > budget:
                raise AuctionNonConvergence(
                    f"bid budget {budget} exceeded: "
                    f"{sum(x is not None for x in assigned_to)}/{n} assigned, "
                    f"{len(dormant)} dormant, epsilon={self.epsilon}"
                )
            aset = sets[u_star]
            if aset.full:
                evicted, _ = aset.evict_min()
                assigned_to[evicted] = None
                active.append(evicted)
                stats.evictions += 1
            aset.add(r, bid)
            assigned_to[r] = u_star
            if aset.full:
                new_price = aset.min_bid()
                if new_price > lam[u_star]:
                    lam[u_star] = new_price
                    stats.price_updates += 1
                    if self.on_price_update is not None:
                        self.on_price_update(stats.bids_submitted, u_star, new_price)
                    wake(u_star)
            if self.trace is not None and stats.bids_submitted % max(1, n // 10) == 0:
                self.trace.record(stats.bids_submitted, dict(lam))

        stats.rounds = stats.bids_submitted
        assignment = {r: assigned_to[r] for r in range(n)}
        if self.trace is not None:
            self.trace.record(stats.bids_submitted, dict(lam))
        return ScheduleResult(
            assignment=assignment,
            prices=dict(lam),
            etas=self._etas(problem, lam),
            stats=stats,
        )

    def _empty_result(
        self,
        uploaders: np.ndarray,
        initial_prices: Optional[Dict[int, float]],
        stats: SolverStats,
    ) -> ScheduleResult:
        """Fully-populated result for a zero-request problem.

        Mirrors the gauss-seidel path: warm-started prices are clamped
        to ≥ 0 and reported, and ``etas``/``stats`` are present like on
        every other return path.
        """
        lam = self._initial_lam(uploaders, initial_prices)
        return ScheduleResult.from_arrays(
            np.empty(0, dtype=np.int64), uploaders, lam, stats=stats
        )

    @staticmethod
    def _initial_lam(
        uploaders: np.ndarray, initial_prices
    ) -> np.ndarray:
        """Warm-start price vector aligned with ``uploaders``, clamped ≥ 0.

        ``initial_prices`` is either a ``{uploader id: λ}`` dict or an
        ``(ids, values)`` array pair (the form
        :meth:`~repro.core.result.ScheduleResult.price_arrays` returns).
        When the id column matches ``uploaders`` exactly — the common
        warm-started re-bid, where the uploader set is stable across
        rounds — the vector is adopted without any per-uploader Python
        work.
        """
        if isinstance(initial_prices, tuple):
            ids, vals = initial_prices
            ids = np.asarray(ids, dtype=np.int64)
            vals = np.asarray(vals, dtype=float)
            if np.array_equal(ids, uploaders):
                return np.maximum(vals, 0.0)
            # Churned uploader set: remap by id with dict semantics —
            # the last duplicate wins (stable sort keeps original order
            # among equals, side="right" lands past the last equal),
            # unknown uploaders start cold at 0.
            if not len(ids):
                return np.zeros(len(uploaders), dtype=float)
            order = np.argsort(ids, kind="stable")
            sorted_ids = ids[order]
            pos = np.searchsorted(sorted_ids, uploaders, side="right") - 1
            safe = np.maximum(pos, 0)
            hit = (pos >= 0) & (sorted_ids[safe] == uploaders)
            lam = np.zeros(len(uploaders), dtype=float)
            lam[hit] = np.maximum(vals[order][safe[hit]], 0.0)
            return lam
        if not initial_prices:
            return np.zeros(len(uploaders), dtype=float)
        return np.fromiter(
            (max(0.0, float(initial_prices.get(int(u), 0.0))) for u in uploaders),
            dtype=float,
            count=len(uploaders),
        )

    @staticmethod
    def _concat_ranges(
        starts: np.ndarray, lens: np.ndarray, iota: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Concatenation of ``[starts[i], starts[i]+lens[i])`` ranges.

        The flat-gather primitive of the frontier solver: one cumsum +
        repeat instead of a Python loop over slices.  ``iota`` is an
        optional pre-built ``arange`` (at least total long) so the hot
        path skips that per-round allocation.
        """
        offsets = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        total = int(offsets[-1])
        idx = np.repeat(starts - offsets[:-1], lens)
        if iota is None:
            idx += np.arange(total, dtype=np.int64)
        else:
            idx += iota[:total]
        return idx

    # ------------------------------------------------------------------
    # Jacobi: synchronized rounds, vectorized (paper-scale instances)
    # ------------------------------------------------------------------
    def _solve_jacobi(
        self,
        problem: SchedulingProblem,
        initial_prices: Optional[Dict[int, float]] = None,
    ) -> ScheduleResult:
        """Event-driven (price-frontier) jacobi rounds over the CSR view.

        Produces exactly the assignment of :meth:`_solve_jacobi_dense`
        (same bid order, same tie-breaks, same stats) without
        materializing the padded ``(R, K_max)`` matrices — and, unlike
        the dense reference, without re-scanning every pending edge
        every round.  The key observation is classic auction-algorithm
        practice: a request's best/second-best surplus (and hence its
        bid) can only change when one of *its own* candidate uploaders
        reprices, or when the request itself is evicted.  So the solver

        * keeps a per-row ``phi1`` (best-surplus) column cached from
          each row's last evaluation — the η duals read it directly,
        * maintains a ``dirty`` frontier seeded with every row and, after
          each round, re-armed only for rows incident to uploaders whose
          ``λ`` rose (via the problem's reverse uploader→rows CSR index)
          plus rows evicted by a contested merge,
        * evaluates only dirty pending rows each round: a clean pending
          row is provably dormant (its last bid was ``≤ λ`` at prices
          that have not moved), so the dense reference would re-compute
          the identical non-submitting bid for it.

        Rounds therefore cost O(edges incident to last round's price
        changes), not O(pending edges); bulk rounds (the first, or a
        warm re-bid wave touching most rows) run over the full CSR with
        no sub-gather at all.  The final ``η`` duals come straight from
        the ``phi1`` cache after a last sync of still-dirty rows — no
        extra full-edge pass.

        The commit is one vectorized pass per round.  Each uploader's
        members sit in a flat block of ``B(u)`` slots, so reading a
        contested auctioneer's members costs O(B(u)).  A batch accepts
        a prefix of itself, highest bid first.  An auctioneer that
        already holds members and whose batch reaches ``B(u)`` is
        contested: :meth:`_merge_contested` sorts its members and batch
        together under the reference heap's tie order (higher bid; a
        member before an equal incoming bid; the later-accepted member;
        batch order) and keeps the first ``B(u)``.  Once a batch that
        got in fills the set, ``λ_u`` becomes the lowest kept bid if
        that is higher; evicted rows are marked dirty.
        """
        csr = problem.csr()
        n = csr.n_requests
        stats = SolverStats()
        if n == 0:
            return self._empty_result(csr.uploaders, initial_prices, stats)

        indptr = csr.indptr
        counts = np.diff(indptr)
        uidx = csr.uploader_index
        values = csr.values
        capacity = csr.capacity
        n_edges = csr.n_edges
        if n_edges and (capacity == 0).any():
            # Mask out uploaders with no capacity.
            values = values.copy()
            values[capacity[uidx] == 0] = -np.inf

        n_uploaders = len(csr.uploaders)
        lam = self._initial_lam(csr.uploaders, initial_prices)
        # Auctioneer state, fully columnar (no per-uploader heap objects):
        # each assigned request carries its accepted bid and a per-uploader
        # insertion sequence number, which together reproduce the
        # reference _AssignmentSet's (bid, insertion order) eviction
        # tie-break when a contested auctioneer merges its members with
        # a batch.
        assigned_to = np.full(n, -1, dtype=np.int64)
        bid_of = np.zeros(n, dtype=float)
        seq_of = np.zeros(n, dtype=np.int64)
        next_seq = np.zeros(n_uploaders, dtype=np.int64)
        load = np.zeros(n_uploaders, dtype=np.int64)
        # Per-row best-surplus cache (read by the η epilogue; phi2 and
        # the best edge are only needed within a round and recomputed on
        # each evaluation).  When nothing is masked and no row is empty
        # the up-front retirement scan is skipped entirely — the first
        # (bulk) round writes every phi1 before anything reads it.
        # Otherwise the λ=0 segment maxima
        # double as the retirement scan (rows with no edge, or only
        # zero-capacity candidates, can never bid) and are already final
        # for those rows: every usable edge is -inf there.
        no_empty = bool(counts.min(initial=1) > 0)
        if values is csr.values and no_empty:
            phi1_of = np.empty(n, dtype=float)
            retired = np.zeros(n, dtype=bool)
            dirty = np.ones(n, dtype=bool)
        else:
            phi1_of = _segment_max(values, indptr)
            retired = ~np.isfinite(phi1_of)
            # The frontier: rows whose cached surplus may be stale.
            # Rows retired up front stay clean forever — their
            # candidates never reprice (zero capacity ⇒ no bids ⇒ no
            # λ updates).
            dirty = ~retired
        rev_indptr, rev_rows = csr.uploader_rows()
        # Member blocks: uploader u's accepted requests sit in
        # member[base[u] : base[u] + load[u]], in no particular order.
        # A block holds B(u) slots, or fewer when fewer rows list u.
        block = np.minimum(capacity, np.diff(rev_indptr))
        base = np.zeros(n_uploaders, dtype=np.int64)
        np.cumsum(block[:-1], out=base[1:])
        member = np.empty(int(block.sum()), dtype=np.int64)
        nonempty = nonempty_starts = None  # built lazily (masked problems)
        # Round-persistent scratch (sized once, reused every round) so
        # the sub-CSR gather never re-allocates edge-sized temporaries.
        iota_e = np.arange(n_edges, dtype=np.int64)
        phi_buf = np.empty(n_edges, dtype=float)
        lam_e_buf = np.empty(n_edges, dtype=float)
        edge_u_buf = np.empty(n_edges, dtype=np.int64)
        sub_indptr_buf = np.empty(n + 1, dtype=np.int64)

        for round_no in range(1, self.max_rounds + 1):
            pending = (assigned_to < 0) & ~retired
            if not pending.any():
                break
            rows = np.nonzero(dirty & pending)[0]
            if not len(rows):
                # Every pending row is clean ⇒ dormant at prices that
                # have not moved since its last evaluation; the dense
                # reference would re-bid them all and submit nothing.
                break
            dirty[rows] = False
            self.rows_evaluated += len(rows)
            full_best2 = False
            if 2 * len(rows) >= n:
                # Bulk round (the first, or a warm re-bid wave): the
                # best-surplus pass runs over the full CSR with no
                # gather, refreshing the whole phi1 cache at the current
                # prices.
                if lam.any():
                    np.take(lam, uidx, out=lam_e_buf)
                    phi = np.subtract(values, lam_e_buf, out=phi_buf)
                else:
                    # Cold round: φ ≡ the (masked) values; read them
                    # directly and copy only if the knockout pass below
                    # needs to mutate the full-CSR φ.
                    phi = values
                if no_empty:
                    phi1_of[:] = np.maximum.reduceat(phi, indptr[:-1])
                else:
                    phi1_of[:] = _segment_max(phi, indptr)
                phi1 = phi1_of[rows]
                newly_retired = phi1 <= 0.0
                retired[rows[newly_retired]] = True
                live = ~newly_retired
                if not live.any():
                    continue
                rows = rows[live]
                phi1 = phi1[live]
                live_edges = int(counts[rows].sum())
                full_best2 = 2 * live_edges >= n_edges
                if full_best2:
                    # Live bidders hold most edges: the best-edge /
                    # second-best pass is cheaper over the full CSR than
                    # through a gather.
                    if phi is values:
                        np.copyto(phi_buf, values)
                        phi = phi_buf
                    is_best = phi >= np.repeat(phi1_of, counts)
                    if no_empty:
                        loc_star_all = np.minimum.reduceat(
                            np.where(is_best, iota_e, n_edges), indptr[:-1]
                        )
                        e_star = loc_star_all[rows]
                        phi[loc_star_all] = -np.inf
                        phi2 = np.maximum.reduceat(phi, indptr[:-1])[rows]
                    else:
                        if nonempty_starts is None:
                            nonempty = counts > 0
                            nonempty_starts = indptr[:-1][nonempty]
                        loc_star_ne = np.minimum.reduceat(
                            np.where(is_best, iota_e, n_edges), nonempty_starts
                        )
                        e_star_all = np.zeros(n, dtype=np.int64)
                        e_star_all[nonempty] = loc_star_ne
                        e_star = e_star_all[rows]
                        phi[loc_star_ne] = -np.inf
                        phi2 = _segment_max(phi, indptr)[rows]
                else:
                    starts = indptr[rows]
                    lens = counts[rows]
                    sub_indptr = sub_indptr_buf[: len(rows) + 1]
                    sub_indptr[0] = 0
                    np.cumsum(lens, out=sub_indptr[1:])
                    total = int(sub_indptr[-1])
                    eidx = self._concat_ranges(starts, lens, iota_e)
                    # lam_e_buf is dead after the subtract; reuse it for
                    # the live rows' phi gather.
                    phi_sub = np.take(phi, eidx, out=lam_e_buf[:total])
            else:
                # Frontier round: gather only the dirty pending rows'
                # edges into a compact sub-CSR over the scratch buffers.
                starts = indptr[rows]
                lens = counts[rows]
                sub_indptr = sub_indptr_buf[: len(rows) + 1]
                sub_indptr[0] = 0
                np.cumsum(lens, out=sub_indptr[1:])
                total = int(sub_indptr[-1])
                eidx = self._concat_ranges(starts, lens, iota_e)
                phi_sub = np.take(values, eidx, out=phi_buf[:total])
                eu = np.take(uidx, eidx, out=edge_u_buf[:total])
                np.take(lam, eu, out=lam_e_buf[:total])
                phi_sub -= lam_e_buf[:total]
                # Pending rows are never empty (empty rows were retired
                # up front), so plain reduceat is safe here.
                phi1 = np.maximum.reduceat(phi_sub, sub_indptr[:-1])
                phi1_of[rows] = phi1
                newly_retired = phi1 <= 0.0
                retired[rows[newly_retired]] = True
                live = ~newly_retired
                if not live.any():
                    continue
                if not live.all():
                    # Re-gather the live subset so the best-edge pass
                    # below sees one contiguous sub-CSR in either path.
                    rows = rows[live]
                    phi1 = phi1[live]
                    starts = indptr[rows]
                    lens = counts[rows]
                    sub_indptr = sub_indptr_buf[: len(rows) + 1]
                    sub_indptr[0] = 0
                    np.cumsum(lens, out=sub_indptr[1:])
                    total = int(sub_indptr[-1])
                    eidx = self._concat_ranges(starts, lens, iota_e)
                    phi_sub = np.take(values, eidx, out=phi_buf[:total])
                    eu = np.take(uidx, eidx, out=edge_u_buf[:total])
                    np.take(lam, eu, out=lam_e_buf[:total])
                    phi_sub -= lam_e_buf[:total]

            if not full_best2:
                # First maximal edge per live row (same tie-break as the
                # dense argmax), then knock it out in place for phi2 —
                # the sub-buffer is dead after these two reductions.
                is_best = phi_sub >= np.repeat(phi1, lens)
                loc_star = np.minimum.reduceat(
                    np.where(is_best, iota_e[:total], total), sub_indptr[:-1]
                )
                e_star = eidx[loc_star]
                phi_sub[loc_star] = -np.inf
                phi2 = np.maximum.reduceat(phi_sub, sub_indptr[:-1])
            target = uidx[e_star]
            outside = np.maximum(phi2, 0.0)
            lam_t = lam[target]
            bids = lam_t + phi1 - outside + self.epsilon
            submit = bids > lam_t
            if not submit.any():
                break  # all remaining bidders dormant (ε = 0 ties)
            rows = rows[submit]
            bids = bids[submit]
            target = target[submit]
            stats.bids_submitted += len(rows)
            stats.rounds = round_no

            # Commit each auctioneer's batch (a segment of the sorted
            # round), highest bid first, all auctioneers at once.  A
            # batch fills free slots: the accepted bids are a prefix of
            # it, and an auctioneer that starts empty or keeps room to
            # spare evicts nobody.
            order = _order_bids(bids, target, n_uploaders)
            rows, bids, target = rows[order], bids[order], target[order]
            boundaries = np.nonzero(np.diff(target))[0] + 1
            seg_starts = np.concatenate(([0], boundaries))
            seg_len = np.diff(np.concatenate((seg_starts, [len(target)])))
            seg_u = target[seg_starts]
            m = load[seg_u]
            cap = capacity[seg_u]
            within = np.arange(len(target), dtype=np.int64) - np.repeat(
                seg_starts, seg_len
            )
            limit = np.minimum(seg_len, cap - m)
            # Lowest kept bid of a batch that fills an empty set;
            # contested entries are overwritten by the merge.
            lowest = bids[seg_starts + limit - 1]
            # Contested: existing members must be weighed against the
            # batch, which fills the set (and may evict some of them).
            contested = (m > 0) & (m + seg_len >= cap)
            if contested.any():
                c = np.nonzero(contested)[0]
                limit[c], lowest[c], evicted = self._merge_contested(
                    member, base[seg_u[c]], m[c], cap[c], bid_of, seq_of,
                    rows, bids, within, seg_starts[c], seg_len[c],
                )
                assigned_to[evicted] = -1
                dirty[evicted] = True
                stats.evictions += len(evicted)
            accepted = within < np.repeat(limit, seg_len)
            acc_rows = rows[accepted]
            acc_u = target[accepted]
            stats.bids_rejected += int(len(rows) - len(acc_rows))
            assigned_to[acc_rows] = acc_u
            bid_of[acc_rows] = bids[accepted]
            seq_of[acc_rows] = next_seq[acc_u] + within[accepted]
            # Uncontested batches append to their member blocks; the
            # merge already rewrote the contested blocks.
            fresh = accepted & ~np.repeat(contested, seg_len)
            fresh_u = target[fresh]
            member[base[fresh_u] + load[fresh_u] + within[fresh]] = rows[fresh]
            next_seq[seg_u] += limit
            load[seg_u] = np.minimum(m + limit, cap)
            # λ_u = lowest kept bid once a batch that got in fills the set.
            upd = (limit > 0) & (m + limit >= cap) & (lowest > lam[seg_u])
            if upd.any():
                repriced = seg_u[upd]
                lam[repriced] = lowest[upd]
                stats.price_updates += len(repriced)
                if self.on_price_update is not None:
                    # Callback fast path: only a tracing run pays for
                    # the index materialization + Python loop.
                    for i in np.nonzero(upd)[0].tolist():
                        self.on_price_update(
                            round_no, int(csr.uploaders[seg_u[i]]), float(lowest[i])
                        )
                # Frontier propagation: every request incident to an
                # uploader that repriced this round re-evaluates next
                # round (this includes every bidder rejected above — a
                # rejection always coincides with its target's λ rising).
                hit = self._concat_ranges(
                    rev_indptr[repriced],
                    rev_indptr[repriced + 1] - rev_indptr[repriced],
                )
                dirty[rev_rows[hit]] = True
            if self.trace is not None:
                self.trace.record(
                    round_no,
                    {int(csr.uploaders[i]): float(lam[i]) for i in range(n_uploaders)},
                )
        else:
            raise AuctionNonConvergence(
                f"round budget {self.max_rounds} exceeded: "
                f"{(assigned_to >= 0).sum()}/{n} assigned, epsilon={self.epsilon}"
            )

        # η epilogue off the phi1 cache: rows whose candidates repriced
        # after their last evaluation get one final sync at the final
        # prices; every clean row's cache already equals the final
        # surplus, so no full-edge _etas_array pass is needed.
        sync = np.nonzero(dirty)[0]
        if len(sync):
            starts = indptr[sync]
            lens = counts[sync]
            sub_indptr = sub_indptr_buf[: len(sync) + 1]
            sub_indptr[0] = 0
            np.cumsum(lens, out=sub_indptr[1:])
            total = int(sub_indptr[-1])
            eidx = self._concat_ranges(starts, lens, iota_e)
            phi = np.take(values, eidx, out=phi_buf[:total])
            eu = np.take(uidx, eidx, out=edge_u_buf[:total])
            np.take(lam, eu, out=lam_e_buf[:total])
            phi -= lam_e_buf[:total]
            # Dirty rows always hold at least one edge (only repriced
            # uploaders and evictions mark rows, both require edges).
            phi1_of[sync] = np.maximum.reduceat(phi, sub_indptr[:-1])
        return ScheduleResult.from_arrays(
            assigned_to,
            csr.uploaders,
            lam,
            etas=np.maximum(phi1_of, 0.0),
            stats=stats,
        )

    @staticmethod
    def _merge_contested(
        member: np.ndarray,
        base: np.ndarray,
        m: np.ndarray,
        cap: np.ndarray,
        bid_of: np.ndarray,
        seq_of: np.ndarray,
        rows: np.ndarray,
        bids: np.ndarray,
        within: np.ndarray,
        starts: np.ndarray,
        lens: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Weigh contested auctioneers' members against their batches.

        Auctioneer ``i`` holds ``m[i] > 0`` members in
        ``member[base[i] : base[i] + m[i]]`` and receives the batch
        ``rows[starts[i] : starts[i] + lens[i]]`` (bid descending;
        ``within`` is each bid's position in its batch), and
        ``m[i] + lens[i] >= cap[i]``.  One lexsort over all members and
        batches keeps each auctioneer's first ``cap[i]`` entries in the
        order the reference heap walk keeps them:

        * the higher bid first;
        * on equal bids, an existing member before an incoming bid (an
          incoming bid must beat the lowest member, ``b <= min_bid``
          rejects);
        * among members, the later-accepted one (the heap evicts the
          lowest ``(bid, seq)``);
        * among incoming bids, batch order.

        The kept incoming bids are a prefix of each batch — no incoming
        bid is evicted in its own round — so the caller's accept-prefix
        writes carry over.  Rewrites each block with its kept rows and
        returns the number of incoming bids accepted and the lowest kept
        bid per auctioneer, and the evicted member rows.
        """
        held = member[AuctionSolver._concat_ranges(base, m)]
        incoming = AuctionSolver._concat_ranges(starts, lens)
        group = np.arange(len(m))
        row = np.concatenate((held, rows[incoming]))
        bid = np.concatenate((bid_of[held], bids[incoming]))
        # Below the bid, one key carries both tie rules: members sort by
        # -1 - seq < 0 (later accepted first), incoming bids by their
        # batch position >= 0.
        tie = np.concatenate((-1 - seq_of[held], within[incoming]))
        owner = np.concatenate((np.repeat(group, m), np.repeat(group, lens)))
        order = np.lexsort((tie, -bid, owner))
        row, bid, tie = row[order], bid[order], tie[order]
        size = m + lens
        first = np.zeros(len(m), dtype=np.int64)
        np.cumsum(size[:-1], out=first[1:])
        rank = np.arange(len(row), dtype=np.int64) - np.repeat(first, size)
        kept = rank < np.repeat(cap, size)
        member[np.repeat(base, cap) + rank[kept]] = row[kept]
        accepted = np.bincount(
            np.repeat(group, size)[kept & (tie >= 0)], minlength=len(m)
        )
        return accepted, bid[first + cap - 1], row[~kept & (tie < 0)]

    # ------------------------------------------------------------------
    # Jacobi over the padded dense view (reference for the CSR port)
    # ------------------------------------------------------------------
    def _solve_jacobi_dense(
        self,
        problem: SchedulingProblem,
        initial_prices: Optional[Dict[int, float]] = None,
    ) -> ScheduleResult:
        dense = problem.dense()
        n = dense.n_requests
        stats = SolverStats()
        if n == 0:
            return self._empty_result(dense.uploaders, initial_prices, stats)

        values = dense.values.copy()
        uidx = dense.uploader_index
        # Mask out uploaders with no capacity.
        zero_cap = np.nonzero(dense.capacity == 0)[0]
        if len(zero_cap):
            dead = np.isin(uidx, zero_cap)
            values[dead] = -np.inf

        n_uploaders = len(dense.uploaders)
        lam = self._initial_lam(dense.uploaders, initial_prices)
        sets = [
            _AssignmentSet(int(c)) for c in dense.capacity
        ]  # indexed by uploader index
        assigned_to = np.full(n, -1, dtype=np.int64)
        retired = np.all(np.isinf(values) & (values < 0), axis=1)

        safe_uidx = np.where(uidx >= 0, uidx, 0)
        pad = ~np.isfinite(values)

        for round_no in range(1, self.max_rounds + 1):
            pending = (assigned_to < 0) & ~retired
            if not pending.any():
                break
            rows = np.nonzero(pending)[0]
            self.rows_evaluated += len(rows)
            phi = values[rows] - lam[safe_uidx[rows]]
            phi[pad[rows]] = -np.inf
            j_star = np.argmax(phi, axis=1)
            phi1 = phi[np.arange(len(rows)), j_star]

            newly_retired = phi1 <= 0.0
            retired[rows[newly_retired]] = True
            live = ~newly_retired
            if not live.any():
                continue
            rows = rows[live]
            phi = phi[live]
            j_star = j_star[live]
            phi1 = phi1[live]

            phi_wo_best = phi.copy()
            phi_wo_best[np.arange(len(rows)), j_star] = -np.inf
            phi2 = phi_wo_best.max(axis=1)
            outside = np.maximum(phi2, 0.0)
            target = uidx[rows, j_star]
            bids = lam[target] + phi1 - outside + self.epsilon
            submit = bids > lam[target]
            if not submit.any():
                break  # all remaining bidders dormant (ε = 0 ties)
            rows = rows[submit]
            bids = bids[submit]
            target = target[submit]
            stats.bids_submitted += len(rows)
            stats.rounds = round_no

            # Process each auctioneer's batch, highest bid first.
            order = np.lexsort((-bids, target))
            rows, bids, target = rows[order], bids[order], target[order]
            boundaries = np.nonzero(np.diff(target))[0] + 1
            for chunk_rows, chunk_bids, u in zip(
                np.split(rows, boundaries),
                np.split(bids, boundaries),
                target[np.concatenate(([0], boundaries))],
            ):
                aset = sets[int(u)]
                price = lam[int(u)]
                changed = False
                for r, b in zip(chunk_rows, chunk_bids):
                    if b <= price:
                        stats.bids_rejected += 1
                        continue
                    if aset.full:
                        if b <= aset.min_bid():
                            stats.bids_rejected += 1
                            continue
                        evicted, _ = aset.evict_min()
                        assigned_to[evicted] = -1
                        stats.evictions += 1
                    aset.add(int(r), float(b))
                    assigned_to[int(r)] = int(u)
                    changed = True
                if changed and aset.full:
                    new_price = aset.min_bid()
                    if new_price > price:
                        lam[int(u)] = new_price
                        stats.price_updates += 1
                        if self.on_price_update is not None:
                            self.on_price_update(round_no, int(dense.uploaders[int(u)]), new_price)
            if self.trace is not None:
                self.trace.record(
                    round_no,
                    {int(dense.uploaders[i]): float(lam[i]) for i in range(n_uploaders)},
                )
        else:
            raise AuctionNonConvergence(
                f"round budget {self.max_rounds} exceeded: "
                f"{(assigned_to >= 0).sum()}/{n} assigned, epsilon={self.epsilon}"
            )

        return ScheduleResult.from_arrays(
            assigned_to,
            dense.uploaders,
            lam,
            etas=self._etas_array(problem, lam),
            stats=stats,
        )
