"""System configuration with the paper's Section V defaults.

Three presets:

* :meth:`SystemConfig.paper` — the full experimental setting (500 peers,
  100 videos of 2560 × 8 KB chunks, 100-chunk windows).  Faithful but
  heavy: one slot's auction is a ~50 000-request assignment problem.
* :meth:`SystemConfig.bench` — the scaled setting the benchmark harness
  uses by default (laptop-friendly; documented in EXPERIMENTS.md).  The
  scale-free quantities (5 ISPs, cost distributions, valuation, Zipf
  parameters, [1,4]× upload, 8× seeds, slot length) are unchanged, so
  within-config comparisons preserve the paper's shapes.
* :meth:`SystemConfig.tiny` — unit-test sized.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

__all__ = ["SystemConfig"]


@dataclass(frozen=True)
class SystemConfig:
    """All knobs of the emulated P2P VoD system."""

    # Randomness
    seed: int = 0

    # ISPs and overlay.  tracker_seed_rank: "first" guarantees seeds in
    # every bootstrap list; "random" has them compete at a random
    # position rank (tracker ranks by advertised playback position and
    # seeds advertise none) — the scarce-supply regime where ISP
    # awareness matters, used by the figure benches.
    n_isps: int = 5
    neighbor_target: int = 30
    tracker_seed_rank: str = "first"

    # Catalog
    n_videos: int = 100
    video_size_bytes: int = 20 * 1024 * 1024
    chunk_size_bytes: int = 8 * 1024
    bitrate_bps: int = 640 * 1000

    # Timing
    slot_seconds: float = 10.0
    startup_delay_slots: float = 1.0  # prefetch lead before playback starts
    # Sub-slot bidding rounds.  The paper's peers "keep bidding" within a
    # slot (Fig. 2 shows λ_u evolving over ~5 s inside each slot) with
    # valuations that grow as deadlines near; R > 1 splits each slot into
    # R re-bid rounds with refreshed deadlines and a 1/R share of each
    # uploader's bandwidth.  R = 1 is the pure one-shot ILP of Sec. III.
    bid_rounds_per_slot: int = 1

    # Windows and bandwidth
    prefetch_chunks: int = 100
    peer_upload_min_multiple: float = 1.0
    peer_upload_max_multiple: float = 4.0
    seed_upload_multiple: float = 8.0
    seeds_per_isp_per_video: int = 2

    # Churn
    arrival_rate_per_s: float = 1.0
    early_departure_prob: float = 0.0  # Fig. 6 uses 0.6

    # Popularity (Zipf-Mandelbrot)
    zipf_alpha: float = 0.78
    zipf_q: float = 4.0

    # Valuation
    valuation_alpha: float = 2.0
    valuation_beta: float = 1.2

    # Network costs (truncated normals)
    inter_cost_mean: float = 5.0
    inter_cost_std: float = 1.0
    inter_cost_low: float = 1.0
    inter_cost_high: float = 10.0
    intra_cost_mean: float = 1.0
    intra_cost_std: float = 1.0
    intra_cost_low: float = 0.0
    intra_cost_high: float = 2.0

    # Scheduling.  ε is sized against the valuation scale [0.8, 11]: large
    # enough to resolve the exact bid ties that same-peer chunk families
    # create (the paper's bid is valuation-independent), small enough that
    # the n·ε welfare bound is <1% of slot welfare; in practice the result
    # matches the Hungarian optimum exactly (tests assert this).
    scheduler: str = "auction"
    epsilon: float = 0.01
    # Warm-started prices: feed each bid round's final λ into the next
    # round's auction (the paper's peers "keep bidding" against posted
    # prices, and price continuity across re-bids is what game-based
    # ISP-friendly control exploits).  Off by default: a warm start can
    # leave a positive λ on an unsaturated uploader, voiding the CS-1
    # certificate, and all archived experiment outputs were produced
    # cold.  Every slot's first round starts cold.
    warm_start_prices: bool = False

    # Per-ISP metrics rollup (obs/rollup.py): accumulate per-slot ×
    # per-ISP traffic/transit-cost/QoE counters during the run and
    # render them as the scenario report's "Per-ISP rollup" block.  Off
    # by default — the bincount deposits are cheap but not free, and
    # archived reports without the block must regenerate byte-identical.
    isp_rollup: bool = False

    # Retry pipeline for lossy link conditions (net/linkmodel.py): a
    # failed or truncated transfer waits backoff_base · 2^(attempt−1)
    # slots (capped at retry_backoff_cap_slots) between attempts, and is
    # surrendered back to the auction once it has sat in the queue for
    # retry_ttl_slots slots.  Irrelevant under ideal conditions — the
    # queue stays empty.
    retry_backoff_base_slots: int = 1
    retry_backoff_cap_slots: int = 4
    retry_ttl_slots: int = 6

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def chunks_per_second(self) -> float:
        """Playback consumption rate."""
        return self.bitrate_bps / 8.0 / self.chunk_size_bytes

    @property
    def chunks_per_slot(self) -> float:
        """Chunks consumed per time slot (paper: 100)."""
        return self.chunks_per_second * self.slot_seconds

    @property
    def chunks_per_video(self) -> int:
        return max(1, self.video_size_bytes // self.chunk_size_bytes)

    @property
    def video_duration_seconds(self) -> float:
        return self.chunks_per_video / self.chunks_per_second

    def peer_capacity_chunks(self, multiple: float) -> int:
        """Upload capacity B(u) in chunks/slot for a bandwidth multiple."""
        return max(1, int(round(multiple * self.chunks_per_slot)))

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent settings."""
        if self.prefetch_chunks < self.chunks_per_slot:
            raise ValueError(
                f"prefetch window {self.prefetch_chunks} chunks is below "
                f"per-slot consumption {self.chunks_per_slot:.1f}: peers can "
                "never keep up"
            )
        if self.n_isps < 1 or self.n_videos < 1:
            raise ValueError("need at least one ISP and one video")
        if not 0.0 <= self.early_departure_prob <= 1.0:
            raise ValueError("early_departure_prob must be a probability")
        if self.peer_upload_min_multiple > self.peer_upload_max_multiple:
            raise ValueError("upload multiple range is inverted")
        if self.bid_rounds_per_slot < 1:
            raise ValueError("bid_rounds_per_slot must be >= 1")
        if self.retry_backoff_base_slots < 1 or self.retry_backoff_cap_slots < 1:
            raise ValueError("retry backoff slots must be >= 1")
        if self.retry_ttl_slots < 1:
            raise ValueError("retry_ttl_slots must be >= 1")

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def paper(cls, seed: int = 0, **overrides) -> "SystemConfig":
        """The full Section V configuration."""
        return replace(cls(seed=seed), **overrides)

    @classmethod
    def bench(cls, seed: int = 0, **overrides) -> "SystemConfig":
        """Scaled configuration for the benchmark harness.

        32 KB chunks (25 chunks/slot), 8 MB videos (250 chunks ≈ 100 s),
        20 videos, 15 neighbors, 25-chunk windows.  All distributional
        parameters match the paper.
        """
        config = cls(
            seed=seed,
            n_videos=20,
            video_size_bytes=8_000 * 1024,
            chunk_size_bytes=32 * 1024,
            neighbor_target=8,
            tracker_seed_rank="random",
            prefetch_chunks=25,
            seeds_per_isp_per_video=1,
            bid_rounds_per_slot=4,
        )
        return replace(config, **overrides)

    @classmethod
    def tiny(cls, seed: int = 0, **overrides) -> "SystemConfig":
        """Unit-test configuration: 3 videos of 40 chunks, 2 ISPs."""
        config = cls(
            seed=seed,
            n_isps=2,
            n_videos=3,
            video_size_bytes=40 * 8 * 1024,
            chunk_size_bytes=8 * 1024,
            bitrate_bps=8 * 1024 * 8,  # 1 chunk/s → 10 chunks/slot
            neighbor_target=8,
            prefetch_chunks=10,
            seeds_per_isp_per_video=1,
        )
        return replace(config, **overrides)

    def with_scheduler(self, name: str) -> "SystemConfig":
        """Copy of this config using scheduler ``name``."""
        return replace(self, scheduler=name)
