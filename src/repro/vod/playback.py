"""Playback sessions: positions, deadlines and miss accounting.

A session starts at a wall-clock instant and consumes chunks at the
video's bitrate.  A chunk not present in the buffer when its playback
instant arrives is a *miss* (the player skips it — the VoD behaviour the
paper measures as "chunk miss rate": "the percentage of chunks which
fail to be downloaded before the respective playback deadlines").

A session's position, played count, missed-chunk bitmap and advance
stamp live in the peer's row of the per-peer state (the buffer's
:class:`~repro.vod.buffer.PeerRow`, which the session shares).  While
the peer is online that row belongs to the peer-state store, whose
batched advance moves every session with whole-column operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set

import numpy as np

from .buffer import ChunkBuffer, RowField
from .video import Video

__all__ = ["PlaybackSession", "SlotPlaybackStats"]


@dataclass(frozen=True)
class SlotPlaybackStats:
    """Chunks that came due and chunks missed during one advance call."""

    due: int
    missed: int

    @property
    def miss_rate(self) -> float:
        """Fraction missed among due chunks; 0 when nothing was due."""
        return self.missed / self.due if self.due else 0.0


class PlaybackSession:
    """Tracks one peer's playback through one video.

    Parameters
    ----------
    video:
        The video being watched.
    buffer:
        The peer's chunk buffer (consulted at each deadline).
    start_time:
        Simulated time at which playback of chunk 0 begins.
    start_position:
        First chunk index to play — static-network experiments stagger
        peers by starting them mid-video.
    """

    #: Index of the next chunk to play; every chunk before it was played
    #: or missed.
    position = RowField("position", int)
    #: Chunks played (held at their deadline) so far.
    played = RowField("played", int)
    #: Time of the last advance; time may not go backwards.
    _last_advance = RowField("last_advance", float)

    def __init__(
        self,
        video: Video,
        buffer: ChunkBuffer,
        start_time: float,
        start_position: int = 0,
    ) -> None:
        if not 0 <= start_position <= video.n_chunks:
            raise ValueError(
                f"start_position {start_position!r} out of range "
                f"[0, {video.n_chunks}]"
            )
        self.video = video
        self.buffer = buffer
        self.peer_row = buffer.peer_row
        self.start_time = float(start_time)
        self.start_position = int(start_position)
        self.position = self.start_position
        self.played = 0
        self._last_advance = self.start_time

    @property
    def missed_mask(self) -> np.ndarray:
        """Bool bitmap of the chunks that missed their deadline.

        A live view of the row, like :attr:`ChunkBuffer.mask`; a write
        through it records (or clears) a miss.
        """
        r = self.peer_row
        return r.cols.missed[r.row, : r.n_chunks]

    @property
    def missed(self) -> Set[int]:
        """Chunk indices that missed their deadline (a snapshot set)."""
        return set(np.flatnonzero(self.missed_mask).tolist())

    @missed.setter
    def missed(self, value) -> None:
        mask = self.missed_mask
        mask[:] = False
        mask[np.fromiter(value, dtype=np.int64, count=len(value))] = True

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def deadline_of(self, index: int) -> float:
        """Absolute simulated time at which chunk ``index`` is consumed."""
        offset = (index - self.start_position) / self.video.chunks_per_second
        return self.start_time + offset

    def seconds_to_deadline(self, index: int, now: float) -> float:
        """Seconds from ``now`` until chunk ``index`` plays (negative if overdue)."""
        return self.deadline_of(index) - now

    def due_position(self, now: float) -> int:
        """Index of the first chunk not yet due at time ``now``."""
        elapsed = max(0.0, now - self.start_time)
        due = self.start_position + int(elapsed * self.video.chunks_per_second)
        return min(due, self.video.n_chunks)

    @property
    def finished(self) -> bool:
        """Whether the session has played (or skipped) every chunk."""
        return self.position >= self.video.n_chunks

    @property
    def end_time(self) -> float:
        """Simulated time at which the last chunk is consumed."""
        remaining = self.video.n_chunks - self.start_position
        return self.start_time + remaining / self.video.chunks_per_second

    # ------------------------------------------------------------------
    # Advancing
    # ------------------------------------------------------------------
    def advance_to(self, now: float) -> SlotPlaybackStats:
        """Consume every chunk whose deadline passed since the last call.

        Held chunks count as played; absent ones as missed and are
        recorded in :attr:`missed_mask` so the request window skips
        them.  Batched: one bitmap slice counts held-vs-missing over the
        whole due range instead of one buffer probe per chunk
        (``tests/oracles/slot.py`` keeps the per-chunk loop as the
        semantics pin).
        """
        if now < self._last_advance:
            raise ValueError(
                f"time went backwards: {now!r} < {self._last_advance!r}"
            )
        self._last_advance = float(now)
        target = self.due_position(now)
        start = self.position
        if target <= start:
            return SlotPlaybackStats(due=0, missed=0)
        held = self.buffer.mask[start:target]
        due = target - start
        played = int(np.count_nonzero(held))
        missed = due - played
        if missed:
            self.missed_mask[start:target] |= ~held
        self.played += played
        self.position = target
        return SlotPlaybackStats(due=due, missed=missed)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def miss_rate(self) -> float:
        """Lifetime miss fraction among consumed chunks."""
        missed = int(np.count_nonzero(self.missed_mask))
        consumed = self.played + missed
        return missed / consumed if consumed else 0.0

    def remaining_chunks(self) -> int:
        """Chunks not yet due."""
        return self.video.n_chunks - self.position
