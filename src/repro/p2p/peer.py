"""The peer: buffer, playback session, upload capacity, transfer counters.

Mirrors the paper's emulator peer, whose components are a neighbor
manager (kept in :mod:`repro.net.topology` / :mod:`repro.p2p.tracker`),
a buffer manager (:mod:`repro.vod.buffer`), a bidding module and an
allocator module (both realized by the scheduler —
:mod:`repro.core.auction` centrally or :mod:`repro.core.distributed` at
message level), and a transmission manager (the system applies the
winning transfers, :mod:`repro.p2p.system`).

Seed peers cache a complete video, never watch, and contribute 8× the
streaming rate of upload bandwidth.

A peer's upload capacity and transfer counters live with its buffer
and playback state in its row of the per-peer state
(:class:`~repro.vod.buffer.PeerRow`): while the peer is online they are
entries of the peer-state store's peer-id-indexed columns, which the
slot pipeline reads and updates for all peers at once.
"""

from __future__ import annotations

from math import isnan
from typing import Optional

from ..vod.buffer import ChunkBuffer, RowField
from ..vod.playback import PlaybackSession
from ..vod.video import Video

__all__ = ["Peer"]


def _time_or_none(value) -> Optional[float]:
    return None if isnan(value) else float(value)


class Peer:
    """One peer in the emulated system.

    Parameters
    ----------
    peer_id:
        Globally unique id.
    isp:
        ISP index the peer lives in.
    video:
        The video it watches (seeds: the video it serves).
    upload_capacity_chunks:
        ``B(u)`` in chunks per slot.  The one value that may change
        after admission: writing the attribute writes the store's
        capacity column, which the next problem build reads.
    is_seed:
        Seeds hold the full video and never issue requests.
    session:
        Playback state; ``None`` for seeds.
    departure_time:
        Early-departure instant (Fig. 6 dynamics), ``None`` otherwise.
    """

    upload_capacity_chunks = RowField("capacity", int, tally=True)
    chunks_uploaded = RowField("uploaded", int, tally=True)
    chunks_downloaded = RowField("downloaded", int, tally=True)
    #: Slot time of the first chunk delivered to this peer (``None``
    #: until then; the column holds NaN, and assigning ``None`` stores
    #: NaN) — startup delay in the QoE report is
    #: ``first_delivery_time - joined_at``.
    first_delivery_time = RowField("first_delivery", _time_or_none, tally=True)

    def __init__(
        self,
        peer_id: int,
        isp: int,
        video: Video,
        upload_capacity_chunks: int,
        buffer: ChunkBuffer,
        session: Optional[PlaybackSession] = None,
        is_seed: bool = False,
        joined_at: float = 0.0,
        departure_time: Optional[float] = None,
    ) -> None:
        if upload_capacity_chunks < 0:
            raise ValueError(
                f"upload capacity must be >= 0, got {upload_capacity_chunks!r}"
            )
        if is_seed and session is not None:
            raise ValueError("seed peers do not play back")
        self.peer_id = peer_id
        self.isp = isp
        self.video = video
        self.buffer = buffer
        self.peer_row = buffer.peer_row
        self.upload_capacity_chunks = int(upload_capacity_chunks)
        self.session = session
        self.is_seed = is_seed
        self.joined_at = float(joined_at)
        self.departure_time = departure_time

    # ------------------------------------------------------------------
    # Content queries
    # ------------------------------------------------------------------
    def holds_chunk(self, video_id: int, index: int) -> bool:
        """Whether this peer caches chunk ``index`` of ``video_id``."""
        return self.video.video_id == video_id and self.buffer.holds(index)

    def bitmap(self) -> frozenset:
        """Buffer-map snapshot (chunk indices of :attr:`video`)."""
        return self.buffer.bitmap()

    @property
    def watching(self) -> bool:
        """Has an unfinished playback session."""
        return self.session is not None and not self.session.finished

    def playback_position(self) -> Optional[int]:
        """Current playback position; ``None`` for seeds."""
        if self.session is None:
            return None
        return self.session.position

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "seed" if self.is_seed else "peer"
        return (
            f"<{role} {self.peer_id} isp={self.isp} video={self.video.video_id} "
            f"B={self.upload_capacity_chunks}>"
        )
