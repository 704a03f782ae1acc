"""Cross-slot retry pipeline for failed and truncated transfers.

When the link-condition layer (:mod:`repro.net.linkmodel`) drops or
truncates an assigned transfer, the chunk is not re-auctioned
immediately: the (downstream, uploader, video, chunk) edge parks in the
system's :class:`RetryQueue` and is re-attempted against the *same*
uploader after an exponential backoff measured in slots.  While an edge
is pending, the downstream's request for that chunk is suppressed from
:meth:`repro.p2p.system.P2PSystem.build_problem` so the auction does not
double-assign it.  An edge that outlives its TTL is surrendered — it
simply leaves the queue, and the still-missing chunk re-enters the next
slot's window of interest like any other request.  Churn is handled by
eviction: an edge whose uploader or downstream departed can never
complete and is dropped during the slot-boundary sweep.

Storage is columnar (parallel int64 arrays) so the per-slot sweep —
evict offline endpoints, pop surrendered edges, pop due edges — is a
handful of boolean masks regardless of queue depth, matching the rest of
the slot pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

__all__ = ["RetryQueue", "RetryBatch"]

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class RetryBatch:
    """One slot's due retry attempts, popped from the queue.

    Parallel arrays in queue (insertion) order: downstream peer,
    uploader peer, video id, chunk index, and the attempt number this
    batch is about to make (first failure enqueued with attempts=1, so
    the first retry is attempt 2).
    """

    down: np.ndarray
    up: np.ndarray
    video: np.ndarray
    chunk: np.ndarray
    attempts: np.ndarray

    def __len__(self) -> int:
        return len(self.down)


class RetryQueue:
    """Pending lossy-transfer deliveries awaiting their next attempt.

    Parameters
    ----------
    backoff_base_slots:
        Wait before the first retry; attempt ``k`` waits
        ``backoff_base_slots * 2**(k-1)`` slots, capped at
        ``backoff_cap_slots``.
    backoff_cap_slots:
        Upper bound on the per-attempt backoff.
    ttl_slots:
        Lifetime of an edge in the queue, in slots since the original
        failure.  An edge whose next due time falls beyond its expiry is
        surrendered back to the auction at the sweep.
    """

    def __init__(
        self,
        backoff_base_slots: int = 1,
        backoff_cap_slots: int = 4,
        ttl_slots: int = 6,
    ) -> None:
        if backoff_base_slots < 1 or backoff_cap_slots < 1:
            raise ValueError("backoff slots must be >= 1")
        if ttl_slots < 1:
            raise ValueError("ttl_slots must be >= 1")
        self.backoff_base_slots = int(backoff_base_slots)
        self.backoff_cap_slots = int(backoff_cap_slots)
        self.ttl_slots = int(ttl_slots)
        self._down = _EMPTY
        self._up = _EMPTY
        self._video = _EMPTY
        self._chunk = _EMPTY
        self._attempts = _EMPTY
        self._due = _EMPTY
        self._expire = _EMPTY

    def __len__(self) -> int:
        return len(self._down)

    def backoff_slots(self, attempt: int) -> int:
        """Slots to wait after failed attempt number ``attempt`` (>= 1)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt!r}")
        shift = min(attempt - 1, 62)
        return min(self.backoff_base_slots << shift, self.backoff_cap_slots)

    # ------------------------------------------------------------------
    # Enqueue
    # ------------------------------------------------------------------
    def push_failed(
        self,
        down: np.ndarray,
        up: np.ndarray,
        video: np.ndarray,
        chunk: np.ndarray,
        slot: int,
        attempts: np.ndarray = None,
    ) -> None:
        """Park a batch of failed transfers observed at slot ``slot``.

        Fresh failures (``attempts=None``) enter with attempt count 1
        and expiry ``slot + ttl_slots``; re-queued retries pass their
        prior attempt counts and keep their original expiry by being
        re-pushed via :meth:`requeue` instead.
        """
        n = len(down)
        if n == 0:
            return
        if attempts is None:
            attempts = np.ones(n, dtype=np.int64)
        due = slot + np.fromiter(
            (self.backoff_slots(int(a)) for a in attempts),
            dtype=np.int64,
            count=n,
        )
        expire = np.full(n, slot + self.ttl_slots, dtype=np.int64)
        self._append(down, up, video, chunk, attempts, due, expire)

    def requeue(self, batch: RetryBatch, failed: np.ndarray, slot: int,
                expire: np.ndarray) -> None:
        """Re-park the ``failed`` subset of a popped batch after a miss.

        Attempt counts advance by one; the original expiry is preserved
        so the TTL clock keeps running from the first failure.
        """
        if not failed.any():
            return
        attempts = batch.attempts[failed] + 1
        due = slot + np.fromiter(
            (self.backoff_slots(int(a)) for a in attempts),
            dtype=np.int64,
            count=len(attempts),
        )
        self._append(
            batch.down[failed],
            batch.up[failed],
            batch.video[failed],
            batch.chunk[failed],
            attempts,
            due,
            expire[failed],
        )

    def _append(self, down, up, video, chunk, attempts, due, expire) -> None:
        as64 = lambda a: np.asarray(a, dtype=np.int64)
        self._down = np.concatenate((self._down, as64(down)))
        self._up = np.concatenate((self._up, as64(up)))
        self._video = np.concatenate((self._video, as64(video)))
        self._chunk = np.concatenate((self._chunk, as64(chunk)))
        self._attempts = np.concatenate((self._attempts, as64(attempts)))
        self._due = np.concatenate((self._due, as64(due)))
        self._expire = np.concatenate((self._expire, as64(expire)))

    # ------------------------------------------------------------------
    # Slot-boundary sweep
    # ------------------------------------------------------------------
    def evict_departed(self, online_mask_of: np.ndarray) -> int:
        """Drop edges whose uploader or downstream is offline.

        ``online_mask_of`` is a peer-id-indexed bool array (ids at or
        beyond its length count as offline).  Returns edges evicted.
        """
        if not len(self._down):
            return 0
        limit = len(online_mask_of)

        def online(ids: np.ndarray) -> np.ndarray:
            ok = ids < limit
            out = np.zeros(len(ids), dtype=bool)
            out[ok] = online_mask_of[ids[ok]]
            return out

        keep = online(self._down) & online(self._up)
        evicted = int(len(keep) - keep.sum())
        if evicted:
            self._filter(keep)
        return evicted

    def pop_surrendered(self, slot: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Remove expired edges; returns their (down, video, chunk).

        An edge expires once ``slot`` reaches its expiry — the chunk is
        handed back to the auction (its request is no longer suppressed,
        so the next ``build_problem`` re-exposes it).
        """
        if not len(self._down):
            return _EMPTY, _EMPTY, _EMPTY
        expired = self._expire <= slot
        if not expired.any():
            return _EMPTY, _EMPTY, _EMPTY
        down = self._down[expired]
        video = self._video[expired]
        chunk = self._chunk[expired]
        self._filter(~expired)
        return down, video, chunk

    def pop_due(self, slot: int) -> Tuple[RetryBatch, np.ndarray]:
        """Remove edges due at ``slot``; returns (batch, their expiries)."""
        if not len(self._down):
            return RetryBatch(_EMPTY, _EMPTY, _EMPTY, _EMPTY, _EMPTY), _EMPTY
        due = self._due <= slot
        if not due.any():
            return RetryBatch(_EMPTY, _EMPTY, _EMPTY, _EMPTY, _EMPTY), _EMPTY
        batch = RetryBatch(
            down=self._down[due],
            up=self._up[due],
            video=self._video[due],
            chunk=self._chunk[due],
            attempts=self._attempts[due],
        )
        expire = self._expire[due]
        self._filter(~due)
        return batch, expire

    def _filter(self, keep: np.ndarray) -> None:
        self._down = self._down[keep]
        self._up = self._up[keep]
        self._video = self._video[keep]
        self._chunk = self._chunk[keep]
        self._attempts = self._attempts[keep]
        self._due = self._due[keep]
        self._expire = self._expire[keep]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def pending_triples(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(downstream, video, chunk) of every pending edge — the
        suppression set ``build_problem`` subtracts from its requests."""
        return self._down, self._video, self._chunk

    def drop_downstream_chunks(self, down: np.ndarray, video: np.ndarray,
                               chunk: np.ndarray) -> int:
        """Remove any pending edges matching the given triples.

        Used when a chunk reaches the downstream by another path (e.g. a
        surrendered edge's auction reassignment succeeds while a
        duplicate is still parked).  Returns edges dropped.
        """
        if not len(self._down) or not len(down):
            return 0
        keys = _triple_key(self._down, self._video, self._chunk)
        gone = _triple_key(np.asarray(down, dtype=np.int64),
                           np.asarray(video, dtype=np.int64),
                           np.asarray(chunk, dtype=np.int64))
        keep = ~np.isin(keys, gone)
        dropped = int(len(keep) - keep.sum())
        if dropped:
            self._filter(keep)
        return dropped

    # ------------------------------------------------------------------
    # Snapshot/restore (bench harness: timing runs must not leak state)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, np.ndarray]:
        """Copy of the full queue state, for exact restoration."""
        return {
            "down": self._down.copy(),
            "up": self._up.copy(),
            "video": self._video.copy(),
            "chunk": self._chunk.copy(),
            "attempts": self._attempts.copy(),
            "due": self._due.copy(),
            "expire": self._expire.copy(),
        }

    def restore(self, snap: Dict[str, np.ndarray]) -> None:
        """Restore state captured by :meth:`snapshot`."""
        self._down = snap["down"].copy()
        self._up = snap["up"].copy()
        self._video = snap["video"].copy()
        self._chunk = snap["chunk"].copy()
        self._attempts = snap["attempts"].copy()
        self._due = snap["due"].copy()
        self._expire = snap["expire"].copy()


def _triple_key(peer: np.ndarray, video: np.ndarray, chunk: np.ndarray) -> np.ndarray:
    """Pack (peer, video, chunk) into one int64 key for set operations.

    Safe while peer ids stay below 2**31 and video/chunk below 2**16 —
    comfortably true for every configuration in this repo (videos ≤ 100,
    chunks/video ≤ 2560, peers well under a billion).
    """
    return (
        (peer.astype(np.int64) << np.int64(32))
        | (video.astype(np.int64) << np.int64(16))
        | chunk.astype(np.int64)
    )
