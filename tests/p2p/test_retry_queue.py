"""Unit tests for the cross-slot retry queue (columnar pending-edge store)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.p2p.retry import RetryBatch, RetryQueue


def _push_one(queue, slot=0, down=1, up=2, video=0, chunk=5):
    queue.push_failed(
        np.array([down]), np.array([up]), np.array([video]),
        np.array([chunk]), slot,
    )


class TestBackoff:
    def test_exponential_doubling_capped(self):
        queue = RetryQueue(backoff_base_slots=1, backoff_cap_slots=4)
        assert [queue.backoff_slots(a) for a in range(1, 6)] == [1, 2, 4, 4, 4]

    def test_base_scales(self):
        queue = RetryQueue(backoff_base_slots=2, backoff_cap_slots=16)
        assert [queue.backoff_slots(a) for a in range(1, 5)] == [2, 4, 8, 16]

    def test_huge_attempt_does_not_overflow(self):
        queue = RetryQueue(backoff_base_slots=1, backoff_cap_slots=8)
        assert queue.backoff_slots(10_000) == 8

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError):
            RetryQueue().backoff_slots(0)
        with pytest.raises(ValueError):
            RetryQueue().backoff_slots(np.array([3, 0, 2]))

    @pytest.mark.parametrize("base,cap", [(1, 4), (2, 8), (2, 64), (3, 5), (5, 2)])
    def test_array_rule_equals_scalar_rule(self, base, cap):
        """One rule for arrays and scalars, exact past int64's shift range.

        At ``(2, 64)`` a shift bounded only by 62 overflows int64 once
        the attempt count passes 62.
        """
        queue = RetryQueue(backoff_base_slots=base, backoff_cap_slots=cap)
        attempts = range(1, 201)
        expected = [min(base << min(a - 1, 62), cap) for a in attempts]
        got = queue.backoff_slots(np.arange(1, 201))
        assert got.dtype == np.int64 and got.tolist() == expected
        scalars = [queue.backoff_slots(a) for a in attempts]
        assert scalars == expected
        assert all(type(x) is int for x in scalars)

    @pytest.mark.parametrize(
        "kwargs", [dict(backoff_base_slots=0), dict(backoff_cap_slots=0),
                   dict(ttl_slots=0), dict(backoff_cap_slots=2**31)]
    )
    def test_constructor_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryQueue(**kwargs)


class TestLifecycle:
    def test_fresh_push_due_after_first_backoff(self):
        queue = RetryQueue(backoff_base_slots=2, ttl_slots=10)
        _push_one(queue, slot=3)
        assert len(queue) == 1
        batch, _ = queue.pop_due(4)  # due at 3 + 2 = 5
        assert len(batch) == 0 and len(queue) == 1
        batch, expire = queue.pop_due(5)
        assert len(batch) == 1 and len(queue) == 0
        assert batch.attempts.tolist() == [1]
        assert expire.tolist() == [13]

    def test_requeue_advances_attempts_keeps_expiry(self):
        queue = RetryQueue(backoff_base_slots=1, backoff_cap_slots=4,
                           ttl_slots=10)
        _push_one(queue, slot=0)
        batch, expire = queue.pop_due(1)
        queue.requeue(batch, np.array([True]), 1, expire)
        batch2, expire2 = queue.pop_due(3)  # backoff(2) = 2 slots
        assert batch2.attempts.tolist() == [2]
        assert expire2.tolist() == [10]  # original expiry, not reset

    def test_requeue_noop_on_all_success(self):
        queue = RetryQueue()
        _push_one(queue, slot=0)
        batch, expire = queue.pop_due(1)
        queue.requeue(batch, np.array([False]), 1, expire)
        assert len(queue) == 0

    def test_surrender_at_ttl(self):
        queue = RetryQueue(backoff_base_slots=1, ttl_slots=3)
        _push_one(queue, slot=2, down=9, video=1, chunk=7)
        down, video, chunk = queue.pop_surrendered(4)
        assert len(down) == 0  # expires at 2 + 3 = 5
        down, video, chunk = queue.pop_surrendered(5)
        assert down.tolist() == [9]
        assert video.tolist() == [1]
        assert chunk.tolist() == [7]
        assert len(queue) == 0

    def test_evict_departed_either_endpoint(self):
        queue = RetryQueue()
        queue.push_failed(
            np.array([1, 3, 5]), np.array([2, 4, 6]),
            np.zeros(3, dtype=np.int64), np.arange(3), 0,
        )
        online = np.ones(7, dtype=bool)
        online[2] = False  # uploader of edge 0
        online[5] = False  # downstream of edge 2
        assert queue.evict_departed(online) == 2
        assert queue.pending_triples()[0].tolist() == [3]

    def test_evict_out_of_range_ids_count_as_offline(self):
        queue = RetryQueue()
        _push_one(queue, down=100, up=1)
        assert queue.evict_departed(np.ones(5, dtype=bool)) == 1
        assert len(queue) == 0


class TestSnapshot:
    def test_roundtrip_is_exact_and_isolated(self):
        queue = RetryQueue()
        _push_one(queue, slot=0, down=1, up=2)
        snap = queue.snapshot()
        _push_one(queue, slot=1, down=3, up=4)
        queue.pop_due(50)
        queue.restore(snap)
        assert len(queue) == 1
        batch, _ = queue.pop_due(50)
        assert batch.down.tolist() == [1]
        # The snapshot holds copies: restoring twice works.
        queue.restore(snap)
        assert len(queue) == 1

    def test_empty_batch_type(self):
        batch, expire = RetryQueue().pop_due(10)
        assert isinstance(batch, RetryBatch)
        assert len(batch) == 0 and len(expire) == 0
