"""RequestQueue.get_batch work-conserving semantics under real threads.

The batching policy is the serving layer's latency/throughput contract:
block for the first request, then take every request already queued (up
to ``max_size``) without waiting for more — and close() must wake a
waiter blocked on an empty queue immediately.  No test here depends on
how long anything takes.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.serving.batcher import RequestQueue, _Pending


def _pending() -> _Pending:
    return _Pending(np.array([8, 8, 8, 0], dtype=np.int64))


def _collect_in_thread(queue, max_size):
    """Run get_batch on a worker thread; returns (thread, result_box)."""
    box = {}

    def run():
        box["batch"] = queue.get_batch(max_size)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, box


def _blocked_on_empty(queue, thread) -> bool:
    """Wait until ``thread`` sleeps in get_batch on the empty queue."""
    for _ in range(1000):
        with queue._cond:
            if queue._cond._waiters:
                return True
        thread.join(0.005)
    return False


class TestFlushOnSize:
    def test_full_batch_returns_without_waiting_the_deadline(self):
        queue = RequestQueue()
        for _ in range(8):
            queue.put(_pending())
        assert len(queue.get_batch(8)) == 8

    def test_excess_items_stay_queued_for_the_next_batch(self):
        queue = RequestQueue()
        for _ in range(11):
            queue.put(_pending())
        assert len(queue.get_batch(8)) == 8
        assert len(queue.get_batch(8)) == 3
        assert len(queue) == 0


class TestWorkConserving:
    def test_lone_request_is_returned_at_once(self):
        queue = RequestQueue()
        item = _pending()
        queue.put(item)
        assert queue.get_batch(8) == [item]
        assert len(queue) == 0

    def test_items_queued_before_the_call_share_one_batch(self):
        queue = RequestQueue()
        items = [_pending() for _ in range(5)]
        for item in items:
            queue.put(item)
        assert queue.get_batch(8) == items      # all of them, in order

    def test_backlog_beyond_the_cap_is_served_in_arrival_order(self):
        queue = RequestQueue()
        items = [_pending() for _ in range(10)]
        for item in items:
            queue.put(item)
        assert queue.get_batch(4) == items[:4]
        assert queue.get_batch(4) == items[4:8]
        assert queue.get_batch(4) == items[8:]

    def test_blocks_indefinitely_for_the_first_request(self):
        queue = RequestQueue()
        thread, box = _collect_in_thread(queue, 4)
        assert _blocked_on_empty(queue, thread)
        assert thread.is_alive()
        queue.put(_pending())
        thread.join(5.0)
        assert not thread.is_alive()
        assert len(box["batch"]) == 1


class TestClose:
    def test_close_while_waiting_empty_returns_none(self):
        queue = RequestQueue()
        thread, box = _collect_in_thread(queue, 4)
        assert _blocked_on_empty(queue, thread)
        queue.close()
        thread.join(5.0)
        assert not thread.is_alive()
        assert box["batch"] is None

    def test_close_mid_collection_flushes_the_partial_batch(self):
        """A queue closed with fewer than ``max_size`` items still hands
        them out as one batch, then reports the end."""
        queue = RequestQueue()
        queue.put(_pending())
        queue.close()
        thread, box = _collect_in_thread(queue, 8)
        thread.join(5.0)
        assert not thread.is_alive()
        assert len(box["batch"]) == 1
        assert queue.get_batch(8) is None

    def test_pending_items_drain_after_close_then_none(self):
        queue = RequestQueue()
        for _ in range(3):
            queue.put(_pending())
        queue.close()
        assert len(queue.get_batch(8)) == 3
        assert queue.get_batch(8) is None

    def test_put_after_close_raises(self):
        queue = RequestQueue()
        queue.close()
        with pytest.raises(RuntimeError, match="closed"):
            queue.put(_pending())
