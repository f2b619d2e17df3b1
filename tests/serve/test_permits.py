"""Execution permits: arrival order, a bounded wait, and shedding.

Every request runs on its connection thread once one of the pool's
``workers`` permits is free.  The permits go to waiters in the order
they arrived (a releasing thread cannot barge ahead of them), a
request that waits longer than the daemon's ``request_timeout`` fails
with the typed, retryable 503, and the permits are the daemon's one
busy gate: once ``max_inflight`` requests hold or wait for a permit,
the next is shed with the same 503.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.serve.client import ServeClient
from repro.serve.daemon import ServeServer
from repro.serve.errors import SaturatedError
from repro.serve.workers import _FifoPermits


def _wait_for_waiters(permits: _FifoPermits, n: int) -> None:
    deadline = time.monotonic() + 10
    while len(permits._waiters) < n:
        assert time.monotonic() < deadline, "waiter never queued"
        time.sleep(0.001)


def test_permit_goes_to_waiters_in_arrival_order():
    permits = _FifoPermits(1, max_inflight=8)
    assert permits.acquire(timeout=0)
    order: list[int] = []
    go = threading.Event()

    def waiter(i: int) -> None:
        assert permits.acquire(timeout=10)
        order.append(i)
        go.wait(10)
        permits.release()

    threads = []
    for i in range(4):
        t = threading.Thread(target=waiter, args=(i,))
        t.start()
        _wait_for_waiters(permits, i + 1)
        threads.append(t)
    permits.release()
    # the permit went straight to the oldest waiter: the releasing
    # thread cannot take it back ahead of the queue
    assert not permits.acquire(timeout=0)
    go.set()
    for t in threads:
        t.join(10)
    assert order == [0, 1, 2, 3]
    assert permits.acquire(timeout=0)  # and it came back afterwards


def test_timed_out_waiter_leaves_the_queue():
    permits = _FifoPermits(1, max_inflight=8)
    assert permits.acquire(timeout=0)
    assert not permits.acquire(timeout=0.01)
    assert len(permits._waiters) == 0
    permits.release()
    assert permits.acquire(timeout=0)


def test_shed_past_max_inflight_with_retry_after():
    permits = _FifoPermits(2, max_inflight=2)
    assert permits.acquire(timeout=0)
    assert permits.acquire(timeout=0)
    with pytest.raises(SaturatedError) as ei:
        permits.acquire(timeout=0)
    assert ei.value.http_status == 503 and ei.value.retryable
    assert ei.value.retry_after_s == 0.05
    assert permits.shed == 1 and permits.peak == 2
    permits.release()
    assert permits.acquire(timeout=0)  # a freed slot admits again
    permits.release()
    permits.release()
    assert permits.inflight == 0


def test_permits_never_go_below_zero():
    """Waiters count toward ``max_inflight``; shed and timed-out
    acquires hold nothing, so the one release paired with each granted
    acquire brings every count back exactly, round after round."""
    permits = _FifoPermits(1, max_inflight=2)
    for _ in range(3):
        assert permits.acquire(timeout=0)
        assert not permits.acquire(timeout=0.01)
        assert permits.inflight == 1
        got: list[bool] = []
        t = threading.Thread(target=lambda: got.append(permits.acquire(10)))
        t.start()
        _wait_for_waiters(permits, 1)
        with pytest.raises(SaturatedError):
            permits.acquire(timeout=10)  # shed at once, never queued
        assert len(permits._waiters) == 1
        permits.release()
        t.join(10)
        assert got == [True] and permits.inflight == 1
        permits.release()
        assert permits.inflight == 0
        assert permits._free == 1 and not permits._waiters
    assert permits.shed == 3 and permits.peak == 2


def test_request_held_past_timeout_is_retryable_503():
    arr = np.arange(64, dtype=np.float32)
    entered = threading.Event()
    hold = threading.Event()
    with ServeServer(port=0, workers=1) as server:
        server.request_timeout = 0.2
        execute = server.pool._execute

        def blocking(req, comp_cache):
            if req.tenant == "holder":
                entered.set()
                hold.wait(10)
            return execute(req, comp_cache)

        server.pool._execute = blocking
        holder = ServeClient(port=server.port, tenant="holder")
        waiter = ServeClient(port=server.port, tenant="waiter")
        held: dict = {}
        t = threading.Thread(target=lambda: held.update(
            out=holder.roundtrip(arr, "noop")[0]))
        t.start()
        try:
            assert entered.wait(10)
            with pytest.raises(SaturatedError) as ei:
                waiter.roundtrip(arr, "noop")
            assert ei.value.http_status == 503
            assert ei.value.retryable
            assert ei.value.retry_after_s and ei.value.retry_after_s > 0
        finally:
            hold.set()
            t.join(10)
        try:
            np.testing.assert_array_equal(held["out"], arr)
            # the permit came back: the retry is served
            out, _ = waiter.roundtrip(arr, "noop")
            np.testing.assert_array_equal(out, arr)
            assert server.pool.failed == 0
            assert server.pool.permits.inflight == 0
        finally:
            holder.close()
            waiter.close()
