"""Token-bucket quotas, unit and end to end.

The unit tests drive a fake clock so refill arithmetic is exact; the
integration tests prove the daemon answers 429 with ``Retry-After``
and that one tenant draining its bucket cannot starve another.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve.errors import QuotaExceededError
from repro.serve.quota import QuotaManager, TokenBucket


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class TestTokenBucket:
    def test_burst_then_deny_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
        for _ in range(3):
            assert bucket.try_acquire() is None
        wait = bucket.try_acquire()
        assert wait == pytest.approx(0.5)  # 1 token at 2/s
        clock.advance(0.5)
        assert bucket.try_acquire() is None

    def test_tokens_cap_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2.0, clock=clock)
        clock.advance(60.0)
        assert bucket.tokens == pytest.approx(2.0)

    @pytest.mark.parametrize("rate,burst", ((0, 1), (-1, 1), (1, 0)))
    def test_invalid_parameters_rejected(self, rate, burst):
        with pytest.raises(ValueError):
            TokenBucket(rate=rate, burst=burst)


class TestQuotaManager:
    def test_disabled_by_default_counts_admits(self):
        q = QuotaManager()
        assert not q.enabled
        for _ in range(100):
            q.admit("anyone")
        assert q.admitted == 100 and q.denied == 0

    def test_deny_carries_retry_after(self):
        clock = FakeClock()
        q = QuotaManager(rate=1.0, burst=1.0, clock=clock)
        q.admit("t")
        with pytest.raises(QuotaExceededError) as ei:
            q.admit("t")
        assert ei.value.retry_after_s == pytest.approx(1.0)
        assert ei.value.http_status == 429 and ei.value.retryable
        assert q.denied == 1

    def test_tenants_have_independent_buckets(self):
        clock = FakeClock()
        q = QuotaManager(rate=1.0, burst=1.0, clock=clock)
        q.admit("a")
        with pytest.raises(QuotaExceededError):
            q.admit("a")
        q.admit("b")  # must not be affected by a's empty bucket

    def test_per_tenant_overrides(self):
        clock = FakeClock()
        q = QuotaManager(rate=1.0, burst=1.0,
                         tenants={"gold": (100.0, 10.0)}, clock=clock)
        for _ in range(10):
            q.admit("gold")
        q.admit("lead")
        with pytest.raises(QuotaExceededError):
            q.admit("lead")

    def test_overrides_enforced_even_with_zero_default(self):
        clock = FakeClock()
        q = QuotaManager(rate=0.0, tenants={"capped": (1.0, 1.0)},
                         clock=clock)
        assert q.enabled
        q.admit("capped")
        with pytest.raises(QuotaExceededError):
            q.admit("capped")
        q.admit("free")  # no override, zero default: unlimited


class TestQuotaEndToEnd:
    def test_daemon_answers_429_with_retry_after(self):
        from repro.serve.client import ServeClient
        from repro.serve.daemon import ServeServer

        arr = np.arange(32, dtype=np.float32)
        quota = QuotaManager(rate=0.001, burst=2.0)
        with ServeServer(port=0, workers=2, quota=quota) as server:
            c = ServeClient(port=server.port, tenant="greedy")
            other = ServeClient(port=server.port, tenant="patient")
            try:
                c.roundtrip(arr, "noop")
                c.roundtrip(arr, "noop")
                with pytest.raises(QuotaExceededError) as ei:
                    c.roundtrip(arr, "noop")
                assert ei.value.retry_after_s and ei.value.retry_after_s > 0
                # the drained tenant must not affect anyone else
                other.roundtrip(arr, "noop")
                health = c.health()
                assert health["quota"]["denied"] >= 1
                assert health["quota"]["enabled"] is True
            finally:
                c.close()
                other.close()
