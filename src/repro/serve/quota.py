"""Per-tenant token-bucket quotas.

:class:`QuotaManager` keeps one :class:`TokenBucket` per tenant.  A
request costs one token; an empty bucket answers 429 with a
``Retry-After`` computed from the refill rate, so well-behaved clients
back off for exactly as long as it takes a token to appear.  Shedding
a saturated daemon (503) is the worker pool's execution permits' job
(:mod:`repro.serve.workers`).

Both classes are lock-protected so the soak test can hammer them from
many threads and still assert exact counter arithmetic.
"""

from __future__ import annotations

import threading
import time

from .errors import QuotaExceededError

__all__ = ["TokenBucket", "QuotaManager"]


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, capacity ``burst``."""

    def __init__(self, rate: float, burst: float,
                 clock=time.monotonic) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst <= 0:
            raise ValueError(f"burst must be positive, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        elapsed = now - self._stamp
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._stamp = now

    def try_acquire(self, cost: float = 1.0) -> float | None:
        """Take ``cost`` tokens; return None on success, else the
        seconds until enough tokens will have accumulated."""
        with self._lock:
            now = self._clock()
            self._refill(now)
            if self._tokens >= cost:
                self._tokens -= cost
                return None
            return (cost - self._tokens) / self.rate

    @property
    def tokens(self) -> float:
        with self._lock:
            self._refill(self._clock())
            return self._tokens


class QuotaManager:
    """Lazily creates one bucket per tenant; raises 429 when drained.

    ``rate``/``burst`` are the defaults; per-tenant overrides may be
    supplied up front via ``tenants={"name": (rate, burst)}``.  A
    non-positive default rate disables quota enforcement entirely
    (every tenant always admitted) — the bench path runs that way.
    """

    def __init__(self, rate: float = 0.0, burst: float = 0.0,
                 tenants: dict[str, tuple[float, float]] | None = None,
                 clock=time.monotonic) -> None:
        self.default_rate = float(rate)
        self.default_burst = float(burst)
        self._clock = clock
        self._buckets: dict[str, TokenBucket] = {}
        self._overrides = dict(tenants or {})
        self._lock = threading.Lock()
        self.denied = 0
        self.admitted = 0

    @property
    def enabled(self) -> bool:
        return self.default_rate > 0 or bool(self._overrides)

    def _bucket(self, tenant: str) -> TokenBucket | None:
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                if tenant in self._overrides:
                    rate, burst = self._overrides[tenant]
                elif self.default_rate > 0:
                    rate, burst = self.default_rate, self.default_burst
                else:
                    return None
                bucket = TokenBucket(rate, max(burst, 1.0),
                                     clock=self._clock)
                self._buckets[tenant] = bucket
            return bucket

    def admit(self, tenant: str) -> None:
        """Charge one token to ``tenant`` or raise :class:`QuotaExceededError`."""
        if self.default_rate <= 0 and not self._overrides:
            # quotas disabled: count the admit, skip the bucket lookup
            with self._lock:
                self.admitted += 1
            return
        bucket = self._bucket(tenant)
        if bucket is None:
            with self._lock:
                self.admitted += 1
            return
        wait = bucket.try_acquire(1.0)
        with self._lock:
            if wait is None:
                self.admitted += 1
            else:
                self.denied += 1
        if wait is not None:
            raise QuotaExceededError(
                f"tenant {tenant!r} exceeded its request quota",
                retry_after_s=max(wait, 0.001))
