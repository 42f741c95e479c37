"""Per-tenant token-bucket rate limiting and front-door admission.

A classic token bucket on the injectable Clock: tokens refill
continuously at ``rate`` per second up to ``burst``, and each admitted
request takes one.  Refill is computed lazily from elapsed clock time
at each ``try_take``, so the bucket needs no timer thread and is exact
under a :class:`~repro.reliability.clock.FakeClock`.

:class:`FrontDoor` is the admission check both serving front doors (a
single :class:`~repro.serving.server.Server` and the shard router) make
before a request may queue: its database must exist, and its tenant's
bucket must hold a token.
"""

from __future__ import annotations

import threading
from typing import Iterable

from repro.reliability.clock import Clock, SYSTEM_CLOCK
from repro.serving.outcomes import Failed, RateLimited, ServeRequest


class TokenBucket:
    """Thread-safe token bucket over an injectable clock."""

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Clock | None = None,
    ):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock if clock is not None else SYSTEM_CLOCK
        self._tokens = self.burst
        self._refilled_at = self._clock.now()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        elapsed = now - self._refilled_at
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._refilled_at = now

    def try_take(self, amount: float = 1.0) -> bool:
        """Take ``amount`` tokens if available; False means rate-limited."""
        with self._lock:
            self._refill(self._clock.now())
            if self._tokens >= amount:
                self._tokens -= amount
                return True
            return False

    @property
    def available(self) -> float:
        """Current token count (after lazy refill)."""
        with self._lock:
            self._refill(self._clock.now())
            return self._tokens


class FrontDoor:
    """Unknown-database and per-tenant rate-limit admission.

    ``rate_per_tenant`` ``None`` disables rate limiting; otherwise each
    tenant gets its own :class:`TokenBucket`, created on first use.
    """

    def __init__(
        self,
        db_ids: Iterable[str],
        rate_per_tenant: float | None,
        burst_per_tenant: float,
        clock: Clock,
    ):
        self.db_ids = frozenset(db_ids)
        self.rate_per_tenant = rate_per_tenant
        self.burst_per_tenant = burst_per_tenant
        self._clock = clock
        self._buckets: dict[str, TokenBucket] = {}
        self._lock = threading.Lock()

    def check(self, request: ServeRequest) -> "Failed | RateLimited | None":
        """``None`` admits ``request``; otherwise its typed, unrecorded
        ``Failed`` (unknown database) or ``RateLimited`` outcome."""
        if request.db_id not in self.db_ids:
            return Failed(
                request=request,
                error=f"unknown database {request.db_id!r}",
                latency_s=0.0,
            )
        if self.rate_per_tenant is None:
            return None
        with self._lock:
            bucket = self._buckets.get(request.tenant)
            if bucket is None:
                bucket = self._buckets[request.tenant] = TokenBucket(
                    rate=self.rate_per_tenant,
                    burst=self.burst_per_tenant,
                    clock=self._clock,
                )
        if bucket.try_take():
            return None
        return RateLimited(
            request=request,
            reason=f"tenant {request.tenant!r} exceeded {self.rate_per_tenant}/s",
        )
