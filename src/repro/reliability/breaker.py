"""A per-resource circuit breaker (closed → open → half-open).

In an eval run a corrupted benchmark database fails every query it
sees; without a breaker each of its examples still burns the full
retry budget.  The breaker trips after ``failure_threshold``
consecutive failures, rejects calls for ``recovery_timeout_s`` (open),
then lets one probe through (half-open): a probe success closes the
circuit, a probe failure re-opens it.

Time is read through an injectable clock so state transitions are
deterministic in tests.

State transitions are lock-protected: the serving layer's worker
threads share one breaker per database, and the half-open contract —
one probe per recovery — only holds if the recover/admit sequence is
atomic.  Readers take :meth:`CircuitBreaker.as_row`, one
plain dict read under the same lock.
"""

from __future__ import annotations

import threading
from typing import Callable, TypeVar

from repro.errors import CircuitOpenError
from repro.reliability.clock import Clock, SYSTEM_CLOCK

T = TypeVar("T")

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-failure circuit breaker with timed recovery."""

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_timeout_s: float = 30.0,
        clock: Clock | None = None,
        name: str = "",
    ):
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        if recovery_timeout_s < 0:
            raise ValueError(f"recovery_timeout_s must be >= 0, got {recovery_timeout_s}")
        self.failure_threshold = failure_threshold
        self.recovery_timeout_s = recovery_timeout_s
        self.name = name
        self._clock = clock if clock is not None else SYSTEM_CLOCK
        self._lock = threading.RLock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_admitted = False
        self.total_rejections = 0
        self.open_count = 0

    # -- state ---------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_recover()
            return self._state

    def _maybe_recover(self) -> None:
        if (
            self._state == OPEN
            and self._clock.now() - self._opened_at >= self.recovery_timeout_s
        ):
            self._state = HALF_OPEN
            self._probe_admitted = False

    def as_row(self) -> dict[str, object]:
        """One lock-consistent table row for observability readers."""
        with self._lock:
            self._maybe_recover()
            return {
                "name": self.name,
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "open_count": self.open_count,
            }

    def allow(self) -> bool:
        """Would a call be admitted right now?  (Does not consume a probe.)"""
        with self._lock:
            self._maybe_recover()
            return self._state == CLOSED or (
                self._state == HALF_OPEN and not self._probe_admitted
            )

    def admit(self) -> bool:
        """Admit or reject a call, consuming the half-open probe.

        Callers that use ``admit`` must report the call's outcome via
        :meth:`record_success` / :meth:`record_failure`.  The
        recover-then-consume sequence runs under the breaker lock, so
        racing threads at a half-open circuit win exactly one probe
        between them.
        """
        with self._lock:
            self._maybe_recover()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN and not self._probe_admitted:
                self._probe_admitted = True
                return True
            self.total_rejections += 1
            return False

    # -- outcome recording ---------------------------------------------------

    def record_success(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._state = CLOSED
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._trip()
                return
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.failure_threshold:
                self._trip()

    def _trip(self) -> None:
        self._state = OPEN
        self._opened_at = self._clock.now()
        self._consecutive_failures = 0
        self._probe_admitted = False
        self.open_count += 1

    # -- call wrapper ----------------------------------------------------------

    def call(
        self,
        fn: Callable[[], T],
        failure_types: tuple[type[BaseException], ...] = (Exception,),
    ) -> T:
        """Run ``fn`` through the breaker.

        Raises :class:`CircuitOpenError` without calling ``fn`` when the
        circuit rejects the call.  Exceptions matching ``failure_types``
        are recorded as failures and re-raised.
        """
        if not self.admit():
            label = f" {self.name!r}" if self.name else ""
            raise CircuitOpenError(
                f"circuit{label} is {self._state}; retry after "
                f"{self.recovery_timeout_s:.3f}s recovery timeout"
            )
        try:
            result = fn()
        except failure_types as exc:
            self.record_failure()
            raise exc
        self.record_success()
        return result
