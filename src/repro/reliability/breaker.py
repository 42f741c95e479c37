"""A per-resource circuit breaker (closed → open → half-open).

In an eval run a corrupted benchmark database fails every query it
sees; without a breaker each of its examples still burns the full
retry budget.  The breaker trips after ``failure_threshold``
consecutive failures, rejects calls for ``recovery_timeout_s`` (open),
then lets a limited number of probes through (half-open): a probe
success closes the circuit, a probe failure re-opens it.

Time is read through an injectable clock so state transitions are
deterministic in tests.

State transitions are lock-protected: the serving layer's worker
threads share one breaker per database, and the half-open contract —
at most ``half_open_max_probes`` concurrent probes — only holds if the
recover/admit sequence is atomic.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.errors import CircuitOpenError
from repro.reliability.clock import Clock, SYSTEM_CLOCK

T = TypeVar("T")

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerStats:
    """One frozen snapshot of a breaker's state and counters.

    Observability readers (``ServerMetrics``, the ``repro providers``
    CLI) consume this instead of reaching into the breaker's private
    attributes; the snapshot is taken under the breaker lock, so the
    fields are mutually consistent.
    """

    name: str
    state: str
    consecutive_failures: int
    open_count: int
    total_failures: int
    total_rejections: int
    #: Clock time of the last state transition (breaker creation time
    #: until the first trip).
    last_transition_at: float


class CircuitBreaker:
    """Consecutive-failure circuit breaker with timed recovery."""

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_timeout_s: float = 30.0,
        half_open_max_probes: int = 1,
        clock: Clock | None = None,
        name: str = "",
    ):
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        if recovery_timeout_s < 0:
            raise ValueError(f"recovery_timeout_s must be >= 0, got {recovery_timeout_s}")
        if half_open_max_probes < 1:
            raise ValueError(f"half_open_max_probes must be >= 1, got {half_open_max_probes}")
        self.failure_threshold = failure_threshold
        self.recovery_timeout_s = recovery_timeout_s
        self.half_open_max_probes = half_open_max_probes
        self.name = name
        self._clock = clock if clock is not None else SYSTEM_CLOCK
        self._lock = threading.RLock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._half_open_probes = 0
        self.total_failures = 0
        self.total_rejections = 0
        self.open_count = 0
        self._last_transition_at = self._clock.now()

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
            self._half_open_probes = 0
            self._last_transition_at = self._clock.now()

    @property
    def stats(self) -> BreakerStats:
        """A frozen, lock-consistent snapshot for observability readers."""
        with self._lock:
            self._maybe_recover()
            return BreakerStats(
                name=self.name,
                state=self._state,
                consecutive_failures=self._consecutive_failures,
                open_count=self.open_count,
                total_failures=self.total_failures,
                total_rejections=self.total_rejections,
                last_transition_at=self._last_transition_at,
            )

    def allow(self) -> bool:
        """Would a call be admitted right now?  (Does not consume a probe.)"""
        with self._lock:
            self._maybe_recover()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN:
                return self._half_open_probes < self.half_open_max_probes
            return False

    def admit(self) -> bool:
        """Admit or reject a call, consuming a half-open probe slot.

        Callers that use ``admit`` must report the call's outcome via
        :meth:`record_success` / :meth:`record_failure`.  The
        recover-then-consume sequence runs under the breaker lock, so
        racing threads at a half-open circuit win exactly
        ``half_open_max_probes`` slots between them.
        """
        with self._lock:
            self._maybe_recover()
            if self._state == CLOSED:
                return True
            if (
                self._state == HALF_OPEN
                and self._half_open_probes < self.half_open_max_probes
            ):
                self._half_open_probes += 1
                return True
            self.total_rejections += 1
            return False

    # -- outcome recording ---------------------------------------------------

    def record_success(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._state = CLOSED
                self._last_transition_at = self._clock.now()
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            self.total_failures += 1
            if self._state == HALF_OPEN:
                self._trip()
                return
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.failure_threshold:
                self._trip()

    def _trip(self) -> None:
        self._state = OPEN
        self._opened_at = self._clock.now()
        self._last_transition_at = self._opened_at
        self._consecutive_failures = 0
        self._half_open_probes = 0
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
