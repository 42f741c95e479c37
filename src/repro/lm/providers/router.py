"""Health-aware provider routing: retries, failover, breakers, hedging.

The :class:`ProviderRouter` is the single reliability boundary between
the inference engine and however many LM providers back it.  Per
routed request it:

1. refreshes health probes when the probe interval has elapsed;
2. orders admissible providers healthy-first, then by configured
   priority (breaker-open providers are excluded up front — if *every*
   provider is excluded, :class:`~repro.errors.AllProvidersOpenError`
   tells the serving layer to shed);
3. calls the primary under a per-provider
   :class:`~repro.reliability.CircuitBreaker` and a seeded
   :class:`~repro.reliability.RetryPolicy` — retry backoff is charged
   as simulated time, and a breaker that opens mid-retry aborts the
   budget early;
4. on exhausted retries, fails over to the next admissible provider
   (counted), repeating step 3;
5. on a *slow success* — reported latency beyond ``hedge_delay_s`` —
   fires one hedged backup call and keeps whichever result completes
   first (backup completion is ``hedge_delay_s + backup latency``);
   the loser's usable result is discarded and counted.

Determinism: providers never sleep (see
:mod:`repro.lm.providers.base`); the router computes one *effective
latency* per request from the reported latencies, backoff schedule,
and hedge arithmetic, and charges it to the injected clock with a
single ``clock.sleep``.  On a ``FakeClock`` the entire routing history
— decisions, counters, latencies — is a pure function of
``(config, seeds, call order)``, which is what the byte-stability
tests in ``tests/test_providers.py`` assert.

The router reports in the serving layer's two shapes: ``counters``,
one dict of named additive request counters, and :meth:`as_rows`, one
plain dict per provider.  The newest routing events and effective
latencies are kept in bounded deques; percentiles over the latencies
are :func:`repro.serving.metrics.nearest_rank`.  Counter updates are
guarded by a lock obtained from :func:`repro.reliability.new_lock` —
the serving layer's worker threads may share one router, and ARCH005
keeps raw ``threading`` imports out of ``lm/``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import AllProvidersOpenError, ProviderError, ProviderTimeoutError
from repro.lm.providers.base import HealthReport, Provider, ProviderResponse
from repro.reliability.breaker import CircuitBreaker
from repro.reliability.clock import Clock, SYSTEM_CLOCK
from repro.reliability.retry import RetryPolicy
from repro.reliability.sync import new_lock

#: Bounded routing-event history (oldest dropped first).
MAX_EVENTS = 512
#: Effective latencies kept in ``ProviderRouter.effective_latencies``
#: (the newest; every routed call adds one).
MAX_LATENCIES = 4096


@dataclass
class RoutedProvider:
    """One provider under management: breaker, health, counters."""

    provider: Provider
    priority: int
    breaker: CircuitBreaker
    healthy: bool = True
    last_report: HealthReport | None = None
    last_probe_at: float | None = None
    successes: int = 0
    failures: int = 0
    retries: int = 0
    hedge_calls: int = 0


@dataclass
class _Attempt:
    """Outcome of one provider's full retry budget."""

    response: ProviderResponse | None
    spent_s: float
    error: ProviderError | None
    attempted: bool  # False when the breaker rejected every admit


@dataclass
class RouteResult:
    """One routed request, fully accounted."""

    value: object
    provider: str
    effective_latency_s: float
    failovers: int
    retries: int
    hedged: bool
    hedge_won: bool


class ProviderRouter:
    """Routes ``generate``/``score`` calls across providers with failover."""

    def __init__(
        self,
        providers: list[tuple[Provider, int]] | list[Provider],
        clock: Clock | None = None,
        retry: RetryPolicy | None = None,
        hedge_delay_s: float | None = None,
        probe_interval_s: float | None = None,
        breaker_failure_threshold: int = 3,
        breaker_recovery_timeout_s: float = 5.0,
        name: str = "router",
    ):
        if not providers:
            raise ValueError("router needs at least one provider")
        if hedge_delay_s is not None and hedge_delay_s < 0:
            raise ValueError(f"hedge_delay_s must be >= 0, got {hedge_delay_s}")
        if probe_interval_s is not None and probe_interval_s < 0:
            raise ValueError(
                f"probe_interval_s must be >= 0, got {probe_interval_s}"
            )
        self.name = name
        self._clock = clock if clock is not None else SYSTEM_CLOCK
        self.retry = retry if retry is not None else RetryPolicy(max_attempts=1)
        self.hedge_delay_s = hedge_delay_s
        self.probe_interval_s = probe_interval_s
        self._lock = new_lock()
        self.entries: list[RoutedProvider] = []
        seen: set[str] = set()
        for item in providers:
            provider, priority = item if isinstance(item, tuple) else (item, 0)
            if provider.name in seen:
                raise ValueError(f"duplicate provider name {provider.name!r}")
            seen.add(provider.name)
            self.entries.append(
                RoutedProvider(
                    provider=provider,
                    priority=priority,
                    breaker=CircuitBreaker(
                        failure_threshold=breaker_failure_threshold,
                        recovery_timeout_s=breaker_recovery_timeout_s,
                        clock=self._clock,
                        name=f"provider:{provider.name}",
                    ),
                )
            )
        #: Request-level counters (lock-guarded), filed by the server as
        #: ``provider.<name>``.
        self.counters: dict[str, int] = dict.fromkeys(
            (
                "requests",
                "failovers",
                "retries",
                "hedges_fired",
                "hedge_wins",
                "hedge_discarded",
                "all_open_sheds",
            ),
            0,
        )
        self.effective_latencies: deque[float] = deque(maxlen=MAX_LATENCIES)
        self.events: deque[str] = deque(maxlen=MAX_EVENTS)

    # -- probing and selection ------------------------------------------------

    def _maybe_probe(self) -> None:
        if self.probe_interval_s is None:
            return
        now = self._clock.now()
        for entry in self.entries:
            due = (
                entry.last_probe_at is None
                or now - entry.last_probe_at >= self.probe_interval_s
            )
            if not due:
                continue
            report = entry.provider.health()
            entry.last_report = report
            entry.last_probe_at = now
            if report.healthy != entry.healthy:
                self.events.append(
                    f"probe {entry.provider.name}: "
                    f"{'healthy' if report.healthy else 'unhealthy'}"
                )
            entry.healthy = report.healthy

    def _candidates(self, op: str) -> list[RoutedProvider]:
        """Admissible providers for ``op``, healthy-first then priority."""
        supported = [
            entry for entry in self.entries if entry.provider.capabilities.supports(op)
        ]
        if not supported:
            raise ValueError(f"no configured provider supports {op!r}")
        admissible = [entry for entry in supported if entry.breaker.allow()]
        if not admissible:
            self.counters["all_open_sheds"] += 1
            self.events.append(f"{op}: all providers open")
            raise AllProvidersOpenError(
                f"router {self.name!r}: all {len(supported)} provider(s) "
                f"have open circuits for {op!r}"
            )
        return sorted(
            admissible,
            key=lambda entry: (not entry.healthy, entry.priority),
        )

    # -- calling --------------------------------------------------------------

    def _call_once(
        self, entry: RoutedProvider, op: str, payload: str
    ) -> ProviderResponse:
        if op == "generate":
            return entry.provider.generate(payload)
        return entry.provider.score(payload)

    def _call_with_retries(
        self, entry: RoutedProvider, op: str, payload: str
    ) -> _Attempt:
        """Run one provider's full retry budget; never raises."""
        spent = 0.0
        attempted = False
        error: ProviderError | None = None
        backoffs = iter(self.retry.delays())
        for attempt in range(1, self.retry.max_attempts + 1):
            if not entry.breaker.admit():
                self.events.append(
                    f"{op} {entry.provider.name}: breaker open at attempt {attempt}"
                )
                break
            attempted = True
            try:
                response = self._call_once(entry, op, payload)
            except ProviderError as exc:
                error = exc
                entry.failures += 1
                entry.breaker.record_failure()
                spent += getattr(exc, "latency_s", 0.0)
                kind = "timeout" if isinstance(exc, ProviderTimeoutError) else "fault"
                self.events.append(
                    f"{op} {entry.provider.name}: {kind} at attempt {attempt}"
                )
                if attempt < self.retry.max_attempts:
                    entry.retries += 1
                    self.counters["retries"] += 1
                    spent += next(backoffs, 0.0)
                continue
            entry.successes += 1
            entry.breaker.record_success()
            return _Attempt(
                response=response, spent_s=spent, error=None, attempted=True
            )
        return _Attempt(response=None, spent_s=spent, error=error, attempted=attempted)

    def _hedge(
        self,
        op: str,
        payload: str,
        primary: RoutedProvider,
        primary_response: ProviderResponse,
        backups: list[RoutedProvider],
    ) -> tuple[ProviderResponse, float, bool, bool]:
        """Maybe fire a hedged backup call.

        Returns ``(winner, completion_s, fired, backup_won)``.  Fires
        only when the primary's reported latency exceeds the hedge
        delay and an admissible backup exists.  The backup gets a
        single attempt (no retries — hedges are speculative).  The
        winner is whichever completes first; the loser's usable result
        is discarded and counted.
        """
        primary_completion = primary_response.latency_s
        if self.hedge_delay_s is None or primary_completion <= self.hedge_delay_s:
            return primary_response, primary_completion, False, False
        backup = next(
            (entry for entry in backups if entry.breaker.admit()), None
        )
        if backup is None:
            return primary_response, primary_completion, False, False
        self.counters["hedges_fired"] += 1
        backup.hedge_calls += 1
        try:
            backup_response = self._call_once(backup, op, payload)
        except ProviderError as exc:
            backup.failures += 1
            backup.breaker.record_failure()
            self.events.append(
                f"{op} hedge {backup.provider.name}: failed "
                f"({type(exc).__name__})"
            )
            return primary_response, primary_completion, True, False
        backup.successes += 1
        backup.breaker.record_success()
        backup_completion = self.hedge_delay_s + backup_response.latency_s
        if backup_completion < primary_completion:
            self.counters["hedge_wins"] += 1
            self.counters["hedge_discarded"] += 1  # the primary's result goes unused
            self.events.append(
                f"{op} hedge {backup.provider.name}: won "
                f"({backup_completion:.4f}s < {primary_completion:.4f}s)"
            )
            return backup_response, backup_completion, True, True
        self.counters["hedge_discarded"] += 1  # the backup's result goes unused
        self.events.append(
            f"{op} hedge {backup.provider.name}: lost "
            f"({backup_completion:.4f}s >= {primary_completion:.4f}s)"
        )
        return primary_response, primary_completion, True, False

    def route(self, op: str, payload: str) -> RouteResult:
        """Route one request; raises only ``ProviderError`` subclasses."""
        with self._lock:
            self.counters["requests"] += 1
            self._maybe_probe()
            candidates = self._candidates(op)
            spent = 0.0
            failovers = 0
            retries_before = self.counters["retries"]
            anything_attempted = False
            last_error: ProviderError | None = None
            for position, entry in enumerate(candidates):
                attempt = self._call_with_retries(entry, op, payload)
                spent += attempt.spent_s
                anything_attempted = anything_attempted or attempt.attempted
                if attempt.response is None:
                    last_error = attempt.error or last_error
                    if position + 1 < len(candidates):
                        failovers += 1
                        self.counters["failovers"] += 1
                        self.events.append(
                            f"{op}: failover {entry.provider.name} -> "
                            f"{candidates[position + 1].provider.name}"
                        )
                    continue
                winner, completion, hedge_fired, hedge_won = self._hedge(
                    op, payload, entry, attempt.response, candidates[position + 1 :]
                )
                effective = spent + completion
                self._charge(effective)
                return RouteResult(
                    value=winner.value,
                    provider=winner.provider,
                    effective_latency_s=effective,
                    failovers=failovers,
                    retries=self.counters["retries"] - retries_before,
                    hedged=hedge_fired,
                    hedge_won=hedge_won,
                )
            # Every candidate's budget is exhausted.  Time spent failing
            # is still charged — the caller waited through it.
            self._charge(spent)
            if not anything_attempted:
                self.counters["all_open_sheds"] += 1
                raise AllProvidersOpenError(
                    f"router {self.name!r}: every provider's circuit rejected "
                    f"{op!r} before any attempt"
                )
            assert last_error is not None
            raise last_error

    def _charge(self, effective_s: float) -> None:
        self.effective_latencies.append(effective_s)
        if effective_s > 0:
            self._clock.sleep(effective_s)

    # -- public operations ----------------------------------------------------

    def generate(self, prompt: str) -> str:
        return self.route("generate", prompt).value

    def score(self, text: str) -> float:
        return self.route("score", text).value

    # -- observability --------------------------------------------------------

    def as_rows(self) -> list[dict[str, object]]:
        """Per-provider table rows: ``repro providers``, the failover
        benchmark and ``ServerMetrics.providers``."""
        rows = []
        for entry in self.entries:
            breaker = entry.breaker.as_row()
            rows.append(
                {
                    "provider": entry.provider.name,
                    "priority": entry.priority,
                    "healthy": "yes" if entry.healthy else "no",
                    "breaker": breaker["state"],
                    "ok": entry.successes,
                    "fail": entry.failures,
                    "retry": entry.retries,
                    "hedge": entry.hedge_calls,
                    "opens": breaker["open_count"],
                }
            )
        return rows
