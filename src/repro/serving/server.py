"""The serving front-end over the staged inference engine.

One :class:`Server` owns the admission path (per-tenant token buckets,
the bounded queue), the micro-batch scheduler with its watermark
degradation ladder, per-database execution state (one warm ``Engine``
+ bounded ``StageCache`` and one ``CircuitBreaker`` per database), and
the metrics aggregator.  It is deliberately synchronous at its core:
:meth:`submit` admits or sheds, :meth:`step` executes one batch, and
:meth:`drain` loops ``step`` until empty.  In-process,
:func:`repro.serving.loadgen.replay` drives it; under the shard router,
each worker's message loop does.
Every timing decision reads the injectable Clock, so the whole server
runs deterministically on a FakeClock.

Overload behaviour, composed from the reliability layer:

- queue full → typed ``Overloaded`` outcome at submit;
- token bucket empty → ``RateLimited`` at submit;
- deadline expired while queued → ``DeadlineShed`` at batch formation,
  without executing;
- breaker open for the database → ``BreakerShed`` without executing;
- queue depth past the watermarks → batches run at ``skeleton`` or
  ``sentinel`` effort (the PR-1 degradation tiers) instead of the full
  beam pipeline.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.core.ranking import SENTINEL_SQL
from repro.db.backends import create_backend
from repro.engine import StageCache
from repro.errors import (
    AllProvidersOpenError,
    DeadlineExceededError,
    ReproError,
    ServingError,
)
from repro.reliability.breaker import CircuitBreaker
from repro.reliability.clock import Clock, SYSTEM_CLOCK
from repro.reliability.deadline import Deadline, ExecutionGuard
from repro.serving.metrics import MetricsAggregator, ServerMetrics
from repro.serving.outcomes import (
    BreakerShed,
    Completed,
    DeadlineShed,
    Failed,
    Overloaded,
    ProviderShed,
    RateLimited,
    ServeRequest,
)
from repro.serving.queue import AdmissionQueue
from repro.serving.ratelimit import TokenBucket
from repro.serving.scheduler import (
    Batch,
    DegradationLadder,
    MicroBatchScheduler,
    QueuedRequest,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.backends.sqlite import Database

#: LRU bound for each per-database engine's StageCache.
CACHE_CAPACITY = 256


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs for one server instance."""

    queue_capacity: int = 64
    batch_size: int = 4
    skeleton_watermark: int = 8
    sentinel_watermark: int = 24
    #: Tokens per second per tenant; ``None`` disables rate limiting.
    rate_per_tenant: float | None = None
    burst_per_tenant: float = 16.0
    #: Applied when a request carries no deadline; ``None`` = unbounded.
    default_deadline_s: float | None = None
    breaker_failure_threshold: int = 3
    breaker_recovery_s: float = 5.0
    #: Execution backend every request's database is adapted into
    #: (:func:`repro.db.backends.create_backend`); ``"sqlite"`` is the
    #: identity and serves the reference databases untouched.
    backend: str = "sqlite"

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


class Server:
    """Admission control + micro-batched execution over one parser.

    ``databases`` maps ``db_id`` to the Database each request names.
    ``service_model`` (optional, duck-typed ``cost(tier) -> float``)
    charges simulated service time on the clock before each execution —
    the loadgen uses it to make queueing dynamics reproducible on a
    FakeClock without real inference cost.
    """

    def __init__(
        self,
        parser,
        databases: "Mapping[str, Database]",
        config: ServerConfig | None = None,
        clock: Clock | None = None,
        service_model=None,
    ):
        self.parser = parser
        self.config = config or ServerConfig()
        # Adapt every database into the configured execution backend at
        # construction time (an unknown backend fails fast here); the
        # default "sqlite" factory is the identity.
        self.databases = {
            db_id: create_backend(self.config.backend, database)
            for db_id, database in databases.items()
        }
        self.clock = clock if clock is not None else SYSTEM_CLOCK
        self.service_model = service_model
        self.queue = AdmissionQueue(self.config.queue_capacity)
        self.scheduler = MicroBatchScheduler(
            self.queue,
            DegradationLadder(
                skeleton_watermark=self.config.skeleton_watermark,
                sentinel_watermark=self.config.sentinel_watermark,
            ),
            batch_size=self.config.batch_size,
        )
        self.metrics_aggregator = MetricsAggregator()
        self._engines: dict[str, object] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        self._buckets: dict[str, TokenBucket] = {}
        self._db_locks: dict[str, threading.Lock] = {}
        #: guards the resource dicts above (creation races between workers)
        self._resources_lock = threading.Lock()

    # -- admission -----------------------------------------------------------

    def submit(self, request: ServeRequest):
        """Admit ``request`` or shed it immediately.

        Returns ``None`` when the request was enqueued (its outcome
        arrives from a later :meth:`step`), or the typed shed/failure
        outcome when it never entered the queue.
        """
        if request.db_id not in self.databases:
            outcome = Failed(
                request=request,
                error=f"unknown database {request.db_id!r}",
                latency_s=0.0,
            )
            self.metrics_aggregator.record(outcome)
            return outcome
        if self.config.rate_per_tenant is not None:
            bucket = self._bucket_for(request.tenant)
            if not bucket.try_take():
                outcome = RateLimited(
                    request=request,
                    reason=f"tenant {request.tenant!r} exceeded "
                    f"{self.config.rate_per_tenant}/s",
                )
                self.metrics_aggregator.record(outcome)
                return outcome
        budget = (
            request.deadline_s
            if request.deadline_s is not None
            else self.config.default_deadline_s
        )
        deadline = (
            Deadline.after(budget, clock=self.clock) if budget is not None else None
        )
        item = QueuedRequest(
            request=request, enqueued_at=self.clock.now(), deadline=deadline
        )
        if not self.queue.offer(item):
            outcome = Overloaded(
                request=request,
                reason=f"admission queue full ({self.config.queue_capacity})",
            )
            self.metrics_aggregator.record(outcome)
            return outcome
        self.metrics_aggregator.record_admitted()
        return None

    # -- execution -----------------------------------------------------------

    def step(self) -> list:
        """Execute one micro-batch; ``[]`` when the queue is empty."""
        batch = self.scheduler.next_batch()
        if batch is None:
            return []
        return self._execute_batch(batch)

    def has_work(self) -> bool:
        """Anything queued?"""
        return self.queue.depth > 0

    def next_due(self) -> float | None:
        """When :meth:`step` must run again: now while work is queued."""
        return self.clock.now() if self.queue.depth > 0 else None

    def drain(self) -> list:
        """Synchronously execute batches until the queue is empty."""
        outcomes: list = []
        while True:
            batch_outcomes = self.step()
            if not batch_outcomes and self.queue.depth == 0:
                return outcomes
            outcomes.extend(batch_outcomes)

    def _execute_batch(self, batch: Batch) -> list:
        self.metrics_aggregator.record_batch(len(batch))
        lock = self._db_lock_for(batch.db_id)
        outcomes = []
        # One database's batches run serialized: the warm engine and its
        # StageCache are not safe for concurrent stages; different
        # databases proceed in parallel on other workers.
        with lock:
            engine = self._engine_for(batch.db_id)
            breaker = self._breaker_for(batch.db_id)
            for item in batch.items:
                # Holding the db lock across execution (service-model
                # sleeps, provider generate) IS the serialization this
                # method exists to provide — per-database batches must
                # not interleave on a shared warm engine.
                outcome = self._execute_one(item, batch.tier, engine, breaker)  # staticcheck: disable=LOCK001
                self.metrics_aggregator.record(outcome)
                outcomes.append(outcome)
        return outcomes

    def _execute_one(self, item: QueuedRequest, tier: str, engine, breaker):
        request = item.request
        queue_s = self.clock.now() - item.enqueued_at
        if item.deadline is not None and item.deadline.expired():
            return DeadlineShed(
                request=request,
                reason=f"deadline expired after {queue_s:.3f}s in queue",
            )
        if tier == "sentinel":
            # Cheapest rung: answer without touching the engine, the
            # database, or the breaker.
            if self.service_model is not None:
                self.clock.sleep(self.service_model.cost("sentinel"))
            return Completed(
                request=request,
                sql=SENTINEL_SQL,
                tier="sentinel",
                latency_s=self.clock.now() - item.enqueued_at,
                queue_s=queue_s,
                trace=None,
            )
        if not breaker.admit():
            return BreakerShed(
                request=request,
                reason=f"circuit open for database {request.db_id!r}",
            )
        database = self.databases[request.db_id]
        if self.service_model is not None:
            self.clock.sleep(self.service_model.cost(tier))
        if item.deadline is not None and item.deadline.expired():
            # The service charge consumed the budget before execution
            # started — shed, and release the breaker probe cleanly.
            breaker.record_success()
            return DeadlineShed(
                request=request,
                reason="deadline expired before execution started",
            )
        # The progress-handler guard is a SQLite mechanism; backends
        # without the handler stack enforce deadlines inside their own
        # execute() and queue-time expiry is still checked above.
        guard = (
            ExecutionGuard(database, item.deadline)
            if item.deadline is not None
            and hasattr(database, "_push_progress_handler")
            else nullcontext()
        )
        try:
            with guard:
                result = self.parser.generate(
                    request.question, database, engine=engine, effort=tier
                )
        except DeadlineExceededError as exc:
            # Took too long *while executing*: counts against the
            # database's health, unlike queue-time expiry above.
            breaker.record_failure()
            return Failed(
                request=request,
                error=f"{type(exc).__name__}: {exc}",
                latency_s=self.clock.now() - item.enqueued_at,
            )
        except AllProvidersOpenError as exc:
            # No LM provider could take the call — the database did
            # nothing wrong, so release its breaker probe cleanly and
            # shed instead of failing.
            breaker.record_success()
            return ProviderShed(request=request, reason=str(exc))
        except ReproError as exc:
            breaker.record_failure()
            return Failed(
                request=request,
                error=f"{type(exc).__name__}: {exc}",
                latency_s=self.clock.now() - item.enqueued_at,
            )
        breaker.record_success()
        return Completed(
            request=request,
            sql=result.sql,
            tier=result.tier,
            latency_s=self.clock.now() - item.enqueued_at,
            queue_s=queue_s,
            trace=getattr(result, "trace", None),
        )

    # -- warm / drain handoff (sharding support) -----------------------------

    def warm(self, db_id: str) -> None:
        """Eagerly build the per-database execution state for ``db_id``.

        The sharding layer's rebalance protocol calls this on the new
        shard owner before the map swap, so the first post-swap request
        lands on a warm engine, breaker, and lock instead of paying the
        cold build inside its own latency.
        """
        if db_id not in self.databases:
            raise ServingError(f"cannot warm unknown database {db_id!r}")
        self._engine_for(db_id)
        self._breaker_for(db_id)
        self._db_lock_for(db_id)

    def handoff(self, db_id: str):
        """Release and return the warm engine for ``db_id`` (or ``None``).

        The old shard owner gives up its engine after draining; an
        inline-transport peer can :meth:`adopt` it, keeping the stage
        cache warm across the ownership change.  The breaker stays
        behind — its failure history describes *this* worker's view of
        the database and is folded into metrics instead of migrating.
        """
        with self._resources_lock:
            return self._engines.pop(db_id, None)

    def adopt(self, db_id: str, engine) -> None:
        """Install a handed-off warm engine for ``db_id``.

        If this server already built its own engine for the database,
        the warmer of the two caches wins by absorbing the other's
        entries (see :meth:`repro.engine.StageCache.absorb`).
        """
        if engine is None:
            return
        with self._resources_lock:
            existing = self._engines.get(db_id)
            if existing is None:
                self._engines[db_id] = engine
                return
            mine = getattr(existing, "cache", None)
            theirs = getattr(engine, "cache", None)
            if mine is not None and theirs is not None:
                mine.absorb(theirs)

    # -- per-resource state --------------------------------------------------

    def _engine_for(self, db_id: str):
        with self._resources_lock:
            engine = self._engines.get(db_id)
            if engine is None and hasattr(self.parser, "build_engine"):
                engine = self._engines[db_id] = self.parser.build_engine(
                    cache=StageCache(capacity=CACHE_CAPACITY)
                )
            return engine

    def _breaker_for(self, db_id: str) -> CircuitBreaker:
        with self._resources_lock:
            breaker = self._breakers.get(db_id)
            if breaker is None:
                breaker = self._breakers[db_id] = CircuitBreaker(
                    failure_threshold=self.config.breaker_failure_threshold,
                    recovery_timeout_s=self.config.breaker_recovery_s,
                    clock=self.clock,
                    name=db_id,
                )
            return breaker

    def _bucket_for(self, tenant: str) -> TokenBucket:
        with self._resources_lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets[tenant] = TokenBucket(
                    rate=self.config.rate_per_tenant,
                    burst=self.config.burst_per_tenant,
                    clock=self.clock,
                )
            return bucket

    def _db_lock_for(self, db_id: str) -> threading.Lock:
        with self._resources_lock:
            lock = self._db_locks.get(db_id)
            if lock is None:
                lock = self._db_locks[db_id] = threading.Lock()
            return lock

    # -- observability -------------------------------------------------------

    def metrics(self) -> ServerMetrics:
        """A frozen snapshot of counters, latencies, and cache traffic.

        Provider-router statistics come in as plain dicts via the
        parser's duck-typed ``router.stats_dict()`` — serving never
        imports ``repro.lm.providers`` (ARCH006); stub parsers without
        a router simply report no provider rows.
        """
        with self._resources_lock:
            cache_stats = [
                engine.cache.stats
                for engine in self._engines.values()
                if getattr(engine, "cache", None) is not None
            ]
            breaker_stats = [
                breaker.stats.as_dict() for breaker in self._breakers.values()
            ]
        router = getattr(self.parser, "router", None)
        router_stats = router.stats_dict() if router is not None else None
        return self.metrics_aggregator.snapshot(
            queue_depth=self.queue.depth,
            cache_stats=cache_stats,
            router_stats=router_stats,
            breaker_stats=breaker_stats,
        )
