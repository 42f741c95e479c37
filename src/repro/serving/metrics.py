"""Server metrics: one bag of named additive counters, frozen snapshots.

Every component reports in two shapes: named additive counters and
per-entity rows (plain dicts).  The aggregator counts typed outcomes
under dotted names (``completed``, ``shed.<status>``, ``tier.<tier>``,
``queue_s``, ``batches``, ``stage_wall_s.<stage>``); a snapshot adds
the counters the server reads off its caches and provider router
(``cache.hits``, ``provider.requests``, ...).  A :class:`ServerMetrics`
snapshot is a frozen copy of those counters plus the two bounded
sample rings, the provider router's rows and the per-database breaker
rows; every attribute a reader asks for is derived from them.
Percentiles are nearest-rank over end-to-end latencies (queue wait +
service on the server's clock); the stage counters sum the
``TraceRecorder`` walls of each delivered outcome's trace.

Snapshots merge: counters add exactly, rows concatenate, and
percentiles are recomputed from the pooled samples — never averaged
per shard, since the p95 of a hot and a cold shard says nothing about
the p95 of their union.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

from repro.serving.outcomes import Completed, Failed, Shed

#: Bound on the raw samples an aggregator retains and a snapshot
#: carries (and pickles across the shard pipe).  Below it every number
#: is exact; past it percentiles become a deterministic approximation
#: while every counter and mean stays exact.
SAMPLE_CAPACITY = 4096

#: Counters a request's outcome alone determines (names or ``prefix.``),
#: stage walls included, since a ``Completed`` keeps its trace on both
#: shard transports.  A shard router counts these from the outcomes it
#: delivers and takes only the other counters from its workers
#: (:meth:`ServerMetrics.without_outcomes`).
OUTCOME_COUNTERS = (
    "admitted", "completed", "failed", "queue_s", "shed.", "stage_wall_s.", "tier."
)


def nearest_rank(values: "Iterable[float]", percentile: float) -> float:
    """Nearest-rank percentile of ``values``; 0.0 for an empty list."""
    if not 0 < percentile <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _downsample(values: list[float]) -> tuple[float, ...]:
    """At most ``SAMPLE_CAPACITY`` evenly spaced ranks of ``values``, so
    nearest-rank percentiles stay close to the full pool's."""
    if len(values) <= SAMPLE_CAPACITY:
        return tuple(values)
    ordered, step = sorted(values), len(values) / SAMPLE_CAPACITY
    return tuple(ordered[int(i * step)] for i in range(SAMPLE_CAPACITY))


def _add(counters: dict[str, float], name: str, amount: float = 1) -> None:
    counters[name] = counters.get(name, 0) + amount


def _counter(name: str) -> property:
    return property(lambda self: self.counters.get(name, 0))


def _family(prefix: str) -> property:
    """The ``<prefix><key>`` counters as ``{key: value}``, in counter order."""
    return property(
        lambda self: {
            name[len(prefix) :]: value
            for name, value in self.counters.items()
            if name.startswith(prefix)
        }
    )


#: ``as_rows`` labels for the provider counters (shown once any routed).
_PROVIDER_ROWS = (
    ("provider requests", "provider.requests"),
    ("provider failovers", "provider.failovers"),
    ("provider retries", "provider.retries"),
    ("hedges fired", "provider.hedges_fired"),
    ("hedge wins", "provider.hedge_wins"),
    ("hedge discarded", "provider.hedge_discarded"),
    ("provider sheds", "shed.provider_shed"),
)


@dataclass(frozen=True)
class ServerMetrics:
    """One immutable snapshot: named counters, samples, rows, breakers."""

    counters: Mapping[str, float] = field(default_factory=dict)
    #: End-to-end latency and queue-wait samples, at most
    #: ``SAMPLE_CAPACITY`` each: the complete history below the cap, a
    #: deterministic subsample past it.
    latency_samples: tuple[float, ...] = ()
    queue_wait_samples: tuple[float, ...] = ()
    #: The provider router's ``as_rows()``, plain dicts (serving never
    #: imports repro.lm.providers — ARCH006); empty without a router.
    #: A shard router adds each row's ``worker`` id.
    providers: tuple[dict, ...] = ()
    #: One ``CircuitBreaker.as_row()`` per database the server has seen.
    database_breakers: tuple[dict, ...] = ()

    queue_depth = _counter("queue_depth")
    admitted = _counter("admitted")
    completed = _counter("completed")
    failed = _counter("failed")
    batches = _counter("batches")
    cache_hits = _counter("cache.hits")
    cache_misses = _counter("cache.misses")
    cache_evictions = _counter("cache.evictions")
    provider_requests = _counter("provider.requests")
    provider_failovers = _counter("provider.failovers")
    provider_retries = _counter("provider.retries")
    hedges_fired = _counter("provider.hedges_fired")
    hedge_wins = _counter("provider.hedge_wins")
    hedge_discarded = _counter("provider.hedge_discarded")
    provider_sheds = _counter("shed.provider_shed")
    shed = _family("shed.")
    tiers = _family("tier.")
    stage_wall_s = _family("stage_wall_s.")

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    @property
    def p50_latency_s(self) -> float:
        return nearest_rank(self.latency_samples, 50)

    @property
    def p95_latency_s(self) -> float:
        return nearest_rank(self.latency_samples, 95)

    @property
    def mean_queue_s(self) -> float:
        completed = self.completed
        return self.counters.get("queue_s", 0.0) / completed if completed else 0.0

    @property
    def mean_batch_occupancy(self) -> float:
        batches = self.batches
        return self.counters.get("batched", 0) / batches if batches else 0.0

    @staticmethod
    def merge(*snapshots: "ServerMetrics") -> "ServerMetrics":
        """Fold per-shard snapshots into one cluster snapshot.

        Counters add, so every mean derived from them stays exact.
        p50/p95 come from the pooled samples: byte-identical to one
        aggregator seeing every outcome while each input is under
        ``SAMPLE_CAPACITY``, a deterministic approximation past it.
        The result carries at most ``SAMPLE_CAPACITY`` samples, so
        repeated folds stay bounded.  Each shard owns disjoint
        provider routers and breakers, so their rows concatenate.
        """
        counters: dict[str, float] = {}
        for snapshot in snapshots:
            for name, value in sorted(snapshot.counters.items()):
                _add(counters, name, value)
        return ServerMetrics(
            counters,
            _downsample([x for m in snapshots for x in m.latency_samples]),
            _downsample([x for m in snapshots for x in m.queue_wait_samples]),
            tuple(row for m in snapshots for row in m.providers),
            tuple(breaker for m in snapshots for breaker in m.database_breakers),
        )

    def without_outcomes(self) -> "ServerMetrics":
        """Every counter but the :data:`OUTCOME_COUNTERS`, with the
        provider rows and breakers and without the samples."""
        rest = {
            name: value
            for name, value in self.counters.items()
            if not name.startswith(OUTCOME_COUNTERS)
        }
        return replace(self, counters=rest, latency_samples=(), queue_wait_samples=())

    def as_rows(self) -> list[dict[str, object]]:
        """Key/value rows for :func:`repro.eval.reporting.format_table`."""
        rows: list[tuple[str, object]] = [
            ("queue depth", self.queue_depth),
            ("admitted", self.admitted),
            ("completed", self.completed),
            ("failed", self.failed),
            ("shed total", self.shed_total),
        ]
        rows += [(f"shed {reason}", n) for reason, n in sorted(self.shed.items())]
        rows += [(f"tier {tier}", n) for tier, n in sorted(self.tiers.items())]
        rows += [
            ("p50 latency s", round(self.p50_latency_s, 6)),
            ("p95 latency s", round(self.p95_latency_s, 6)),
            ("mean queue s", round(self.mean_queue_s, 6)),
            ("batches", self.batches),
            ("mean batch occupancy", round(self.mean_batch_occupancy, 4)),
            ("cache hits", self.cache_hits),
            ("cache misses", self.cache_misses),
            ("cache evictions", self.cache_evictions),
        ]
        if self.provider_requests:
            rows += [
                (label, self.counters.get(name, 0)) for label, name in _PROVIDER_ROWS
            ]
            rows += [
                (
                    f"provider {p['worker']} {p['provider']}"
                    if "worker" in p
                    else f"provider {p['provider']}",
                    f"ok={p['ok']} fail={p['fail']} breaker={p['breaker']}",
                )
                for p in self.providers
            ]
        rows += [
            (
                f"db breaker {b['name']}",
                f"state={b['state']} opens={b['open_count']}",
            )
            for b in self.database_breakers
        ]
        return [{"metric": metric, "value": value} for metric, value in rows]


class MetricsAggregator:
    """Thread-safe accumulator: one counter mapping and two sample rings.

    Counters are exact forever; the rings keep the most recent
    :data:`SAMPLE_CAPACITY` completions, so memory and snapshot size
    stay bounded however long the server runs.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._latencies: "deque[float]" = deque(maxlen=SAMPLE_CAPACITY)
        self._queue_waits: "deque[float]" = deque(maxlen=SAMPLE_CAPACITY)

    def record_admitted(self) -> None:
        with self._lock:
            _add(self._counters, "admitted")

    def record(self, outcome) -> None:
        """Ingest one terminal outcome."""
        counters = self._counters
        get = counters.get
        with self._lock:
            if isinstance(outcome, Completed):  # the hot path, updated inline
                tier = "tier." + outcome.tier
                counters[tier] = get(tier, 0) + 1
                counters["completed"] = get("completed", 0) + 1
                counters["queue_s"] = get("queue_s", 0) + outcome.queue_s
                self._latencies.append(outcome.latency_s)
                self._queue_waits.append(outcome.queue_s)
                if outcome.trace is not None:
                    for stage in outcome.trace.stages:
                        name = "stage_wall_s." + stage.stage
                        counters[name] = get(name, 0) + stage.wall_s
            elif isinstance(outcome, Shed):
                _add(counters, "shed." + outcome.status)
            elif isinstance(outcome, Failed):
                _add(counters, "failed")
            else:
                raise TypeError(f"unknown outcome type {type(outcome).__name__}")

    def record_batch(self, size: int) -> None:
        with self._lock:
            _add(self._counters, "batches")
            _add(self._counters, "batched", size)

    def snapshot(
        self,
        queue_depth: int = 0,
        counters: "Iterable[tuple[str, float]]" = (),
        providers: "Iterable[dict]" = (),
        breakers: "Iterable[dict]" = (),
    ) -> ServerMetrics:
        """A frozen snapshot: the aggregator's counters plus each
        ``(name, amount)`` of ``counters`` added in, with the provider
        and database-breaker rows as given."""
        with self._lock:
            totals = dict(self._counters)
            latencies, queue_waits = tuple(self._latencies), tuple(self._queue_waits)
        totals["queue_depth"] = queue_depth
        for name, amount in counters:
            _add(totals, name, amount)
        return ServerMetrics(
            totals, latencies, queue_waits, tuple(providers), tuple(breakers)
        )
