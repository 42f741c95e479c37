"""Server metrics: lock-protected counters, immutable snapshots.

The aggregator ingests typed outcomes as workers produce them; a
:class:`ServerMetrics` snapshot is a frozen copy a reader can hold
while the server keeps running.  Latency percentiles use the
nearest-rank method over completed requests' end-to-end latencies
(queue wait + service, as measured on the server's clock), and the
per-stage wall-time breakdown aggregates each request's
``TraceRecorder`` output — the same numbers ``repro trace`` prints for
a single request, summed across the fleet.

Snapshots are *mergeable*: :meth:`ServerMetrics.merge` folds per-shard
snapshots into one cluster view.  Counters add exactly; percentiles
are recomputed from the pooled latency samples each snapshot carries
(sample-merge), never by averaging the per-shard percentiles — the
p95 of a hot shard and a cold shard tells you nothing about the p95 of
their union, but the pooled samples do, exactly.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from repro.serving.outcomes import Completed, Failed, Shed

#: Bound on the raw samples an aggregator retains and a
#: snapshot carries.  Without a bound, per-request history grows (and
#: is pickled across the sharding layer's process pipe) linearly with
#: total completed requests — a long-running server would degrade
#: unboundedly.  Below the cap everything is exact; past it the
#: percentiles become a deterministic approximation (see
#: :meth:`ServerMetrics.merge`) while every counter and mean stays
#: exact.
SAMPLE_CAPACITY = 4096


def nearest_rank(values: "Iterable[float]", percentile: float) -> float:
    """Nearest-rank percentile of ``values``; 0.0 for an empty list."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if not 0 < percentile <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _downsample(values: list[float]) -> tuple[float, ...]:
    """Deterministically thin ``values`` to at most ``SAMPLE_CAPACITY`` samples.

    Sorted-stride selection: the kept samples are evenly spaced ranks
    of the sorted pool, so downstream nearest-rank percentiles stay
    close to the full-pool values without carrying the full history.
    """
    if len(values) <= SAMPLE_CAPACITY:
        return tuple(values)
    ordered = sorted(values)
    step = len(ordered) / SAMPLE_CAPACITY
    last = len(ordered) - 1
    return tuple(
        ordered[min(last, int(i * step))] for i in range(SAMPLE_CAPACITY)
    )


@dataclass(frozen=True)
class ServerMetrics:
    """One immutable snapshot of the server's counters and gauges."""

    queue_depth: int
    admitted: int
    completed: int
    failed: int
    shed: dict[str, int]
    tiers: dict[str, int]
    p50_latency_s: float
    p95_latency_s: float
    mean_queue_s: float
    batches: int
    mean_batch_occupancy: float
    cache_hits: int
    cache_misses: int
    cache_evictions: int
    stage_wall_s: dict[str, float] = field(default_factory=dict)
    # -- provider-router observability (empty when the parser has no
    # router, e.g. test stubs) ----------------------------------------
    #: Per-provider outcome counters plus breaker snapshots, as plain
    #: dicts (serving never imports repro.lm.providers — ARCH006).
    providers: tuple[dict, ...] = ()
    provider_requests: int = 0
    provider_failovers: int = 0
    provider_retries: int = 0
    hedges_fired: int = 0
    hedge_wins: int = 0
    hedge_discarded: int = 0
    provider_sheds: int = 0
    #: Per-database breaker snapshots (``BreakerStats.as_dict`` form).
    database_breakers: tuple[dict, ...] = ()
    #: Raw end-to-end latency samples and queue-wait samples.  These
    #: make snapshots mergeable: the pooled samples are the ground
    #: truth the merged percentiles are recomputed from.  Plain
    #: floats, so snapshots stay picklable across the sharding layer's
    #: process boundary — and bounded (``SAMPLE_CAPACITY``), so the
    #: pipe payload does not grow with total requests served.  Below
    #: the cap these are the complete history (one latency per
    #: completed request); past it they are a deterministic subsample
    #: and percentiles become approximate, while counters and means
    #: stay exact.
    latency_samples: tuple[float, ...] = ()
    queue_wait_samples: tuple[float, ...] = ()

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    @staticmethod
    def merge(*snapshots: "ServerMetrics") -> "ServerMetrics":
        """Fold per-shard snapshots into one cluster snapshot.

        Exact for every counter (sums, dict-sums) and for the queue
        mean (weighted by each shard's completed count).  p50/p95 are
        recomputed with nearest-rank over the union of every
        snapshot's ``latency_samples`` — byte-identical to what a
        single aggregator observing all the outcomes would have
        reported, as long as every input carries its full history
        (i.e. stayed under ``SAMPLE_CAPACITY``).  Past the cap the
        inputs are already subsampled, so merged percentiles become a
        deterministic approximation; averaging per-shard percentiles
        would be *wrong*, pooling samples is not.  The merged snapshot
        carries at most ``SAMPLE_CAPACITY`` pooled samples itself, so
        repeated folds stay bounded.  Provider and breaker rows are
        concatenated (each shard owns disjoint routers and breakers),
        with gauge-like provider counters summed.
        """
        if not snapshots:
            return MetricsAggregator().snapshot()
        latencies: list[float] = []
        queue_waits: list[float] = []
        shed: dict[str, int] = {}
        tiers: dict[str, int] = {}
        stage_wall_s: dict[str, float] = {}
        providers: list[dict] = []
        database_breakers: list[dict] = []
        batches = 0
        batched_items = 0.0
        for snapshot in snapshots:
            latencies.extend(snapshot.latency_samples)
            queue_waits.extend(snapshot.queue_wait_samples)
            for reason, count in sorted(snapshot.shed.items()):
                shed[reason] = shed.get(reason, 0) + count
            for tier, count in sorted(snapshot.tiers.items()):
                tiers[tier] = tiers.get(tier, 0) + count
            for stage, wall in sorted(snapshot.stage_wall_s.items()):
                stage_wall_s[stage] = stage_wall_s.get(stage, 0.0) + wall
            providers.extend(snapshot.providers)
            database_breakers.extend(snapshot.database_breakers)
            batches += snapshot.batches
            batched_items += snapshot.mean_batch_occupancy * snapshot.batches
        completed = sum(s.completed for s in snapshots)
        # Weighted by completed counts this is exact even when the
        # carried queue_wait_samples are a capped subsample: each
        # shard's mean was computed from running totals over *all* its
        # completions.
        queued_total = sum(s.mean_queue_s * s.completed for s in snapshots)
        return ServerMetrics(
            queue_depth=sum(s.queue_depth for s in snapshots),
            admitted=sum(s.admitted for s in snapshots),
            completed=completed,
            failed=sum(s.failed for s in snapshots),
            shed=shed,
            tiers=tiers,
            p50_latency_s=nearest_rank(latencies, 50),
            p95_latency_s=nearest_rank(latencies, 95),
            mean_queue_s=(queued_total / completed if completed else 0.0),
            batches=batches,
            mean_batch_occupancy=(batched_items / batches if batches else 0.0),
            cache_hits=sum(s.cache_hits for s in snapshots),
            cache_misses=sum(s.cache_misses for s in snapshots),
            cache_evictions=sum(s.cache_evictions for s in snapshots),
            stage_wall_s=stage_wall_s,
            providers=tuple(providers),
            provider_requests=sum(s.provider_requests for s in snapshots),
            provider_failovers=sum(s.provider_failovers for s in snapshots),
            provider_retries=sum(s.provider_retries for s in snapshots),
            hedges_fired=sum(s.hedges_fired for s in snapshots),
            hedge_wins=sum(s.hedge_wins for s in snapshots),
            hedge_discarded=sum(s.hedge_discarded for s in snapshots),
            provider_sheds=shed.get("provider_shed", 0),
            database_breakers=tuple(database_breakers),
            latency_samples=_downsample(latencies),
            queue_wait_samples=_downsample(queue_waits),
        )

    def as_rows(self) -> list[dict[str, object]]:
        """Key/value rows for :func:`repro.eval.reporting.format_table`."""
        rows: list[dict[str, object]] = [
            {"metric": "queue depth", "value": self.queue_depth},
            {"metric": "admitted", "value": self.admitted},
            {"metric": "completed", "value": self.completed},
            {"metric": "failed", "value": self.failed},
            {"metric": "shed total", "value": self.shed_total},
        ]
        for reason in sorted(self.shed):
            rows.append({"metric": f"shed {reason}", "value": self.shed[reason]})
        for tier in sorted(self.tiers):
            rows.append({"metric": f"tier {tier}", "value": self.tiers[tier]})
        rows.extend(
            [
                {"metric": "p50 latency s", "value": round(self.p50_latency_s, 6)},
                {"metric": "p95 latency s", "value": round(self.p95_latency_s, 6)},
                {"metric": "mean queue s", "value": round(self.mean_queue_s, 6)},
                {"metric": "batches", "value": self.batches},
                {
                    "metric": "mean batch occupancy",
                    "value": round(self.mean_batch_occupancy, 4),
                },
                {"metric": "cache hits", "value": self.cache_hits},
                {"metric": "cache misses", "value": self.cache_misses},
                {"metric": "cache evictions", "value": self.cache_evictions},
            ]
        )
        if self.provider_requests:
            rows.extend(
                [
                    {"metric": "provider requests", "value": self.provider_requests},
                    {"metric": "provider failovers", "value": self.provider_failovers},
                    {"metric": "provider retries", "value": self.provider_retries},
                    {"metric": "hedges fired", "value": self.hedges_fired},
                    {"metric": "hedge wins", "value": self.hedge_wins},
                    {"metric": "hedge discarded", "value": self.hedge_discarded},
                    {"metric": "provider sheds", "value": self.provider_sheds},
                ]
            )
            for provider in self.providers:
                breaker = provider.get("breaker", {})
                rows.append(
                    {
                        "metric": f"provider {provider['name']}",
                        "value": (
                            f"ok={provider['successes']} "
                            f"fail={provider['failures']} "
                            f"breaker={breaker.get('state', '?')}"
                        ),
                    }
                )
        for breaker in self.database_breakers:
            rows.append(
                {
                    "metric": f"db breaker {breaker['name']}",
                    "value": (
                        f"state={breaker['state']} opens={breaker['open_count']}"
                    ),
                }
            )
        return rows


class MetricsAggregator:
    """Thread-safe accumulator the server and its workers write into.

    Counters and running totals are exact forever; the raw samples
    backing the percentiles live in rings of :data:`SAMPLE_CAPACITY`,
    so memory and snapshot size stay bounded however long the server
    runs.  Under the cap the rings hold the complete history and every
    reported number is exact; past it the percentiles reflect the most
    recent ``SAMPLE_CAPACITY`` completions.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._admitted = 0
        self._completed = 0
        self._failed = 0
        self._shed: dict[str, int] = {}
        self._tiers: dict[str, int] = {}
        self._latencies: "deque[float]" = deque(maxlen=SAMPLE_CAPACITY)
        self._queue_waits: "deque[float]" = deque(maxlen=SAMPLE_CAPACITY)
        self._queue_wait_total = 0.0
        self._batches = 0
        self._batched_items = 0
        self._stage_wall_s: dict[str, float] = {}

    def record_admitted(self) -> None:
        with self._lock:
            self._admitted += 1

    def record(self, outcome) -> None:
        """Ingest one terminal outcome."""
        with self._lock:
            if isinstance(outcome, Completed):
                self._tiers[outcome.tier] = self._tiers.get(outcome.tier, 0) + 1
                self._completed += 1
                self._latencies.append(outcome.latency_s)
                self._queue_waits.append(outcome.queue_s)
                self._queue_wait_total += outcome.queue_s
                if outcome.trace is not None:
                    for stage in outcome.trace.stages:
                        self._stage_wall_s[stage.stage] = (
                            self._stage_wall_s.get(stage.stage, 0.0)
                            + stage.wall_s
                        )
            elif isinstance(outcome, Shed):
                self._shed[outcome.status] = self._shed.get(outcome.status, 0) + 1
            elif isinstance(outcome, Failed):
                self._failed += 1
            else:
                raise TypeError(f"unknown outcome type {type(outcome).__name__}")

    def record_batch(self, size: int) -> None:
        with self._lock:
            self._batches += 1
            self._batched_items += size

    def snapshot(
        self,
        queue_depth: int = 0,
        cache_stats: "list[dict] | None" = None,
        router_stats: "dict | None" = None,
        breaker_stats: "list[dict] | None" = None,
    ) -> ServerMetrics:
        """A frozen snapshot.

        ``cache_stats`` are per-engine ``StageCache.stats``;
        ``router_stats`` is the provider router's ``stats_dict()``
        (plain data — serving never imports the providers package);
        ``breaker_stats`` are per-database ``BreakerStats.as_dict()``
        snapshots.
        """
        caches = cache_stats or []
        router = router_stats or {}
        with self._lock:
            return ServerMetrics(
                queue_depth=queue_depth,
                admitted=self._admitted,
                completed=self._completed,
                failed=self._failed,
                shed=dict(self._shed),
                tiers=dict(self._tiers),
                p50_latency_s=nearest_rank(self._latencies, 50),
                p95_latency_s=nearest_rank(self._latencies, 95),
                mean_queue_s=(
                    self._queue_wait_total / self._completed
                    if self._completed
                    else 0.0
                ),
                batches=self._batches,
                mean_batch_occupancy=(
                    self._batched_items / self._batches if self._batches else 0.0
                ),
                cache_hits=sum(int(stats["hits"]) for stats in caches),
                cache_misses=sum(int(stats["misses"]) for stats in caches),
                cache_evictions=sum(
                    int(stats.get("evictions", 0)) for stats in caches
                ),
                stage_wall_s=dict(self._stage_wall_s),
                providers=tuple(router.get("providers", ())),
                provider_requests=int(router.get("requests", 0)),
                provider_failovers=int(router.get("failovers", 0)),
                provider_retries=int(router.get("retries", 0)),
                hedges_fired=int(router.get("hedges_fired", 0)),
                hedge_wins=int(router.get("hedge_wins", 0)),
                hedge_discarded=int(router.get("hedge_discarded", 0)),
                provider_sheds=self._shed.get("provider_shed", 0),
                database_breakers=tuple(breaker_stats or ()),
                latency_samples=tuple(self._latencies),
                queue_wait_samples=tuple(self._queue_waits),
            )
