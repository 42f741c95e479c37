"""Concurrent serving layer (``-m serving``).

Every scheduler/shedding scenario runs on a :class:`FakeClock` with
zero wall-clock sleeps: deadline expiry, watermark crossings, and
queueing dynamics are all driven by explicit ``clock.advance`` /
simulated service charges.  Only the race tests spawn real threads
(over a stub parser, so they finish in milliseconds).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from repro.core.ranking import SENTINEL_SQL
from repro.engine import StageCache
from repro.errors import GenerationError
from repro.reliability.clock import FakeClock
from repro.serving import (
    AdmissionQueue,
    BreakerShed,
    Completed,
    DeadlineShed,
    DegradationLadder,
    Failed,
    InlineWorkerHandle,
    MetricsAggregator,
    Overloaded,
    RateLimited,
    ServeRequest,
    Server,
    ServerConfig,
    ServiceModel,
    ShardMap,
    ShardRouter,
    TokenBucket,
    nearest_rank,
    poisson_workload,
    run_loadgen,
)

pytestmark = pytest.mark.serving


# -- stubs --------------------------------------------------------------------


class StubDatabase:
    """Progress-handler protocol only — enough for ExecutionGuard."""

    def _push_progress_handler(self, handler, steps):
        pass

    def _pop_progress_handler(self):
        pass


@dataclass
class StubResult:
    sql: str
    tier: str
    trace: object = None


@dataclass
class StubParser:
    """Deterministic fake parser recording every generate() call."""

    calls: list = field(default_factory=list)
    fail_db_ids: frozenset = frozenset()

    def generate(self, question, database, engine=None, effort="full"):
        db_id = getattr(database, "db_id", "?")
        self.calls.append((question, db_id, effort))
        if db_id in self.fail_db_ids:
            raise GenerationError(f"injected failure for {db_id}")
        tier = "beam" if effort == "full" else "skeleton"
        return StubResult(sql=f"SELECT 1 /* {question} */", tier=tier)


@dataclass
class NamedDb(StubDatabase):
    db_id: str = "db"


def _server(clock, databases=None, parser=None, **config_kwargs):
    databases = databases or {"alpha": NamedDb("alpha"), "beta": NamedDb("beta")}
    return Server(
        parser if parser is not None else StubParser(),
        databases,
        config=ServerConfig(**config_kwargs),
        clock=clock,
    )


def _request(i, db_id="alpha", **kwargs):
    return ServeRequest(
        request_id=f"r{i}", question=f"question {i}", db_id=db_id, **kwargs
    )


# -- admission queue and rate limiting ---------------------------------------


class TestAdmissionQueue:
    def test_offer_bounded(self):
        queue = AdmissionQueue(2)
        assert queue.offer("a") and queue.offer("b")
        assert not queue.offer("c")
        assert queue.depth == 2

    def test_pop_group_takes_same_key_preserving_order(self):
        queue = AdmissionQueue(8)
        for item in ("a1", "b1", "a2", "c1", "a3"):
            queue.offer(item)
        group = queue.pop_group(3, key_fn=lambda item: item[0])
        assert group == ["a1", "a2", "a3"]
        # the untaken items keep their arrival order
        assert queue.pop_group(4, key_fn=lambda item: item[0]) == ["b1"]
        assert queue.pop_group(4, key_fn=lambda item: item[0]) == ["c1"]

    def test_pop_group_respects_max_size(self):
        queue = AdmissionQueue(8)
        for index in range(5):
            queue.offer(f"a{index}")
        assert len(queue.pop_group(2, key_fn=lambda item: "a")) == 2
        assert queue.depth == 3

    def test_pop_group_atomic_under_racing_consumers(self):
        # Mirrors the breaker half-open race test: consumers lined up
        # on a barrier must never split one key's contiguous batch,
        # lose an item, or pop one twice.
        import threading

        queue = AdmissionQueue(64)
        items = [(f"db{index % 2}", index) for index in range(32)]
        for item in items:
            assert queue.offer(item)

        n_threads = 8
        barrier = threading.Barrier(n_threads)
        groups: list[list] = []
        groups_lock = threading.Lock()

        def race():
            barrier.wait()
            while True:
                group = queue.pop_group(4, key_fn=lambda item: item[0])
                if not group:
                    return
                with groups_lock:
                    groups.append(group)

        threads = [threading.Thread(target=race) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        popped = [item for group in groups for item in group]
        # exactly-once: nothing lost, nothing duplicated
        assert sorted(popped, key=lambda item: item[1]) == items
        for group in groups:
            # atomicity: one database per group, arrival order kept
            assert len({key for key, _ in group}) == 1
            sequence = [index for _, index in group]
            assert sequence == sorted(sequence)

    def test_deadline_expiry_shedding_under_concurrent_producers(self):
        # Producers race submissions through admission while holding
        # short deadlines; advancing the clock past them must shed
        # every queued request exactly once — no outcome lost to the
        # producer race, none resolved twice.
        import threading

        clock = FakeClock()
        server = _server(clock, queue_capacity=64)
        n_threads, per_thread = 8, 4
        barrier = threading.Barrier(n_threads)
        immediate: list = []
        immediate_lock = threading.Lock()

        def produce(thread_index: int):
            barrier.wait()
            for j in range(per_thread):
                outcome = server.submit(
                    _request(f"{thread_index}-{j}", deadline_s=0.5)
                )
                if outcome is not None:
                    with immediate_lock:
                        immediate.append(outcome)

        threads = [
            threading.Thread(target=produce, args=(index,))
            for index in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total = n_threads * per_thread
        assert server.queue.depth + len(immediate) == total
        clock.advance(1.0)  # every queued deadline expires
        drained = server.drain()
        outcomes = immediate + drained
        assert len(outcomes) == total
        assert len({o.request.request_id for o in outcomes}) == total
        assert all(isinstance(o, DeadlineShed) for o in drained)
        assert server.queue.depth == 0


class TestTokenBucket:
    def test_burst_then_refill_on_fake_clock(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2, clock=clock)
        assert bucket.try_take() and bucket.try_take()
        assert not bucket.try_take()
        clock.advance(1.0)
        assert bucket.try_take()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=3, clock=clock)
        clock.advance(100.0)
        assert bucket.available == pytest.approx(3.0)


# -- scheduler ----------------------------------------------------------------


class TestDegradationLadder:
    def test_watermark_tier_selection(self):
        ladder = DegradationLadder(skeleton_watermark=4, sentinel_watermark=10)
        assert ladder.tier_for(0) == "full"
        assert ladder.tier_for(3) == "full"
        assert ladder.tier_for(4) == "skeleton"
        assert ladder.tier_for(9) == "skeleton"
        assert ladder.tier_for(10) == "sentinel"
        assert ladder.tier_for(500) == "sentinel"

    def test_invalid_watermarks_rejected(self):
        with pytest.raises(ValueError):
            DegradationLadder(skeleton_watermark=0, sentinel_watermark=5)
        with pytest.raises(ValueError):
            DegradationLadder(skeleton_watermark=6, sentinel_watermark=5)


class TestBatchGrouping:
    def test_batches_group_by_database(self):
        clock = FakeClock()
        parser = StubParser()
        server = _server(clock, parser=parser, batch_size=4)
        for index, db_id in enumerate(["alpha", "beta", "alpha", "beta", "alpha"]):
            assert server.submit(_request(index, db_id)) is None

        first = server.step()
        # oldest request is alpha, so the first batch is all three alphas
        assert [outcome.request.db_id for outcome in first] == ["alpha"] * 3
        assert {call[1] for call in parser.calls} == {"alpha"}

        second = server.step()
        assert [outcome.request.db_id for outcome in second] == ["beta"] * 2
        assert all(isinstance(outcome, Completed) for outcome in first + second)

    def test_batch_size_caps_group(self):
        clock = FakeClock()
        server = _server(clock, batch_size=2)
        for index in range(5):
            server.submit(_request(index))
        assert len(server.step()) == 2
        assert server.queue.depth == 3


# -- shedding -----------------------------------------------------------------


class TestShedding:
    def test_queue_full_sheds_overloaded_and_never_deadlocks(self):
        clock = FakeClock()
        server = _server(clock, queue_capacity=2, batch_size=2)
        outcomes = [server.submit(_request(index)) for index in range(5)]
        immediate = [outcome for outcome in outcomes if outcome is not None]
        assert len(immediate) == 3
        assert all(isinstance(outcome, Overloaded) for outcome in immediate)
        assert all(outcome.status == "overloaded" for outcome in immediate)
        # the queue still drains to empty — bounded, no deadlock
        drained = server.drain()
        assert len(drained) == 2
        assert server.queue.depth == 0
        metrics = server.metrics()
        assert metrics.admitted == 2
        assert metrics.shed == {"overloaded": 3}

    def test_deadline_expired_in_queue_sheds_without_executing(self):
        clock = FakeClock()
        parser = StubParser()
        server = _server(clock, parser=parser)
        assert server.submit(_request(0, deadline_s=1.0)) is None
        clock.advance(2.0)  # expires while queued
        (outcome,) = server.step()
        assert isinstance(outcome, DeadlineShed)
        assert parser.calls == []  # shed, not executed

    def test_rate_limit_sheds_per_tenant(self):
        clock = FakeClock()
        server = _server(
            clock, rate_per_tenant=1.0, burst_per_tenant=1.0
        )
        assert server.submit(_request(0, tenant="t1")) is None
        second = server.submit(_request(1, tenant="t1"))
        assert isinstance(second, RateLimited)
        # a different tenant has its own bucket
        assert server.submit(_request(2, tenant="t2")) is None

    def test_breaker_open_database_short_circuits(self):
        clock = FakeClock()
        parser = StubParser(fail_db_ids=frozenset({"alpha"}))
        server = _server(
            clock, parser=parser, batch_size=4, breaker_failure_threshold=1
        )
        for index in range(3):
            server.submit(_request(index, "alpha"))
        outcomes = server.step()
        assert isinstance(outcomes[0], Failed)  # trips the breaker
        assert all(isinstance(outcome, BreakerShed) for outcome in outcomes[1:])
        metrics = server.metrics()
        assert metrics.failed == 1
        assert metrics.shed == {"breaker_shed": 2}

    def test_unknown_database_fails_fast(self):
        clock = FakeClock()
        server = _server(clock)
        outcome = server.submit(_request(0, "nonexistent"))
        assert isinstance(outcome, Failed)
        assert "nonexistent" in outcome.error


class TestWatermarkDegradation:
    def test_deep_queue_switches_tiers(self):
        clock = FakeClock()
        parser = StubParser()
        server = _server(
            clock,
            parser=parser,
            queue_capacity=32,
            batch_size=4,
            skeleton_watermark=2,
            sentinel_watermark=6,
        )
        for index in range(7):
            server.submit(_request(index))
        sentinel_batch = server.step()  # depth 7 >= 6 -> sentinel
        assert all(outcome.tier == "sentinel" for outcome in sentinel_batch)
        assert all(outcome.sql == SENTINEL_SQL for outcome in sentinel_batch)
        assert parser.calls == []  # sentinel answers bypass the engine
        skeleton_batch = server.step()  # depth 3 >= 2 -> skeleton
        assert all(outcome.tier == "skeleton" for outcome in skeleton_batch)
        assert {call[2] for call in parser.calls} == {"skeleton"}


# -- metrics ------------------------------------------------------------------


class TestMetrics:
    def test_nearest_rank_percentiles(self):
        values = [0.4, 0.1, 0.3, 0.2]
        assert nearest_rank(values, 50) == 0.2
        assert nearest_rank(values, 95) == 0.4
        assert nearest_rank([], 50) == 0.0
        with pytest.raises(ValueError):
            nearest_rank(values, 0)
        with pytest.raises(ValueError):  # checked before the empty shortcut
            nearest_rank([], 150)

    def test_snapshot_arithmetic(self):
        aggregator = MetricsAggregator()
        for _ in range(5):
            aggregator.record_admitted()
        for latency, queue_s in [(0.1, 0.0), (0.2, 0.1), (0.3, 0.2)]:
            aggregator.record(
                Completed(
                    request=_request(0),
                    sql="SELECT 1",
                    tier="beam",
                    latency_s=latency,
                    queue_s=queue_s,
                )
            )
        aggregator.record(Overloaded(request=_request(1), reason="full"))
        aggregator.record(Failed(request=_request(2), error="boom", latency_s=0.4))
        aggregator.record_batch(2)
        aggregator.record_batch(4)
        metrics = aggregator.snapshot(
            queue_depth=3,
            counters=[
                ("cache.hits", 10), ("cache.misses", 4), ("cache.evictions", 1),
                ("cache.hits", 5), ("cache.misses", 1), ("cache.evictions", 0),
            ],
        )
        assert metrics.queue_depth == 3
        assert metrics.admitted == 5
        assert metrics.completed == 3
        assert metrics.failed == 1
        assert metrics.shed == {"overloaded": 1}
        assert metrics.shed_total == 1
        assert metrics.tiers == {"beam": 3}
        assert metrics.p50_latency_s == 0.2
        assert metrics.p95_latency_s == 0.3
        assert metrics.mean_queue_s == pytest.approx(0.1)
        assert metrics.batches == 2
        assert metrics.mean_batch_occupancy == 3.0
        assert metrics.cache_hits == 15
        assert metrics.cache_misses == 5
        assert metrics.cache_evictions == 1

    def test_rows_render_with_format_table(self):
        from repro.eval.reporting import format_serving_report

        metrics = MetricsAggregator().snapshot()
        report = format_serving_report(metrics)
        assert "queue depth" in report
        assert "mean batch occupancy" in report

    def test_unknown_outcome_type_rejected(self):
        with pytest.raises(TypeError):
            MetricsAggregator().record(object())


# -- bounded caches (satellite: LRU eviction) --------------------------------


class TestBoundedCaches:
    def test_stage_cache_lru_evicts_oldest(self):
        cache = StageCache(capacity=2)
        cache.get("kind", "a", lambda: "A")
        cache.get("kind", "b", lambda: "B")
        cache.get("kind", "a", lambda: "A2")  # refreshes a's recency
        cache.get("kind", "c", lambda: "C")  # evicts b, the LRU entry
        assert cache.evictions == 1
        assert cache._memo.capacity == 2
        assert cache.get("kind", "a", lambda: "rebuilt") == "A"
        assert cache.get("kind", "b", lambda: "rebuilt") == "rebuilt"
        assert cache.evictions == 2  # re-inserting b pushed out c


# -- loadgen ------------------------------------------------------------------


#: The front doors replay drives: one Server, or a router over three
#: inline shard workers sharing the clock.
FRONT_DOORS = ("server", "router")


class TestLoadgen:
    def _run(self, front="server", seed=7, n=40, rate=50.0, start=0.0):
        clock = FakeClock(start)
        databases = {"alpha": NamedDb("alpha"), "beta": NamedDb("beta")}

        def build():
            return Server(
                StubParser(),
                databases,
                config=ServerConfig(
                    queue_capacity=16,
                    batch_size=4,
                    skeleton_watermark=4,
                    sentinel_watermark=10,
                ),
                clock=clock,
                service_model=ServiceModel(),
            )

        if front == "server":
            door = build()
        else:
            door = ShardRouter(
                ShardMap(("w0", "w1", "w2")),
                lambda worker_id: InlineWorkerHandle(worker_id, build),
                databases,
                clock=clock,
            )
        examples = [
            type(
                "Example",
                (),
                {"question": f"question {index}", "db_id": db_id},
            )()
            for index, db_id in enumerate(["alpha", "beta", "alpha"])
        ]
        arrivals = poisson_workload(examples, n=n, rate=rate, seed=seed)
        return run_loadgen(door, arrivals), clock

    def test_seeded_report_is_reproducible(self):
        for front in FRONT_DOORS:
            first, _ = self._run(front, seed=7)
            second, _ = self._run(front, seed=7)
            assert first.report == second.report, front
            assert first.makespan_s == second.makespan_s, front

    def test_different_seeds_change_the_workload(self):
        assert self._run(seed=7)[0].report != self._run(seed=8)[0].report

    def test_every_request_resolves(self):
        for front in FRONT_DOORS:
            result, _ = self._run(front)
            metrics = result.metrics
            assert metrics.completed + metrics.shed_total + metrics.failed == 40
            assert metrics.queue_depth == 0
            resolved = [o.request.request_id for o in result.outcomes]
            assert sorted(resolved) == [f"r{index:05d}" for index in range(40)]

    def test_replay_advances_only_the_fake_clock(self):
        # zero wall-clock sleeps anywhere: the clock is fake and every
        # gap between arrivals is charged to it explicitly.
        for front in FRONT_DOORS:
            result, clock = self._run(front)
            assert result.makespan_s > 0, front
            assert sum(clock.sleeps) == pytest.approx(result.makespan_s), front

    @pytest.mark.parametrize("front", FRONT_DOORS)
    def test_arrival_offsets_count_from_replay_start(self, front):
        # Arrival.at is seconds after replay starts, whatever the clock
        # read then: the same trace gives the same report at any origin.
        at_zero, _ = self._run(front, rate=5.0)
        at_thousand, _ = self._run(front, rate=5.0, start=1000.0)
        assert at_zero.metrics.completed == 40
        assert at_thousand.report == at_zero.report

    def test_workload_validation(self):
        with pytest.raises(ValueError):
            poisson_workload([], n=4, rate=1.0)
        with pytest.raises(ValueError):
            poisson_workload([object()], n=0, rate=1.0)
        with pytest.raises(ValueError):
            poisson_workload([object()], n=4, rate=0.0)
