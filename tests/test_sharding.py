"""Sharded multi-process serving (``-m sharding``).

Every scenario except the final process-transport smoke tests runs the
whole cluster — router, workers, supervision timers — on one shared
:class:`FakeClock` with inline transports: routing, crash/restart
backoff, drain/rebalance, and merged metrics are all deterministic
discrete-event simulations with zero wall-clock sleeps.  The process
tests fork real children over the stub parser, so they finish in
milliseconds while proving the pipe transport end to end.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from tests.test_serving import NamedDb, StubParser, _request

from repro.engine import InferenceTrace, StageTrace
from repro.reliability.clock import FakeClock
from repro.serving import (
    Completed,
    Failed,
    InlineWorkerHandle,
    MetricsAggregator,
    Overloaded,
    ProcessWorkerHandle,
    RateLimited,
    SAMPLE_CAPACITY,
    Server,
    ServerConfig,
    ServerMetrics,
    ServiceModel,
    ShardMap,
    ShardRouter,
    ShardingConfig,
    ShardWorker,
    default_worker_ids,
    nearest_rank,
    replay,
)
from repro.serving.loadgen import Arrival
from repro.serving.metrics import OUTCOME_COUNTERS
from repro.reliability.clock import SYSTEM_CLOCK
from repro.serving.sharding import Heartbeat, HeartbeatAck
from repro.serving.sharding.messages import (
    MetricsMsg,
    OutcomeMsg,
    Shutdown,
    SnapshotRequest,
    Submit,
)
from repro.serving.sharding.worker import worker_main

pytestmark = pytest.mark.sharding

DB_IDS = tuple(f"db{index}" for index in range(8))


class StubEngine:
    """Just enough engine surface for warm-engine assertions."""

    def __init__(self, cache=None):
        self.cache = cache


class EngineStubParser(StubParser):
    """A stub parser whose servers build (stub) per-database engines."""

    def build_engine(self, cache=None):
        return StubEngine(cache=cache)


#: What a traced engine run returns: frozen ``StageTrace`` rows.
STUB_TRACE = InferenceTrace(
    [StageTrace("schema_link", 0.002), StageTrace("candidate_gen", 0.004)]
)


class TracedStubParser(StubParser):
    """A stub parser whose every result carries :data:`STUB_TRACE`."""

    def generate(self, question, database, engine=None, effort="full"):
        result = super().generate(question, database, engine=engine, effort=effort)
        return replace(result, trace=STUB_TRACE)


def _stage_sums(outcomes):
    """Per-stage wall time summed over the delivered outcomes' traces."""
    sums: dict[str, float] = {}
    for outcome in outcomes:
        for stage in outcome.trace.stages:
            sums[stage.stage] = sums.get(stage.stage, 0.0) + stage.wall_s
    return sums


def _databases(db_ids=DB_IDS):
    return {db_id: NamedDb(db_id) for db_id in db_ids}


def _cluster(
    clock,
    workers=("w0", "w1", "w2"),
    db_ids=DB_IDS,
    sharding=None,
    server_config=None,
    service_model=None,
    parser_factory=StubParser,
):
    """An inline cluster on one FakeClock; returns (router, handles)."""
    databases = _databases(db_ids)
    handles = {}

    def handle_factory(worker_id):
        def build():
            return Server(
                parser_factory(),
                databases,
                config=server_config or ServerConfig(),
                clock=clock,
                service_model=service_model or ServiceModel(),
            )

        handle = InlineWorkerHandle(worker_id, build)
        handles[worker_id] = handle
        return handle

    router = ShardRouter(
        ShardMap(workers),
        handle_factory,
        db_ids,
        config=sharding or ShardingConfig(),
        clock=clock,
    )
    return router, handles


def _arrivals(n, rate_spacing=0.05, db_ids=DB_IDS, **request_kwargs):
    return [
        Arrival(
            at=index * rate_spacing,
            request=_request(index, db_id=db_ids[index % len(db_ids)], **request_kwargs),
        )
        for index in range(n)
    ]


# -- shard map ----------------------------------------------------------------


class TestShardMap:
    def test_assignment_is_deterministic_and_total(self):
        first = ShardMap(("w0", "w1", "w2"))
        second = ShardMap(("w2", "w1", "w0"))  # order-insensitive
        for db_id in DB_IDS:
            assert first.owner(db_id) == second.owner(db_id)
            assert first.owner(db_id) in first.workers
        assert first.assignments(DB_IDS) == second.assignments(DB_IDS)

    def test_seed_changes_the_ring(self):
        base = ShardMap(("w0", "w1", "w2"), seed=0)
        other = ShardMap(("w0", "w1", "w2"), seed=1)
        many = [f"db{index}" for index in range(64)]
        assert any(base.owner(db) != other.owner(db) for db in many)

    def test_every_worker_appears_in_assignments(self):
        table = ShardMap(("w0", "w1")).assignments(("db0",))
        assert set(table) == {"w0", "w1"}

    def test_adding_a_worker_moves_only_to_the_new_worker(self):
        # The consistent-hashing contract: growing the cluster never
        # shuffles databases between the existing workers.
        many = [f"db{index}" for index in range(64)]
        old = ShardMap(("w0", "w1", "w2"))
        new = old.add_worker("w3")
        moves = old.moves(new, many)
        assert moves  # 64 databases over 3->4 workers: something moves
        assert all(move.target == "w3" for move in moves)
        assert all(move.source != move.target for move in moves)

    def test_removing_a_worker_moves_only_its_databases(self):
        many = [f"db{index}" for index in range(64)]
        old = ShardMap(("w0", "w1", "w2"))
        new = old.remove_worker("w2")
        moves = old.moves(new, many)
        owned = sorted(db for db in many if old.owner(db) == "w2")
        assert sorted(move.db_id for move in moves) == owned
        assert all(move.source == "w2" for move in moves)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardMap(())
        with pytest.raises(ValueError):
            ShardMap(("w0", "w0"))
        with pytest.raises(ValueError):
            ShardMap(("w0",), virtual_nodes=0)
        with pytest.raises(ValueError):
            ShardMap(("w0",)).add_worker("w0")
        with pytest.raises(ValueError):
            ShardMap(("w0",)).remove_worker("nope")
        with pytest.raises(ValueError):
            default_worker_ids(0)

    def test_map_identity(self):
        assert ShardMap(("w0", "w1")) == ShardMap(("w1", "w0"))
        assert ShardMap(("w0", "w1")) != ShardMap(("w0", "w1"), seed=9)


# -- routing and admission ----------------------------------------------------


class TestRouting:
    def test_requests_land_on_the_owning_worker(self):
        clock = FakeClock()
        router, handles = _cluster(clock)
        arrivals = _arrivals(16, rate_spacing=0.0)
        for arrival in arrivals:
            assert router.submit(arrival.request) is None
        router.pump()
        outcomes = router.poll()
        assert len(outcomes) == 16
        assert all(isinstance(outcome, Completed) for outcome in outcomes)
        # each worker's server saw exactly its shards' databases
        for worker_id, handle in handles.items():
            served = {db for _, db, _ in handle.worker.server.parser.calls}
            owned = set(router.shard_map.assignments(DB_IDS)[worker_id])
            assert served <= owned

    def test_unknown_database_fails_fast(self):
        router, _ = _cluster(FakeClock())
        outcome = router.submit(_request(0, db_id="nope"))
        assert isinstance(outcome, Failed)
        assert "unknown database" in outcome.error

    def test_central_rate_limiting(self):
        clock = FakeClock()
        router, _ = _cluster(
            clock,
            sharding=ShardingConfig(rate_per_tenant=1.0, burst_per_tenant=2.0),
        )
        outcomes = [router.submit(_request(index, db_id="db0")) for index in range(4)]
        assert outcomes[0] is None and outcomes[1] is None
        assert all(isinstance(outcome, RateLimited) for outcome in outcomes[2:])

    def test_both_front_doors_shed_alike(self):
        # A single Server and an inline router build the unknown-database
        # and rate-limited outcomes through the same admission check.
        limits = dict(rate_per_tenant=1.0, burst_per_tenant=1.0)
        server = Server(
            StubParser(), _databases(), config=ServerConfig(**limits), clock=FakeClock()
        )
        router, _ = _cluster(FakeClock(), sharding=ShardingConfig(**limits))
        requests = [_request(0, db_id="nope"), _request(1, db_id="db0"),
                    _request(2, db_id="db0")]
        from_server = [repr(server.submit(request)) for request in requests]
        from_router = [repr(router.submit(request)) for request in requests]
        assert from_server == from_router
        assert from_server[0].startswith("Failed(") and from_server[1] == "None"
        assert from_server[2].startswith("RateLimited(")

    def test_duplicate_pending_id_fails_and_resolves_once(self):
        # Outcomes are keyed by request id: a second live request under
        # a pending id would be admitted but could never resolve.
        clock = FakeClock()
        router, _ = _cluster(clock)
        assert router.submit(_request(0, db_id=DB_IDS[0])) is None
        duplicate = router.submit(_request(0, db_id=DB_IDS[1]))
        assert isinstance(duplicate, Failed)
        assert "duplicate request id 'r0'" in duplicate.error
        outcomes = router.step()
        assert [(o.request.request_id, o.status) for o in outcomes] == [
            ("r0", "completed")
        ]
        metrics = router.metrics()
        assert (metrics.completed, metrics.failed) == (1, 1)
        # once resolved, the id is free again
        assert router.submit(_request(0, db_id=DB_IDS[1])) is None

    def test_hot_shard_sheds_cold_shard_admits(self):
        clock = FakeClock()
        router, _ = _cluster(clock, sharding=ShardingConfig(shed_depth=2))
        owner_of = {db_id: router.shard_map.owner(db_id) for db_id in DB_IDS}
        hot_db = DB_IDS[0]
        hot_worker = owner_of[hot_db]
        cold_db = next(db for db in DB_IDS if owner_of[db] != hot_worker)
        # saturate the hot shard without letting anything drain
        assert router.submit(_request(0, db_id=hot_db)) is None
        assert router.submit(_request(1, db_id=hot_db)) is None
        shed = router.submit(_request(2, db_id=hot_db))
        assert isinstance(shed, Overloaded)
        assert hot_worker in shed.reason
        # the cold shard is unaffected by the hot one's watermark
        assert router.submit(_request(3, db_id=cold_db)) is None


# -- supervision: crash, restart, backoff -------------------------------------


class TestSupervision:
    def test_crash_restart_redispatches_without_loss(self):
        clock = FakeClock()
        config = ShardingConfig(restart_backoff_s=0.5)
        router, handles = _cluster(clock, sharding=config)
        victim_db = DB_IDS[0]
        victim = router.shard_map.owner(victim_db)
        assert router.submit(_request(0, db_id=victim_db)) is None
        handles[victim].kill()  # in-flight request dies with the worker
        router.tick()  # detects the corpse, schedules the restart
        assert router.failures[0]["kind"] == "crash"
        assert router.has_work()
        # new arrivals for the dead worker's shards park, not drop
        assert router.submit(_request(1, db_id=victim_db)) is None
        clock.advance(0.5)
        router.tick()  # restart fires; both requests redispatch
        assert any(f["kind"] == "restart" for f in router.failures)
        router.pump()
        outcomes = router.poll()
        assert {o.request.request_id for o in outcomes} == {"r0", "r1"}
        assert all(isinstance(o, Completed) for o in outcomes)
        assert not router.has_work()

    def test_restart_backoff_is_exponential(self):
        clock = FakeClock()
        config = ShardingConfig(
            restart_backoff_s=1.0, restart_backoff_multiplier=2.0
        )
        router, handles = _cluster(clock, sharding=config)
        victim = router.shard_map.workers[0]
        delays = []
        for _ in range(3):
            handles[victim].kill()
            router.tick()
            state = router._states[victim]
            delays.append(state.restart_due - clock.now())
            clock.advance(delays[-1])
            router.tick()  # restart fires, worker healthy again
        assert delays == [1.0, 2.0, 4.0]

    def test_missed_heartbeats_fence_and_restart_a_zombie(self):
        # A worker whose process is alive but wedged: it answers
        # nothing, so the heartbeat deadline — not alive() — fells it.
        # The router must *kill* the still-alive process at crash time,
        # then close the dead handle and build a new one at restart.
        clock = FakeClock()
        built = []

        class ZombieHandle:
            def __init__(self, worker_id):
                self.worker_id = worker_id
                self.commands = []
                self.killed = False
                self.closed = False
                built.append(self)

            def send(self, command):
                self.commands.append(command)

            def poll(self):
                return []

            def pump(self):
                pass

            def alive(self):
                return not self.killed

            def kill(self):
                self.killed = True

            def close(self):
                assert self.killed, "a live worker is fenced before close"
                self.closed = True

        router = ShardRouter(
            ShardMap(("w0",)),
            ZombieHandle,
            DB_IDS,
            config=ShardingConfig(
                heartbeat_interval_s=1.0,
                heartbeat_timeout_s=2.0,
                restart_backoff_s=0.5,
            ),
            clock=clock,
        )
        clock.advance(1.0)
        router.tick()  # heartbeat probe goes out
        clock.advance(1.9)
        router.tick()  # deadline not yet passed
        assert not router._states["w0"].down
        clock.advance(0.2)
        router.tick()  # 2.1s unacked >= 2.0s timeout
        assert router._states["w0"].down
        assert "heartbeat" in router.failures[0]["error"]
        zombie = built[0]
        assert any(isinstance(c, Heartbeat) for c in zombie.commands)
        assert zombie.killed  # fenced at crash time, not left running
        clock.advance(0.5)
        router.tick()  # backoff expired: the factory rebuilds the handle
        assert zombie.closed
        assert len(built) == 2 and router.handles["w0"] is built[-1]
        assert not router._states["w0"].down
        assert any(f["kind"] == "restart" for f in router.failures)

    def test_unkillable_zombie_is_replaced_via_the_factory(self):
        # A handle with no kill hook that keeps claiming to be alive:
        # the router cannot fence it, so the restart falls back to
        # building a fresh handle instead of raising.
        clock = FakeClock()
        built = []

        class StubbornZombie:
            def __init__(self, worker_id):
                self.worker_id = worker_id
                built.append(self)

            def send(self, command):
                pass

            def poll(self):
                return []

            def pump(self):
                pass

            def alive(self):
                return True

            def close(self):
                raise AssertionError("an unkillable zombie is abandoned")

        router = ShardRouter(
            ShardMap(("w0",)),
            StubbornZombie,
            DB_IDS,
            config=ShardingConfig(
                heartbeat_interval_s=1.0,
                heartbeat_timeout_s=2.0,
                restart_backoff_s=0.5,
            ),
            clock=clock,
        )
        clock.advance(1.0)
        router.tick()  # probe
        clock.advance(2.0)
        router.tick()  # deadline: marked crashed, cannot be killed
        assert router._states["w0"].down
        clock.advance(0.5)
        router.tick()  # restart: factory replacement, the zombie abandoned
        assert len(built) == 2
        assert router.handles["w0"] is built[-1]
        assert not router._states["w0"].down

    def test_heartbeat_ack_keeps_the_worker_alive(self):
        clock = FakeClock()
        router, handles = _cluster(
            clock,
            workers=("w0",),
            sharding=ShardingConfig(
                heartbeat_interval_s=1.0, heartbeat_timeout_s=2.0
            ),
        )
        for _ in range(5):
            clock.advance(1.0)
            router.tick()  # probe
            router.tick()  # collect the synchronous inline ack
        assert not router._states["w0"].down
        assert router.failures == []

    def test_restart_budget_exhaustion_fails_pending(self):
        clock = FakeClock()
        config = ShardingConfig(
            restart_backoff_s=0.1,
            restart_backoff_multiplier=1.0,
            max_restarts_per_worker=2,
        )
        router, handles = _cluster(clock, sharding=config)
        victim_db = DB_IDS[0]
        victim = router.shard_map.owner(victim_db)
        assert router.submit(_request(0, db_id=victim_db)) is None
        failed = []
        for _ in range(3):  # third crash exceeds max_restarts=2
            handles[victim].kill()
            router.tick()
            clock.advance(0.1)
            router.tick()
            failed.extend(router.poll())
        assert len(failed) == 1
        assert isinstance(failed[0], Failed)
        assert "restart budget" in failed[0].error
        assert not router.has_work()
        # subsequent arrivals for the lost worker's shards fail fast
        outcome = router.submit(_request(1, db_id=victim_db))
        assert isinstance(outcome, Failed)


# -- drain and rebalance ------------------------------------------------------


class TestRebalance:
    def test_rebalance_finishes_queued_work_and_moves_shards(self):
        clock = FakeClock()
        router, handles = _cluster(clock)
        for index in range(12):
            assert router.submit(_request(index, db_id=DB_IDS[index % 8])) is None
        new_map = router.shard_map.add_worker("w3")
        drained = router.rebalance(new_map)
        # every queued request resolved during the drain — none dropped
        assert {o.request.request_id for o in drained} == {
            f"r{index}" for index in range(12)
        }
        assert all(isinstance(o, Completed) for o in drained)
        assert router.shard_map == new_map
        assert "w3" in router.handles
        # post-rebalance traffic lands on the new owners
        moved = [m for m in ShardMap(("w0", "w1", "w2")).moves(new_map, DB_IDS)]
        for offset, move in enumerate(moved):
            assert router.shard_map.owner(move.db_id) == "w3"
            assert router.submit(_request(100 + offset, db_id=move.db_id)) is None
        router.pump()
        assert all(isinstance(o, Completed) for o in router.poll())

    def test_rebalance_warms_every_new_owner(self):
        clock = FakeClock()
        builds = []  # (parser, the router's map when it built an engine)

        class CountingParser(EngineStubParser):
            def build_engine(self, cache=None):
                builds.append((self, router.shard_map))
                return super().build_engine(cache=cache)

        router, _ = _cluster(clock, parser_factory=CountingParser)
        old_map = router.shard_map
        # every old owner builds its engines by serving traffic once
        for index, db_id in enumerate(DB_IDS):
            router.submit(_request(index, db_id=db_id))
        router.pump()
        router.poll()
        new_map = old_map.add_worker("w3")
        moves = old_map.moves(new_map, DB_IDS)
        assert moves  # the scenario must actually move something
        assert {move.target for move in moves} == {"w3"}
        router.rebalance(new_map)
        parser = router.handles["w3"].worker.server.parser
        # one engine per moved database, every one built before the swap
        assert [m for p, m in builds if p is parser] == [old_map] * len(moves)
        before = len(builds)
        for offset, move in enumerate(moves):
            assert router.submit(_request(100 + offset, db_id=move.db_id)) is None
        router.pump()
        outcomes = router.poll()
        assert len(outcomes) == len(moves)
        assert all(isinstance(o, Completed) for o in outcomes)
        assert len(builds) == before  # post-swap requests build nothing

    def test_removing_a_worker_retires_its_metrics(self):
        clock = FakeClock()
        router, handles = _cluster(clock)
        for index in range(8):
            router.submit(_request(index, db_id=DB_IDS[index]))
        router.pump()
        router.poll()
        before = router.metrics()
        assert before.completed == 8
        doomed = router.shard_map.workers[0]
        router.rebalance(router.shard_map.remove_worker(doomed))
        after = router.metrics()
        # history survives the departure: nothing completed vanishes
        assert after.completed == 8
        assert doomed not in router.handles

    def test_drain_resolves_everything_queued(self):
        clock = FakeClock()
        router, _ = _cluster(clock)
        for index in range(10):
            assert router.submit(_request(index, db_id=DB_IDS[index % 8])) is None
        outcomes = router.drain()
        assert len(outcomes) == 10
        assert not router.has_work()

    def test_drain_skips_a_crashed_worker_and_supervision_recovers(self):
        # A dead worker never acks Drain; drain() must not wait 30
        # real seconds for it (and then raise) — it skips the corpse,
        # the healthy workers finish, and the tick loop restarts the
        # victim and completes its requests afterwards.
        clock = FakeClock()
        router, handles = _cluster(
            clock, sharding=ShardingConfig(restart_backoff_s=0.5)
        )
        for index in range(8):
            assert router.submit(_request(index, db_id=DB_IDS[index])) is None
        victim = router.shard_map.owner(DB_IDS[0])
        handles[victim].kill()  # crashed, not yet classified by tick()
        outcomes = router.drain()  # must neither raise nor stall
        assert outcomes  # the healthy shards all finished
        assert router.has_work()  # the victim's requests are still owed
        # the CLI recovery loop: tick until the cluster resolves it all
        for _ in range(8):
            if not router.has_work():
                break
            router.tick()
            router.pump()
            outcomes += router.poll()
            clock.advance(0.25)
        assert {o.request.request_id for o in outcomes} == {
            f"r{index}" for index in range(8)
        }
        assert all(isinstance(o, Completed) for o in outcomes)
        assert not router.has_work()

    def test_rebalance_rehomes_a_down_workers_pending_work(self):
        # Removing a worker that is down (it cannot drain) must not
        # strand its pending/parked requests on a worker id that no
        # longer exists — they re-route to the new owners and resolve.
        clock = FakeClock()
        router, handles = _cluster(
            clock, sharding=ShardingConfig(restart_backoff_s=60.0)
        )
        victim_db = DB_IDS[0]
        victim = router.shard_map.owner(victim_db)
        assert router.submit(_request(0, db_id=victim_db)) is None  # in flight
        handles[victim].kill()
        router.tick()  # classified down; backoff far in the future
        assert router.submit(_request(1, db_id=victim_db)) is None  # parks
        outcomes = router.rebalance(router.shard_map.remove_worker(victim))
        assert victim not in router.handles
        router.pump()
        outcomes += router.poll()
        assert {o.request.request_id for o in outcomes} >= {"r0", "r1"}
        resolved = {o.request.request_id: o for o in outcomes}
        assert isinstance(resolved["r0"], Completed)
        assert isinstance(resolved["r1"], Completed)
        assert not router.has_work()


# -- merged metrics -----------------------------------------------------------


class TestMergedMetrics:
    def _snapshot_with_latencies(self, latencies, queue_s=0.0):
        aggregator = MetricsAggregator()
        for index, latency in enumerate(latencies):
            aggregator.record_admitted()
            aggregator.record(
                Completed(
                    request=_request(index),
                    sql="SELECT 1",
                    tier="full",
                    latency_s=latency,
                    queue_s=queue_s,
                )
            )
        return aggregator.snapshot()

    def test_merged_percentiles_match_pooled_sample_ground_truth(self):
        # The point of sample-merge: a hot shard (slow latencies) and a
        # cold shard (fast) — averaging their p95s would land nowhere
        # near the truth; pooling the samples reproduces exactly what
        # one aggregator observing every outcome reports.
        hot = [0.5 + 0.01 * index for index in range(20)]
        cold = [0.01 + 0.001 * index for index in range(80)]
        merged = ServerMetrics.merge(
            self._snapshot_with_latencies(hot),
            self._snapshot_with_latencies(cold),
        )
        pooled = self._snapshot_with_latencies(hot + cold)
        assert merged.p50_latency_s == pooled.p50_latency_s
        assert merged.p95_latency_s == pooled.p95_latency_s
        assert merged.p95_latency_s == nearest_rank(hot + cold, 95)
        # and the naive wrong answer really is wrong, so this test
        # would catch a regression to percentile averaging
        naive = (nearest_rank(hot, 95) + nearest_rank(cold, 95)) / 2
        assert merged.p95_latency_s != naive
        assert merged.completed == 100
        assert merged.admitted == 100

    def test_merge_sums_counters_and_dicts(self):
        first = self._snapshot_with_latencies([0.1], queue_s=0.2)
        aggregator = MetricsAggregator()
        aggregator.record(_request(9) and Overloaded(request=_request(9), reason="full"))
        second = aggregator.snapshot(queue_depth=3)
        merged = ServerMetrics.merge(first, second)
        assert merged.completed == 1
        assert merged.queue_depth == 3
        assert merged.shed == {"overloaded": 1}
        assert merged.mean_queue_s == pytest.approx(0.2)
        assert merged.latency_samples == (0.1,)

    def test_merge_of_nothing_is_empty(self):
        empty = ServerMetrics.merge()
        assert empty.completed == 0
        assert empty.p95_latency_s == 0.0

    def test_sample_rings_are_bounded_but_counters_stay_exact(self):
        # Long-running servers must not accumulate (and pickle across
        # the process pipe) one sample per request forever: the rings
        # cap, while completed/mean stay exact running totals.
        total = SAMPLE_CAPACITY + 100
        aggregator = MetricsAggregator()
        for index in range(total):
            aggregator.record(
                Completed(
                    request=_request(index),
                    sql="SELECT 1",
                    tier="full",
                    latency_s=0.01 * (index + 1),
                    queue_s=0.005,
                )
            )
        snapshot = aggregator.snapshot()
        assert snapshot.completed == total  # exact despite the cap
        assert len(snapshot.latency_samples) == SAMPLE_CAPACITY
        assert len(snapshot.queue_wait_samples) == SAMPLE_CAPACITY
        assert snapshot.mean_queue_s == pytest.approx(0.005)
        # the ring keeps the most recent completions
        assert min(snapshot.latency_samples) == pytest.approx(0.01 * 101)

    def test_merge_caps_carried_samples_and_keeps_means_exact(self):
        fast = self._snapshot_with_latencies(
            [0.01] * SAMPLE_CAPACITY, queue_s=0.1
        )
        slow = self._snapshot_with_latencies([1.0] * 1000, queue_s=0.5)
        merged = ServerMetrics.merge(fast, slow)
        assert merged.completed == SAMPLE_CAPACITY + 1000
        assert len(merged.latency_samples) == SAMPLE_CAPACITY
        # weighted by completed counts, not by pooled (capped) samples
        assert merged.mean_queue_s == pytest.approx(
            (SAMPLE_CAPACITY * 0.1 + 1000 * 0.5) / (SAMPLE_CAPACITY + 1000)
        )
        # the sorted-stride subsample spans the pooled distribution
        assert min(merged.latency_samples) == 0.01
        assert max(merged.latency_samples) == 1.0

    def test_cluster_metrics_fold_router_sheds_with_worker_counters(self):
        clock = FakeClock()
        router, _ = _cluster(
            clock, sharding=ShardingConfig(rate_per_tenant=1.0, burst_per_tenant=1.0)
        )
        assert router.submit(_request(0, db_id="db0")) is None
        assert isinstance(router.submit(_request(1, db_id="db0")), RateLimited)
        router.pump()
        router.poll()
        metrics = router.metrics()
        assert metrics.completed == 1  # from the worker shard
        assert metrics.shed == {"rate_limited": 1}  # from the router

    def test_merged_provider_rows_name_their_worker(self):
        # Two workers each run a provider called "local"; the merged
        # table tells them apart, and a retired worker keeps its tag.
        class OneProviderRouter:
            counters = {"requests": 1}

            def as_rows(self):
                return [{"provider": "local", "ok": 1, "fail": 0, "breaker": "closed"}]

        class RoutedStubParser(StubParser):
            router = OneProviderRouter()

        clock = FakeClock()
        router, _ = _cluster(
            clock, workers=("w0", "w1"), parser_factory=RoutedStubParser
        )
        labels = {
            row["metric"] for row in router.metrics().as_rows()
            if row["metric"].startswith("provider ")
        }
        assert {"provider w0 local", "provider w1 local"} <= labels
        router.rebalance(router.shard_map.remove_worker("w1"))
        rows = router.metrics().providers
        assert sorted(row["worker"] for row in rows) == ["w0", "w1"]

    def test_a_worker_snapshot_carries_no_outcome_counters_or_samples(self):
        # The router counts outcomes itself, so a worker sends only the
        # counters the router cannot see.
        server = Server(
            TracedStubParser(), _databases(), clock=FakeClock(),
            service_model=ServiceModel(),
        )
        worker = ShardWorker("w0", server)
        for index, db_id in enumerate(DB_IDS):
            assert worker.handle(Submit(request=_request(index, db_id=db_id))) == []
        while worker.step():
            pass
        assert server.metrics().completed == len(DB_IDS)
        (message,) = worker.handle(SnapshotRequest())
        assert isinstance(message, MetricsMsg)
        snapshot = message.snapshot
        assert snapshot.batches == len(DB_IDS)
        assert not [
            name for name in snapshot.counters if name.startswith(OUTCOME_COUNTERS)
        ]
        assert snapshot.latency_samples == snapshot.queue_wait_samples == ()

    @pytest.mark.parametrize("snapshot_first", [False, True])
    def test_a_dead_inline_worker_reports_its_last_snapshot(self, snapshot_first):
        # A killed worker reports what it last answered, as a dead
        # process does: nothing if it never answered a SnapshotRequest,
        # else that snapshot — never its live server's later counters.
        # Outcomes are the router's own count; worker-side counters
        # (one batch per database per round here) come from snapshots.
        clock = FakeClock()
        router, handles = _cluster(clock)
        victim = router.shard_map.owner(DB_IDS[0])
        on_victim = sum(router.shard_map.owner(db_id) == victim for db_id in DB_IDS)

        def serve_round(start):
            for index, db_id in enumerate(DB_IDS):
                assert router.submit(_request(start + index, db_id=db_id)) is None
            router.pump()
            assert len(router.poll()) == len(DB_IDS)

        serve_round(0)
        if snapshot_first:
            assert router.metrics().batches == len(DB_IDS)
        serve_round(len(DB_IDS))
        handles[victim].kill()
        counted = 2 * len(DB_IDS) - on_victim
        if not snapshot_first:
            counted -= on_victim  # never snapshotted: absent from the fold
        metrics = router.metrics()
        assert metrics.batches == counted
        assert metrics.completed == 2 * len(DB_IDS)


# -- sharded replay -----------------------------------------------------------


class TestShardedReplay:
    @staticmethod
    def _replay_across_a_crash(snapshot_first):
        """20 arrivals on the traced stub cluster; the owner of ``db0``
        is killed after the first 10 and restarted."""
        clock = FakeClock()
        config = ShardingConfig(restart_backoff_s=0.2)
        router, handles = _cluster(
            clock, sharding=config, parser_factory=TracedStubParser
        )
        arrivals = _arrivals(20)
        victim = router.shard_map.owner(DB_IDS[0])

        # crash the worker partway: feed half, kill, replay the rest at
        # the same clock times (replay counts offsets from its start)
        first, second = arrivals[:10], arrivals[10:]
        outcomes = replay(router, first)
        if snapshot_first:
            router.metrics()  # every worker answers one snapshot
        dead = handles[victim]
        dead.kill()
        resumed = clock.now()
        outcomes += replay(
            router, [Arrival(a.at - resumed, a.request) for a in second]
        )
        resolved = {o.request.request_id for o in outcomes}
        assert resolved == {f"r{index}" for index in range(20)}
        assert all(isinstance(o, Completed) for o in outcomes)
        assert any(f["kind"] == "restart" for f in router.failures)
        return router, handles, dead, outcomes

    def test_replay_rides_through_a_mid_run_crash(self):
        router, handles, dead, _ = self._replay_across_a_crash(snapshot_first=True)
        # The merged view agrees with what was delivered, across the
        # restart, and keeps the dead incarnation's batches.
        metrics = router.metrics()
        assert (metrics.completed, metrics.admitted) == (20, 20)
        servers = [dead.worker.server] + [h.worker.server for h in handles.values()]
        assert metrics.batches == sum(server.metrics().batches for server in servers)

    def test_cluster_stage_walls_are_the_delivered_traces(self):
        # No snapshot before the kill: the dead incarnation's counters
        # never reach the router, yet every delivered trace is counted.
        router, _, _, outcomes = self._replay_across_a_crash(snapshot_first=False)
        metrics = router.metrics()
        assert (metrics.completed, metrics.admitted) == (20, 20)
        assert metrics.stage_wall_s == pytest.approx(_stage_sums(outcomes))
        assert metrics.stage_wall_s["candidate_gen"] == pytest.approx(20 * 0.004)

    def test_sharded_sql_matches_single_server_byte_for_byte(self):
        # Zero drift: the sharded cluster must emit exactly the SQL the
        # single-process server emits for the same workload.
        arrivals = _arrivals(24)

        single_clock = FakeClock()
        server = Server(
            StubParser(),
            _databases(),
            config=ServerConfig(),
            clock=single_clock,
            service_model=ServiceModel(),
        )
        single = {
            o.request.request_id: o.sql
            for o in replay(server, arrivals)
            if isinstance(o, Completed)
        }

        clock = FakeClock()
        router, _ = _cluster(clock)
        sharded = {
            o.request.request_id: o.sql
            for o in replay(router, arrivals)
            if isinstance(o, Completed)
        }
        assert sharded == single


# -- message protocol ---------------------------------------------------------


class TestMessages:
    def test_a_traced_outcome_pickles_equal_to_itself(self):
        # An outcome crosses the process pipe as it is: the engine's
        # trace is plain data, so nothing is stripped on the way.
        from repro.core import CodeSParser
        from tests.fixtures import bank_database

        database = bank_database()
        result = CodeSParser("codes-1b").generate(
            "How many clients are there?", database, demonstrations=[]
        )
        assert result.trace is not None and result.trace.stages
        event = OutcomeMsg(
            worker_id="w0",
            outcome=Completed(
                request=_request(0),
                sql=result.sql,
                tier=result.tier,
                latency_s=0.1,
                queue_s=0.0,
                trace=result.trace,
            ),
        )
        loaded = pickle.loads(pickle.dumps(event))
        assert loaded == event
        assert loaded.outcome.trace == event.outcome.trace  # compare=False field


# -- process transport (real forks, kept small) -------------------------------


class ScriptedConn:
    """A worker's pipe end driven by a script, recording every poll.

    ``inbox`` commands are waiting from the start; each ``later``
    command arrives while the worker blocks on an idle pipe, one per
    blocking poll.  Each poll records its timeout and checks it against
    the worker's queue depth, failing at once rather than letting a
    wrong loop spin.  A blocking poll with nothing left to arrive would
    hang on a real pipe, so it fails the test too.
    """

    def __init__(self, inbox, later, queue_depth):
        self.inbox = list(inbox)
        self.later = list(later)
        self.queue_depth = queue_depth
        self.timeouts: list = []
        self.sent: list = []
        self.closed = False

    def poll(self, timeout):
        self.timeouts.append(timeout)
        depth = self.queue_depth()
        # Block exactly when idle; never block with work queued.
        assert (timeout is None) == (depth == 0), (timeout, depth)
        if timeout is None and not self.inbox:
            assert self.later, "an idle worker blocked on a silent pipe"
            self.inbox.append(self.later.pop(0))
        return bool(self.inbox)

    def recv(self):
        return self.inbox.pop(0)

    def send(self, event):
        self.sent.append(event)

    def close(self):
        self.closed = True


def _await_event(handle, kind, timeout_s=10.0):
    """Poll a process handle until it yields a ``kind`` event."""
    deadline = SYSTEM_CLOCK.now() + timeout_s
    while SYSTEM_CLOCK.now() < deadline:
        for event in handle.poll():
            if isinstance(event, kind):
                return event
        SYSTEM_CLOCK.sleep(0.002)
    raise AssertionError(f"no {kind.__name__} within {timeout_s}s")


class TestWorkerLoop:
    def test_idle_polls_block_busy_polls_do_not_and_shutdown_exits(self):
        servers = []

        def build():
            servers.append(Server(StubParser(), _databases(DB_IDS[:1])))
            return servers[-1]

        conn = ScriptedConn(
            [Submit(request=_request(index, db_id=DB_IDS[0])) for index in range(3)],
            [Heartbeat(seq=1), Shutdown()],
            lambda: servers[0].queue.depth,
        )
        worker_main(conn, build, "w0")
        assert conn.closed and not conn.inbox and not conn.later
        assert conn.timeouts[0] is None and 0 in conn.timeouts
        outcomes = [e for e in conn.sent if isinstance(e, OutcomeMsg)]
        assert sorted(e.outcome.request.request_id for e in outcomes) == ["r0", "r1", "r2"]
        assert isinstance(conn.sent[-1], HeartbeatAck) and conn.sent[-1].seq == 1


class TestProcessTransport:
    def test_forked_cluster_serves_and_merges_metrics(self):
        databases = _databases(DB_IDS[:4])

        def handle_factory(worker_id):
            def build():
                return Server(StubParser(), databases, config=ServerConfig())

            return ProcessWorkerHandle(worker_id, build)

        router = ShardRouter(
            ShardMap(("w0", "w1")), handle_factory, DB_IDS[:4]
        )
        try:
            arrivals = _arrivals(8, rate_spacing=0.0, db_ids=DB_IDS[:4])
            outcomes = replay(router, arrivals)
            assert len(outcomes) == 8
            assert all(isinstance(o, Completed) for o in outcomes)
            metrics = router.metrics()
            assert metrics.completed == 8
        finally:
            router.shutdown()

    def test_completed_outcomes_carry_their_trace_across_the_pipe(self):
        databases = _databases(DB_IDS[:2])

        def handle_factory(worker_id):
            def build():
                return Server(TracedStubParser(), databases, config=ServerConfig())

            return ProcessWorkerHandle(worker_id, build)

        router = ShardRouter(ShardMap(("w0", "w1")), handle_factory, DB_IDS[:2])
        try:
            outcomes = replay(
                router, _arrivals(4, rate_spacing=0.0, db_ids=DB_IDS[:2])
            )
            assert len(outcomes) == 4
            assert all(isinstance(o, Completed) for o in outcomes)
            assert all(o.trace == STUB_TRACE for o in outcomes)
            assert router.metrics().stage_wall_s == pytest.approx(
                _stage_sums(outcomes)
            )
        finally:
            router.shutdown()

    def test_killed_child_is_restarted_and_work_replays(self):
        databases = _databases(DB_IDS[:2])
        built = []
        delivered = []  # (handle, event) for every event each handle polled

        def handle_factory(worker_id):
            def build():
                return Server(StubParser(), databases, config=ServerConfig())

            handle = ProcessWorkerHandle(worker_id, build)
            poll = handle.poll

            def recording_poll():
                events = poll()
                delivered.extend((handle, event) for event in events)
                return events

            handle.poll = recording_poll
            built.append(handle)
            return handle

        router = ShardRouter(
            ShardMap(("w0",)),
            handle_factory,
            DB_IDS[:2],
            config=ShardingConfig(restart_backoff_s=0.01),
        )
        try:
            old = router.handles["w0"]
            old_pid, old_conn = old._process.pid, old._conn
            old.kill()
            assert not old.alive()
            assert router.submit(_request(0, db_id=DB_IDS[0])) is None
            outcomes = replay(router, [])
            assert len(outcomes) == 1
            assert isinstance(outcomes[0], Completed)
            assert any(f["kind"] == "restart" for f in router.failures)
            new = router.handles["w0"]
            assert built == [old, new]
            assert new._process.pid != old_pid
            assert old_conn.closed
            assert [
                handle for handle, event in delivered if isinstance(event, OutcomeMsg)
            ] == [new]
        finally:
            router.shutdown()

    def test_a_worker_blocked_while_idle_answers_a_heartbeat(self):
        databases = _databases(DB_IDS[:1])
        handle = ProcessWorkerHandle(
            "w0", lambda: Server(StubParser(), databases, config=ServerConfig())
        )
        try:
            handle.send(SnapshotRequest())
            _await_event(handle, MetricsMsg)  # built, looping, queue empty
            SYSTEM_CLOCK.sleep(0.05)  # long enough to be blocked on the pipe
            handle.send(Heartbeat(seq=7))
            assert _await_event(handle, HeartbeatAck).seq == 7
        finally:
            handle.close()
        assert not handle.alive()

    def test_kill_is_seen_through_the_exit_sentinel(self, monkeypatch):
        databases = _databases(DB_IDS[:1])
        handle = ProcessWorkerHandle(
            "w0", lambda: Server(StubParser(), databases, config=ServerConfig())
        )
        process = handle._process

        def no_waitpid():
            raise AssertionError("waitpid on a child whose sentinel is quiet")

        try:
            monkeypatch.setattr(process, "is_alive", no_waitpid)
            assert handle.alive()  # a quiet sentinel alone says alive
            monkeypatch.undo()
            handle.kill()
            assert handle._exited.poll(0)  # the sentinel turned readable
            assert not handle.alive()
        finally:
            handle.close()
