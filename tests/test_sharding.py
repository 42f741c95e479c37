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

import pytest

from tests.test_serving import NamedDb, StubParser, _request

from repro.errors import ServingError
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
    default_worker_ids,
    nearest_rank,
    replay,
)
from repro.serving.loadgen import Arrival
from repro.serving.sharding import Heartbeat, HeartbeatAck, picklable_event
from repro.serving.sharding.messages import OutcomeMsg

pytestmark = pytest.mark.sharding

DB_IDS = tuple(f"db{index}" for index in range(8))


class StubEngine:
    """Just enough engine surface for warm-handoff assertions."""

    def __init__(self, cache=None):
        self.cache = cache


class EngineStubParser(StubParser):
    """A stub parser whose servers build (stub) per-database engines."""

    def build_engine(self, cache=None):
        return StubEngine(cache=cache)


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
        # The router must *kill* the still-alive process before the
        # backoff restart, or restart() refuses a live worker and the
        # supervision loop crashes.
        clock = FakeClock()

        class ZombieHandle:
            transport = "inline"
            worker_id = "w0"

            def __init__(self):
                self.commands = []
                self.killed = False
                self.restarted = False

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

            def restart(self):
                assert self.killed, "restart() on a live worker raises"
                self.restarted = True
                self.killed = False

            def close(self):
                pass

        zombie = ZombieHandle()
        router = ShardRouter(
            ShardMap(("w0",)),
            lambda worker_id: zombie,
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
        assert any(isinstance(c, Heartbeat) for c in zombie.commands)
        clock.advance(1.9)
        router.tick()  # deadline not yet passed
        assert not router._states["w0"].down
        clock.advance(0.2)
        router.tick()  # 2.1s unacked >= 2.0s timeout
        assert router._states["w0"].down
        assert "heartbeat" in router.failures[0]["error"]
        assert zombie.killed  # fenced at crash time, not left running
        clock.advance(0.5)
        router.tick()  # backoff expired: restart must not raise
        assert zombie.restarted
        assert not router._states["w0"].down
        assert any(f["kind"] == "restart" for f in router.failures)

    def test_unkillable_zombie_is_replaced_via_the_factory(self):
        # A handle with no kill hook that keeps claiming to be alive:
        # the router cannot fence it, so the restart falls back to
        # building a fresh handle instead of raising.
        clock = FakeClock()
        built = []

        class StubbornZombie:
            transport = "inline"

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

            def restart(self):
                raise AssertionError("a live handle must never be restart()ed")

            def close(self):
                pass

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
        router.tick()  # restart: factory replacement, no ServingError
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

    def test_inline_restart_refuses_a_live_worker(self):
        router, handles = _cluster(FakeClock())
        with pytest.raises(ServingError):
            handles["w0"].restart()


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

    def test_rebalance_hands_off_warm_engines_inline(self):
        clock = FakeClock()
        router, handles = _cluster(clock, parser_factory=EngineStubParser)
        old_map = router.shard_map
        # warm every shard by serving traffic once
        for index, db_id in enumerate(DB_IDS):
            router.submit(_request(index, db_id=db_id))
        router.pump()
        router.poll()
        new_map = old_map.add_worker("w3")
        moves = old_map.moves(new_map, DB_IDS)
        assert moves  # the scenario must actually move something
        router.rebalance(new_map)
        for move in moves:
            source_server = handles[move.source].worker.server
            target_server = router.handles[move.target].worker.server
            # the old owner released its engine; the new owner holds it
            assert source_server.handoff(move.db_id) is None
            assert target_server.handoff(move.db_id) is not None

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


# -- sharded replay -----------------------------------------------------------


class TestShardedReplay:
    def test_replay_rides_through_a_mid_run_crash(self):
        clock = FakeClock()
        config = ShardingConfig(restart_backoff_s=0.2)
        router, handles = _cluster(clock, sharding=config)
        arrivals = _arrivals(20)
        victim = router.shard_map.owner(DB_IDS[0])

        # crash the worker partway: feed half, kill, replay the rest at
        # the same clock times (replay counts offsets from its start)
        first, second = arrivals[:10], arrivals[10:]
        outcomes = replay(router, first)
        handles[victim].kill()
        resumed = clock.now()
        outcomes += replay(
            router, [Arrival(a.at - resumed, a.request) for a in second]
        )
        resolved = {o.request.request_id for o in outcomes}
        assert resolved == {f"r{index}" for index in range(20)}
        assert all(isinstance(o, Completed) for o in outcomes)
        assert any(f["kind"] == "restart" for f in router.failures)

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
    def test_picklable_event_strips_traces(self):
        outcome = Completed(
            request=_request(0),
            sql="SELECT 1",
            tier="full",
            latency_s=0.1,
            queue_s=0.0,
            trace=object(),  # unpicklable stand-in
        )
        event = picklable_event(OutcomeMsg(worker_id="w0", outcome=outcome))
        assert event.outcome.trace is None
        assert event.outcome.sql == "SELECT 1"
        import pickle

        pickle.dumps(event)  # must not raise

    def test_non_outcome_events_pass_through(self):
        ack = HeartbeatAck(worker_id="w0", seq=1, queue_depth=0)
        assert picklable_event(ack) is ack


# -- process transport (real forks, kept small) -------------------------------


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

    def test_killed_child_is_restarted_and_work_replays(self):
        databases = _databases(DB_IDS[:2])

        def handle_factory(worker_id):
            def build():
                return Server(StubParser(), databases, config=ServerConfig())

            return ProcessWorkerHandle(worker_id, build)

        router = ShardRouter(
            ShardMap(("w0",)),
            handle_factory,
            DB_IDS[:2],
            config=ShardingConfig(restart_backoff_s=0.01),
        )
        try:
            handle = router.handles["w0"]
            handle.kill()
            assert not handle.alive()
            assert router.submit(_request(0, db_id=DB_IDS[0])) is None
            outcomes = replay(router, [])
            assert len(outcomes) == 1
            assert isinstance(outcomes[0], Completed)
            assert any(f["kind"] == "restart" for f in router.failures)
        finally:
            router.shutdown()
