"""Shard scaling: cluster throughput at 1, 2, and 4 process workers.

The workload is the seeded open-loop Poisson loadgen over a spider
build with 8 dev databases, replayed through a :class:`ShardRouter`
whose workers are real forked processes (``ProcessWorkerHandle``).
Every configuration — including the single-process ``Server``
reference — serves with the same :class:`ServiceModel`, which charges
a flat per-request service cost on the system clock.  That cost stands
in for the model-inference latency that dominates a real CodeS
deployment (this repository's parser is an analytic stand-in that
answers in single-digit milliseconds); it is charged as a real sleep,
so worker processes overlap it exactly the way N model replicas
overlap accelerator latency, while the CPU-side stages still run and
still produce the actual SQL.

Correctness is checked the hard way: every sharded outcome's SQL must
be byte-identical to what the single-process ``Server`` returned for
the same request.  The ring seed is chosen deterministically so the 8
databases split evenly across both the 2- and 4-worker rings —
ops picks the seed for balance, the bench does the same search.

Scaling gate: >= 2.5x throughput at 4 workers vs. 1 worker, with zero
SQL drift anywhere.
"""

import time

from repro import CodeSParser, build_spider, pair_samples
from repro.datasets.spider import SpiderConfig
from repro.serving import (
    Completed,
    ProcessWorkerHandle,
    Server,
    ServerConfig,
    ShardMap,
    ShardRouter,
    ShardingConfig,
    default_worker_ids,
)
from repro.serving.loadgen import ServiceModel, poisson_workload, run_loadgen
from repro.serving.sharding import Warm

TIER = "codes-1b"
N_REQUESTS = 96
#: Open-loop arrival rate far above the service rate: the cluster is
#: saturated almost immediately, so makespan measures service capacity.
RATE = 1000.0
WORKER_COUNTS = (1, 2, 4)

#: Wider dev split than the shared benchmark config: 8 databases give
#: the consistent-hash ring something to balance at 4 workers.
SCALING_SPIDER = SpiderConfig(
    n_train_databases=6, n_dev_databases=8,
    train_per_database=30, dev_per_database=12,
)

#: Emulated model-inference latency per request (see module docstring).
SERVICE = ServiceModel(full_s=0.06, skeleton_s=0.015, sentinel_s=0.002)

SERVER_CONFIG = ServerConfig(
    queue_capacity=N_REQUESTS,
    batch_size=8,
    # High watermarks: every request runs the full tier; this is a
    # throughput comparison, not an effort-degradation study.
    skeleton_watermark=4 * N_REQUESTS,
    sentinel_watermark=8 * N_REQUESTS,
)

SHARDING_CONFIG = ShardingConfig(
    heartbeat_interval_s=2.0,
    # A worker mid-batch answers its heartbeat late; give it headroom
    # before supervision calls that a crash.
    heartbeat_timeout_s=10.0,
    control_timeout_s=60.0,
)


def _balanced_seed(db_ids) -> int:
    """The first ring seed that splits ``db_ids`` evenly at 2 and 4 workers.

    Deterministic: same databases, same seed.  Falls back to the
    least-imbalanced candidate if no perfect split exists in range.
    """
    best = None
    for seed in range(200):
        spreads = []
        for workers in (2, 4):
            shard_map = ShardMap(default_worker_ids(workers), seed=seed)
            counts = [
                len(dbs) for dbs in shard_map.assignments(db_ids).values()
            ]
            spreads.append(max(counts) - min(counts))
        score = (max(spreads), sum(spreads))
        if best is None or score < best[1]:
            best = (seed, score)
        if score == (0, 0):
            break
    return best[0]


def test_shard_scaling(benchmark, report):
    spider = build_spider(SCALING_SPIDER)
    db_ids = sorted({example.db_id for example in spider.dev})
    seed = _balanced_seed(db_ids)
    parser = CodeSParser(TIER)
    parser.fit(pair_samples(spider))
    arrivals = poisson_workload(spider.dev, n=N_REQUESTS, rate=RATE)

    def server_factory():
        # Runs post-fork inside each worker child: fresh SQLite
        # connections and engines, fitted parser inherited by fork.
        return Server(
            parser, spider.databases, config=SERVER_CONFIG,
            service_model=SERVICE,
        )

    def run():
        # Single-process reference: the pre-sharding serving path.  Its
        # outcomes are the byte-for-byte ground truth for every cluster.
        server = server_factory()
        start = time.perf_counter()
        for arrival in arrivals:
            assert server.submit(arrival.request) is None
        baseline_outcomes = server.drain()
        baseline_s = time.perf_counter() - start
        assert len(baseline_outcomes) == N_REQUESTS
        assert all(isinstance(o, Completed) for o in baseline_outcomes)
        expected = {
            outcome.request.request_id: outcome.sql
            for outcome in baseline_outcomes
        }

        rows = [
            {
                "configuration": "single-process Server",
                "requests": N_REQUESTS,
                "makespan s": round(baseline_s, 3),
                "rps": round(N_REQUESTS / baseline_s, 2),
                "speedup vs 1w": "",
                "drift": 0,
            }
        ]
        throughput = {}
        total_drift = 0
        for workers in WORKER_COUNTS:
            shard_map = ShardMap(
                default_worker_ids(workers),
                virtual_nodes=SHARDING_CONFIG.virtual_nodes,
                seed=seed,
            )
            router = ShardRouter(
                shard_map,
                lambda worker_id: ProcessWorkerHandle(worker_id, server_factory),
                db_ids,
                config=SHARDING_CONFIG,
            )
            try:
                # Warm outside the timed region: each worker builds its
                # shards' engines, and the metrics round trip doubles as
                # a readiness barrier (commands are processed in order).
                for worker_id, shard in shard_map.assignments(db_ids).items():
                    router.handles[worker_id].send(Warm(db_ids=shard))
                router.metrics()

                result = run_loadgen(
                    router, arrivals, title=f"{workers}-worker cluster"
                )
            finally:
                router.shutdown()
            assert len(result.outcomes) == N_REQUESTS
            assert all(isinstance(o, Completed) for o in result.outcomes)
            drift = sum(
                1
                for outcome in result.outcomes
                if outcome.sql != expected[outcome.request.request_id]
            )
            total_drift += drift
            throughput[workers] = result.throughput_rps
            rows.append(
                {
                    "configuration": f"sharded x{workers} (process)",
                    "requests": N_REQUESTS,
                    "makespan s": round(result.makespan_s, 3),
                    "rps": round(result.throughput_rps, 2),
                    "speedup vs 1w": round(
                        result.throughput_rps / throughput[1], 2
                    ),
                    "drift": drift,
                }
            )
        report(
            "shard_scaling",
            rows,
            f"shard scaling (spider dev, {len(db_ids)} databases, "
            f"{N_REQUESTS} Poisson arrivals at {RATE:g}/s, "
            f"{SERVICE.full_s * 1000:g}ms emulated model latency, "
            f"ring seed {seed})",
        )
        return throughput, total_drift

    throughput, total_drift = benchmark.pedantic(run, rounds=1, iterations=1)
    # Byte-identical SQL: sharding must not change a single answer.
    assert total_drift == 0
    # Sharding must be worth the processes: >= 2.5x at 4 workers.
    scaling = throughput[4] / throughput[1]
    assert scaling >= 2.5, f"4-worker scaling only {scaling:.2f}x"
