"""Sharded multi-process serving (PR 10).

A consistent-hash :class:`ShardMap` assigns database ids to workers; a
:class:`ShardRouter` admits centrally (rate limits, shard-aware
shedding) and dispatches to :class:`ShardWorker` processes that each
own warm per-shard engines, caches, and breakers.  Two transports share
one message protocol: inline handles for deterministic FakeClock tests,
forked process handles for real multi-core throughput.  Per-shard
metric snapshots fold into one cluster view via
:meth:`~repro.serving.metrics.ServerMetrics.merge`.
"""

from repro.serving.sharding.messages import (
    Drain,
    Drained,
    Heartbeat,
    HeartbeatAck,
    MetricsMsg,
    OutcomeMsg,
    Shutdown,
    SnapshotRequest,
    Submit,
    Warm,
    WorkerFailure,
    picklable_event,
)
from repro.serving.sharding.router import ShardingConfig, ShardRouter
from repro.serving.sharding.shardmap import (
    ShardMap,
    ShardMove,
    default_worker_ids,
)
from repro.serving.sharding.transport import (
    InlineWorkerHandle,
    ProcessWorkerHandle,
    WorkerHandle,
)
from repro.serving.sharding.worker import ShardWorker, worker_main

__all__ = [
    "Drain",
    "Drained",
    "Heartbeat",
    "HeartbeatAck",
    "InlineWorkerHandle",
    "MetricsMsg",
    "OutcomeMsg",
    "ProcessWorkerHandle",
    "ShardMap",
    "ShardMove",
    "ShardRouter",
    "ShardWorker",
    "ShardingConfig",
    "Shutdown",
    "SnapshotRequest",
    "Submit",
    "Warm",
    "WorkerFailure",
    "WorkerHandle",
    "default_worker_ids",
    "picklable_event",
    "worker_main",
]
