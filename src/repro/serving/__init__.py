"""Serving layer over the staged inference engine.

Admission control (bounded queue, per-tenant token buckets), a
per-database micro-batching scheduler with a watermark degradation
ladder, typed shed/completion outcomes and deterministic load
generation.  One synchronous :class:`Server` is driven by
:func:`replay`; the shard router scales it across processes.
Everything timing-related reads an injectable Clock, so the whole
layer runs — and is tested — on a FakeClock with zero wall-clock
sleeps.
"""

from repro.serving.loadgen import (
    Arrival,
    LoadgenResult,
    ServiceModel,
    poisson_workload,
    replay,
    run_loadgen,
)
from repro.serving.metrics import (
    SAMPLE_CAPACITY,
    MetricsAggregator,
    ServerMetrics,
    nearest_rank,
)
from repro.serving.outcomes import (
    BreakerShed,
    Completed,
    DeadlineShed,
    Failed,
    Overloaded,
    ProviderShed,
    RateLimited,
    ServeRequest,
    Shed,
)
from repro.serving.queue import AdmissionQueue
from repro.serving.ratelimit import TokenBucket
from repro.serving.scheduler import (
    TIERS,
    Batch,
    DegradationLadder,
    MicroBatchScheduler,
    QueuedRequest,
)
from repro.serving.server import Server, ServerConfig
from repro.serving.sharding import (
    InlineWorkerHandle,
    ProcessWorkerHandle,
    ShardingConfig,
    ShardMap,
    ShardMove,
    ShardRouter,
    ShardWorker,
    default_worker_ids,
)

__all__ = [
    "AdmissionQueue",
    "Arrival",
    "Batch",
    "BreakerShed",
    "Completed",
    "DeadlineShed",
    "DegradationLadder",
    "Failed",
    "InlineWorkerHandle",
    "LoadgenResult",
    "MetricsAggregator",
    "SAMPLE_CAPACITY",
    "MicroBatchScheduler",
    "Overloaded",
    "ProcessWorkerHandle",
    "ProviderShed",
    "QueuedRequest",
    "RateLimited",
    "ServeRequest",
    "Server",
    "ServerConfig",
    "ServerMetrics",
    "ServiceModel",
    "ShardMap",
    "ShardMove",
    "ShardRouter",
    "ShardWorker",
    "ShardingConfig",
    "Shed",
    "TIERS",
    "TokenBucket",
    "default_worker_ids",
    "nearest_rank",
    "poisson_workload",
    "replay",
    "run_loadgen",
]
