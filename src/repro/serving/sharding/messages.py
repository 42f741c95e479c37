"""The typed message vocabulary between the shard router and workers.

Every frame crossing a worker boundary — an OS pipe for process
workers, a plain method call for inline workers — is one of these
frozen dataclasses.  They carry only plain data (requests, outcome
records, frozen metric snapshots), so the same protocol pickles across
the process boundary and stays trivially deterministic in inline mode.

Commands flow router → worker; events flow worker → router.  The
router reaches a worker through these messages alone — it warms new
owners with :class:`Warm`, reads metrics with :class:`SnapshotRequest`,
drains with :class:`Drain` — on either transport.  An outcome is the
same record on both: a ``Completed`` keeps its ``InferenceTrace`` (a
list of frozen ``StageTrace`` rows), so it pickles across the pipe as
it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.metrics import ServerMetrics
    from repro.serving.outcomes import ServeRequest


# -- commands (router -> worker) ---------------------------------------------


@dataclass(frozen=True)
class Submit:
    """Dispatch one admitted request to its shard owner."""

    request: "ServeRequest"


@dataclass(frozen=True)
class Warm:
    """Pre-build engines/breakers for ``db_ids`` before traffic arrives.

    Sent to the *new* owner during a rebalance so the first real
    request after the map swap hits a warm engine, not a cold build.
    """

    db_ids: tuple[str, ...]


@dataclass(frozen=True)
class Drain:
    """Finish all queued work, then acknowledge with :class:`Drained`.

    The worker drains its whole queue — queued work is never abandoned
    mid-rebalance.
    """


@dataclass(frozen=True)
class Heartbeat:
    """Liveness probe; the worker answers with :class:`HeartbeatAck`."""

    seq: int


@dataclass(frozen=True)
class SnapshotRequest:
    """Ask for the worker-side part of a frozen
    :class:`~repro.serving.metrics.ServerMetrics` (``without_outcomes()``)."""


@dataclass(frozen=True)
class Shutdown:
    """Stop the worker loop after the current step."""


# -- events (worker -> router) -----------------------------------------------


@dataclass(frozen=True)
class OutcomeMsg:
    """One terminal outcome for a previously submitted request."""

    worker_id: str
    outcome: object


@dataclass(frozen=True)
class HeartbeatAck:
    """Liveness answer to the :class:`Heartbeat` numbered ``seq``."""

    worker_id: str
    seq: int


@dataclass(frozen=True)
class MetricsMsg:
    """A frozen per-shard metrics snapshot: batches, caches, provider
    counters, breakers and queue depth, with no outcome counters and no
    latency samples (the router counts those from what it delivers)."""

    worker_id: str
    snapshot: "ServerMetrics"


@dataclass(frozen=True)
class Drained:
    """All queued work finished after a :class:`Drain` command."""

    worker_id: str


@dataclass(frozen=True)
class WorkerFailure:
    """A classified unexpected error from inside the worker loop."""

    worker_id: str
    error: str
