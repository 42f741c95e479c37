"""The shard router: central admission, dispatch, supervision, rebalance.

One :class:`ShardRouter` is the cluster's front door.  It admits or
sheds centrally (per-tenant token buckets, per-shard depth watermarks),
consults the consistent-hash :class:`~repro.serving.sharding.shardmap.
ShardMap` for the owning worker, and dispatches over the worker's
transport handle.  Everything time-shaped — heartbeat cadence, crash
deadlines, restart backoff — reads the injectable Clock, so the whole
cluster is deterministic on a FakeClock with inline handles and
genuinely parallel with process handles.

Supervision: the router probes workers with sequenced heartbeats; a
worker that reports dead (``handle.alive()``) or misses its ack
deadline is classified into :attr:`failures` and scheduled for a
breaker-style backoff restart.  Requests already dispatched to the
dead worker stay *pending* — they are re-dispatched after the restart
(at-least-once; duplicate outcomes are deduplicated by request id) —
and new arrivals for its shards park at the router until the worker
returns.  A worker that exhausts its restart budget fails its pending
requests with typed ``Failed`` outcomes: nothing resolves silently.

Rebalance: :meth:`rebalance` diffs the old and new maps, tells each
old owner to drain (it finishes every queued request and acks), hands
warm engines to inline peers / sends ``Warm`` to process peers, then
swaps the map.  No request is dropped: queued work completes on the
old owner, and arrivals during the swap follow the old map until the
swap is atomic-ly (single-threaded control loop) replaced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.errors import ServingError
from repro.reliability.clock import Clock, SYSTEM_CLOCK
from repro.serving.metrics import MetricsAggregator, ServerMetrics
from repro.serving.outcomes import Failed, Overloaded, RateLimited, ServeRequest
from repro.serving.ratelimit import TokenBucket
from repro.serving.sharding.messages import (
    Drain,
    Drained,
    Heartbeat,
    HeartbeatAck,
    MetricsMsg,
    OutcomeMsg,
    SnapshotRequest,
    Submit,
    Warm,
    WorkerFailure,
)
from repro.serving.sharding.shardmap import ShardMap

#: Real-time interval for re-checking process workers: replay polls for
#: their outcomes, control waits poll for their acks and snapshots.
POLL_INTERVAL_S = 0.002


def _inline_worker(handle):
    """The :class:`ShardWorker` an inline handle runs on this thread, or
    ``None`` for a process handle — the router's one transport test."""
    return getattr(handle, "worker", None)


@dataclass(frozen=True)
class ShardingConfig:
    """Tuning knobs for the router (worker Servers carry their own)."""

    virtual_nodes: int = 64
    seed: int = 0
    #: Central per-tenant admission; ``None`` disables rate limiting.
    rate_per_tenant: float | None = None
    burst_per_tenant: float = 16.0
    #: Router-side per-shard watermark: a worker whose tracked queue
    #: depth reaches this sheds new arrivals ``Overloaded`` before
    #: dispatch — hot shards shed while cold shards keep admitting.
    #: ``None`` leaves shedding to each worker's own bounded queue.
    shed_depth: int | None = None
    #: How many arrivals may park for a down worker before shedding.
    park_capacity: int = 256
    heartbeat_interval_s: float = 1.0
    #: A sent heartbeat unacknowledged for this long marks the worker
    #: crashed even if its process object still claims to be alive.
    heartbeat_timeout_s: float = 3.0
    #: Breaker-style restart backoff: first restart after
    #: ``restart_backoff_s``, each subsequent one multiplied.
    restart_backoff_s: float = 0.5
    restart_backoff_multiplier: float = 2.0
    max_restarts_per_worker: int = 5
    #: Bound on waiting for Drained acks / metrics snapshots from
    #: process workers (real seconds; inline transport never waits).
    control_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.heartbeat_timeout_s < self.heartbeat_interval_s:
            raise ValueError(
                "heartbeat_timeout_s must be >= heartbeat_interval_s, got "
                f"{self.heartbeat_timeout_s} < {self.heartbeat_interval_s}"
            )
        if self.park_capacity < 1:
            raise ValueError(
                f"park_capacity must be >= 1, got {self.park_capacity}"
            )


@dataclass
class _WorkerState:
    """Router-side supervision bookkeeping for one worker."""

    depth: int = 0
    hb_seq: int = 0
    #: (seq, sent_at) of the unacknowledged probe, or None.
    hb_outstanding: "tuple[int, float] | None" = None
    last_beat_at: float = 0.0
    down: bool = False
    restarts: int = 0
    restart_due: float = 0.0
    lost: bool = False
    parked: list = field(default_factory=list)


class ShardRouter:
    """Admission + dispatch over N shard workers, one per shard set."""

    def __init__(
        self,
        shard_map: ShardMap,
        handle_factory: Callable[[str], object],
        db_ids: Iterable[str],
        config: ShardingConfig | None = None,
        clock: Clock | None = None,
    ):
        self.shard_map = shard_map
        self.config = config or ShardingConfig()
        self.clock = clock if clock is not None else SYSTEM_CLOCK
        self.db_ids = frozenset(db_ids)
        self._handle_factory = handle_factory
        self.handles = {
            worker_id: handle_factory(worker_id)
            for worker_id in shard_map.workers
        }
        now = self.clock.now()
        self._states = {
            worker_id: _WorkerState(last_beat_at=now)
            for worker_id in shard_map.workers
        }
        #: request_id -> (request, worker_id) for dispatched, unresolved work.
        self._pending: dict[str, tuple[ServeRequest, str]] = {}
        self._buckets: dict[str, TokenBucket] = {}
        self._outcome_buffer: list = []
        self._drain_acks: set[str] = set()
        self._worker_metrics: dict[str, ServerMetrics] = {}
        self._retired_metrics: list[ServerMetrics] = []
        #: classified crash/restart incidents plus forwarded worker errors.
        self.failures: list[dict[str, object]] = []
        self.metrics_aggregator = MetricsAggregator()

    # -- admission and dispatch ----------------------------------------------

    def submit(self, request: ServeRequest):
        """Admit and dispatch ``request``, or shed it with a typed outcome.

        Mirrors :meth:`repro.serving.server.Server.submit`: ``None``
        means dispatched (the outcome arrives from a later
        :meth:`poll`), anything else is the immediate shed/failure.  A
        still-pending id fails: outcomes are keyed by request id.
        """
        if request.request_id in self._pending:
            outcome = Failed(
                request=request,
                error=f"duplicate request id {request.request_id!r} is still pending",
                latency_s=0.0,
            )
        elif request.db_id not in self.db_ids:
            outcome = Failed(
                request=request,
                error=f"unknown database {request.db_id!r}",
                latency_s=0.0,
            )
        elif (
            self.config.rate_per_tenant is not None
            and not self._bucket_for(request.tenant).try_take()
        ):
            outcome = RateLimited(
                request=request,
                reason=f"tenant {request.tenant!r} exceeded "
                f"{self.config.rate_per_tenant}/s",
            )
        else:
            outcome = self._route(request, shed_depth=self.config.shed_depth)
        if outcome is not None:
            self.metrics_aggregator.record(outcome)
        return outcome

    def _route(self, request: ServeRequest, shed_depth: int | None = None):
        """Lost owner → ``Failed``; down owner → park, or ``Overloaded``
        when the park buffer is full; up owner → dispatch (admission
        also sheds at ``shed_depth``).  Returns the unrecorded outcome,
        or ``None`` once the request is pending."""
        owner = self.shard_map.owner(request.db_id)
        state = self._states[owner]
        if state.lost:
            return Failed(
                request=request,
                error=f"worker {owner!r} exhausted its restart budget",
                latency_s=0.0,
            )
        if state.down:
            if len(state.parked) >= self.config.park_capacity:
                return Overloaded(
                    request=request,
                    reason=f"worker {owner!r} down and park buffer full "
                    f"({self.config.park_capacity})",
                )
            state.parked.append(request)
            self._pending[request.request_id] = (request, owner)
            return None
        if shed_depth is not None and state.depth >= shed_depth:
            # Shard-aware shedding: only the hot shard's arrivals shed;
            # a cold shard's state.depth is low and admits normally.
            return Overloaded(
                request=request,
                reason=f"shard worker {owner!r} at depth {state.depth} "
                f">= {shed_depth}",
            )
        self._dispatch(owner, request)
        return None

    def _resolve(self, outcome) -> None:
        """Record and buffer an outcome the router itself produced."""
        self.metrics_aggregator.record(outcome)
        self._outcome_buffer.append(outcome)

    def _dispatch(self, worker_id: str, request: ServeRequest) -> None:
        self._pending[request.request_id] = (request, worker_id)
        self._states[worker_id].depth += 1
        self.handles[worker_id].send(Submit(request=request))

    def _bucket_for(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets[tenant] = TokenBucket(
                rate=self.config.rate_per_tenant,
                burst=self.config.burst_per_tenant,
                clock=self.clock,
            )
        return bucket

    # -- event collection ----------------------------------------------------

    def step(self) -> list:
        """One replay-loop turn: supervise, pump inline workers, collect."""
        self.tick()
        self.pump()
        return self.poll()

    def poll(self) -> list:
        """Collect worker events; returns newly resolved outcomes."""
        self._collect()
        outcomes = self._outcome_buffer
        self._outcome_buffer = []
        return outcomes

    def pump(self) -> None:
        """Let inline workers drain their queues (process workers self-drain)."""
        for worker_id in sorted(self.handles):
            self.handles[worker_id].pump()

    def _collect(self) -> None:
        for worker_id in sorted(self.handles):
            for event in self.handles[worker_id].poll():
                self._on_event(worker_id, event)

    def _on_event(self, worker_id: str, event) -> None:
        if isinstance(event, OutcomeMsg):
            request_id = event.outcome.request.request_id
            entry = self._pending.pop(request_id, None)
            if entry is None:
                return  # duplicate after a crash re-dispatch; first wins
            state = self._states.get(worker_id)
            if state is not None:
                state.depth = max(0, state.depth - 1)
            self._outcome_buffer.append(event.outcome)
        elif isinstance(event, HeartbeatAck):
            state = self._states.get(worker_id)
            if state is None:
                return
            if (
                state.hb_outstanding is not None
                and event.seq == state.hb_outstanding[0]
            ):
                state.hb_outstanding = None
            state.last_beat_at = self.clock.now()
        elif isinstance(event, MetricsMsg):
            self._worker_metrics[worker_id] = event.snapshot
        elif isinstance(event, Drained):
            self._drain_acks.add(worker_id)
        elif isinstance(event, WorkerFailure):
            self.failures.append(
                {"worker": worker_id, "error": event.error, "kind": "worker"}
            )
        else:
            raise ServingError(
                f"unknown worker event {type(event).__name__} from {worker_id!r}"
            )

    # -- supervision ---------------------------------------------------------

    def tick(self) -> None:
        """One supervision pass: heartbeats, crash detection, restarts."""
        self._collect()
        now = self.clock.now()
        for worker_id in sorted(self.handles):
            state = self._states[worker_id]
            if state.lost:
                continue
            if state.down:
                if now >= state.restart_due:
                    self._restart(worker_id)
                continue
            handle = self.handles[worker_id]
            missed_deadline = (
                state.hb_outstanding is not None
                and now - state.hb_outstanding[1] >= self.config.heartbeat_timeout_s
            )
            if not handle.alive() or missed_deadline:
                self._mark_crashed(worker_id, missed_deadline)
                continue
            if (
                state.hb_outstanding is None
                and now - state.last_beat_at >= self.config.heartbeat_interval_s
            ):
                state.hb_seq += 1
                state.hb_outstanding = (state.hb_seq, now)
                handle.send(Heartbeat(seq=state.hb_seq))

    def _mark_crashed(self, worker_id: str, missed_deadline: bool) -> None:
        state = self._states[worker_id]
        state.restarts += 1
        # Fence a zombie: a worker that missed its heartbeat deadline
        # may still be alive (wedged, not dead).  Kill it now so the
        # restart can proceed and the old incarnation cannot emit late
        # events after its work is re-dispatched.
        handle = self.handles[worker_id]
        if handle.alive():
            kill = getattr(handle, "kill", None)
            if kill is not None:
                kill()
        cause = (
            "missed heartbeat deadline "
            f"({self.config.heartbeat_timeout_s}s)"
            if missed_deadline
            else "process dead"
        )
        self.failures.append(
            {
                "worker": worker_id,
                "error": cause,
                "kind": "crash",
                "restarts": state.restarts,
            }
        )
        if state.restarts > self.config.max_restarts_per_worker:
            state.lost = True
            self._fail_pending(
                worker_id,
                f"worker {worker_id!r} exhausted its restart budget "
                f"({self.config.max_restarts_per_worker})",
            )
            return
        # Breaker-style backoff: 1st restart after backoff, then *mult.
        delay = self.config.restart_backoff_s * (
            self.config.restart_backoff_multiplier ** (state.restarts - 1)
        )
        state.down = True
        state.restart_due = self.clock.now() + delay
        state.hb_outstanding = None
        state.depth = 0

    def _restart(self, worker_id: str) -> None:
        handle = self.handles[worker_id]
        if handle.alive() or not hasattr(handle, "restart"):
            # An unkillable zombie (no kill hook) or a transport with
            # no in-place restart: abandon the old handle and build a
            # fresh one — restart() on a live handle would raise.
            self.handles[worker_id] = self._handle_factory(worker_id)
        else:
            handle.restart()
        state = self._states[worker_id]
        state.down = False
        state.hb_outstanding = None
        state.last_beat_at = self.clock.now()
        state.depth = 0
        self.failures.append(
            {"worker": worker_id, "error": "restarted", "kind": "restart"}
        )
        # Re-dispatch everything the dead worker had in flight, then
        # the arrivals that parked while it was down.  At-least-once:
        # an outcome the old incarnation already sent for one of these
        # is deduplicated in _on_event by request id.
        redispatch = [
            request
            for request_id, (request, owner) in sorted(self._pending.items())
            if owner == worker_id and request not in state.parked
        ]
        parked, state.parked = state.parked, []
        for request in redispatch + parked:
            self._dispatch(worker_id, request)

    def _fail_pending(self, worker_id: str, reason: str) -> None:
        doomed = [
            request_id
            for request_id, (_, owner) in sorted(self._pending.items())
            if owner == worker_id
        ]
        for request_id in doomed:
            request, _ = self._pending.pop(request_id)
            self._resolve(Failed(request=request, error=reason, latency_s=0.0))
        self._states[worker_id].parked = []

    def next_due(self) -> float | None:
        """The clock time :meth:`step` must run again; ``None`` when idle.

        The earliest restart/heartbeat deadline, which a FakeClock
        replay jumps straight to — but at most one real-time poll away
        while a process worker, which finishes on its own cores, holds
        any of the work.
        """
        if not self._pending:
            return None
        due: list[float] = []
        for state in self._states.values():
            if state.lost:
                continue
            if state.down:
                due.append(state.restart_due)
            elif state.hb_outstanding is not None:
                due.append(state.hb_outstanding[1] + self.config.heartbeat_timeout_s)
            else:
                due.append(state.last_beat_at + self.config.heartbeat_interval_s)
        if any(
            _inline_worker(self.handles[owner]) is None
            for _, owner in self._pending.values()
        ):
            due.append(self.clock.now() + POLL_INTERVAL_S)
        return min(due, default=None)

    def has_work(self) -> bool:
        """Unresolved requests anywhere (dispatched or parked)?"""
        return bool(self._pending)

    # -- rebalance -----------------------------------------------------------

    def rebalance(self, new_map: ShardMap) -> list:
        """Move to ``new_map`` without dropping a request.

        Old owners drain (finishing all queued work — those outcomes
        are returned), new owners warm, inline peers hand off warm
        engines, and only then does the map swap.  Workers leaving the
        cluster are snapshotted into the retired-metrics fold and shut
        down; anything they failed to resolve (a down owner cannot
        drain) is re-homed to the new owners first, so no request is
        left mapped to a departed worker.
        """
        moves = self.shard_map.moves(new_map, self.db_ids)
        added = [w for w in new_map.workers if w not in self.handles]
        removed = [w for w in self.shard_map.workers if w not in new_map.workers]
        now = self.clock.now()
        for worker_id in added:
            self.handles[worker_id] = self._handle_factory(worker_id)
            self._states[worker_id] = _WorkerState(last_beat_at=now)
        moved_from: dict[str, list[str]] = {}
        moved_to: dict[str, list[str]] = {}
        for move in moves:
            moved_from.setdefault(move.source, []).append(move.db_id)
            moved_to.setdefault(move.target, []).append(move.db_id)
        # 1. Old owners finish their queued work (a down/dead owner
        #    cannot drain; its leftovers are re-homed in step 3).
        outcomes = self._drain_live(
            {w: Drain(db_ids=tuple(dbs)) for w, dbs in moved_from.items()}
        )
        # 2. Warm handoff: inline peers adopt the old owner's engines;
        #    process peers pre-build via the Warm command.
        for move in moves:
            source = _inline_worker(self.handles[move.source])
            target = _inline_worker(self.handles[move.target])
            if source is not None and target is not None:
                target.server.adopt(move.db_id, source.server.handoff(move.db_id))
        for worker_id in sorted(moved_to):
            self.handles[worker_id].send(Warm(db_ids=tuple(moved_to[worker_id])))
        # 3. Swap; re-home any work a departing worker never resolved
        #    (it was down, or its Drained ack was missed), then retire.
        self.shard_map = new_map
        for worker_id in removed:
            self._rehome(worker_id)
            snapshot = self._snapshot_worker(worker_id)
            if snapshot is not None:
                self._retired_metrics.append(snapshot)
            self.handles[worker_id].close()
            del self.handles[worker_id]
            del self._states[worker_id]
            self._worker_metrics.pop(worker_id, None)
        return outcomes

    def _rehome(self, worker_id: str) -> None:
        """Re-route ``worker_id``'s unresolved requests under the
        current map, so removing it can never strand pending work.

        Each leftover goes to its new owner: dispatched if the owner
        is up, parked if the owner is down (capacity permitting), and
        resolved with a typed outcome otherwise — nothing stays mapped
        to a worker that no longer exists.
        """
        leftovers = [
            request
            for _, (request, owner) in sorted(self._pending.items())
            if owner == worker_id
        ]
        self._states[worker_id].parked = []
        for request in leftovers:
            del self._pending[request.request_id]
            outcome = self._route(request)
            if outcome is not None:
                self._resolve(outcome)

    def _drainable(self, worker_id: str) -> bool:
        """Can this worker receive a Drain and be expected to ack it?"""
        state = self._states[worker_id]
        return (
            not state.down
            and not state.lost
            and self.handles[worker_id].alive()
        )

    def _drain_live(self, commands: dict[str, Drain]) -> list:
        """Send each *live* worker its Drain; pump/poll until all acked.

        A worker that is down, lost, or dies mid-drain stops being
        awaited — a dead worker never acks, and waiting for one would
        burn the whole control timeout.  Its unresolved requests stay
        pending for supervision (or the caller) to recover.
        """
        sources = sorted(commands)
        self._drain_acks.clear()
        for worker_id in sources:
            if self._drainable(worker_id):
                self.handles[worker_id].send(commands[worker_id])
        outcomes: list = []
        waiting: list[str] = []

        def acked() -> bool:
            self.pump()
            outcomes.extend(self.poll())
            waiting[:] = [
                w
                for w in sources
                if w not in self._drain_acks and self._drainable(w)
            ]
            return not waiting

        if not self._await(acked):
            raise ServingError(f"drain timed out waiting for workers {waiting}")
        return outcomes

    def _await(self, ready: Callable[[], bool]) -> bool:
        """Re-check ``ready`` every poll interval; ``False`` after
        ``control_timeout_s``.  Inline workers answer synchronously, so
        a FakeClock never sleeps here unless a worker hangs."""
        deadline = self.clock.now() + self.config.control_timeout_s
        while not ready():
            if self.clock.now() >= deadline:
                return False
            self.clock.sleep(POLL_INTERVAL_S)
        return True

    def drain(self) -> list:
        """Finish all queued work on every live worker; returns outcomes.

        Down/lost/dead workers are skipped — their requests stay
        pending (or parked) and the caller decides whether to keep
        ticking until supervision restarts them or to shut down.
        """
        return self._drain_live({worker_id: Drain() for worker_id in self.handles})

    def shutdown(self) -> None:
        """Snapshot, then close every worker (clean Shutdown, bounded)."""
        for worker_id in sorted(self.handles):
            snapshot = self._snapshot_worker(worker_id)
            if snapshot is not None:
                self._retired_metrics.append(snapshot)
        for worker_id in sorted(self.handles):
            self.handles[worker_id].close()
        self.handles = {}
        self._states = {}

    # -- observability -------------------------------------------------------

    def _snapshot_worker(self, worker_id: str) -> ServerMetrics | None:
        """A fresh per-shard snapshot (synchronous inline, RPC process)."""
        handle = self.handles[worker_id]
        if (inline := _inline_worker(handle)) is not None:  # no round trip
            return inline.server.metrics()
        if not handle.alive():
            return self._worker_metrics.get(worker_id)
        self._worker_metrics.pop(worker_id, None)
        handle.send(SnapshotRequest())

        def answered() -> bool:
            self._collect()
            return worker_id in self._worker_metrics or not handle.alive()

        self._await(answered)
        return self._worker_metrics.get(worker_id)

    def metrics(self) -> ServerMetrics:
        """One merged cluster snapshot: router sheds + every shard.

        Counters merge exactly and percentiles are recomputed from the
        pooled latency samples (:meth:`ServerMetrics.merge`) — never
        averaged.  Retired workers' final snapshots stay in the fold,
        so a rebalance does not lose history.
        """
        parked = sum(len(state.parked) for state in self._states.values())
        own = self.metrics_aggregator.snapshot(queue_depth=parked)
        shards = [
            snapshot
            for worker_id in sorted(self.handles)
            if (snapshot := self._snapshot_worker(worker_id)) is not None
        ]
        return ServerMetrics.merge(own, *shards, *self._retired_metrics)
