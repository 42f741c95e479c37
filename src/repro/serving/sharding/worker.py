"""The shard worker: one Server, one shard set, one message loop.

A :class:`ShardWorker` wraps a :class:`~repro.serving.server.Server`
behind the sharding message protocol: :meth:`handle` processes one
command and returns the reply events, :meth:`step` executes one
micro-batch and returns its outcomes as events.  The class itself is
transport-agnostic — the inline handle calls these methods directly on
the router's thread, and :func:`worker_main` runs the same methods in
a child process, pumping frames over a pipe.

Because each worker owns warm per-shard Engines, StageCaches, provider
routers, and circuit breakers through its private ``Server``, N
workers scale the CPU-heavy stages across N processes with zero shared
mutable state; the only coupling is the message protocol.
"""

from __future__ import annotations

from typing import Callable

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


class ShardWorker:
    """One shard owner: routes protocol commands onto its Server."""

    def __init__(self, worker_id: str, server):
        self.worker_id = worker_id
        self.server = server
        self.stopping = False

    @property
    def queue_depth(self) -> int:
        return self.server.queue.depth

    def handle(self, command) -> list:
        """Process one command; returns the reply events, in order."""
        if isinstance(command, Submit):
            immediate = self.server.submit(command.request)
            if immediate is not None:
                return [OutcomeMsg(worker_id=self.worker_id, outcome=immediate)]
            return []
        if isinstance(command, Warm):
            for db_id in command.db_ids:
                self.server.warm(db_id)
            return []
        if isinstance(command, Drain):
            events = [
                OutcomeMsg(worker_id=self.worker_id, outcome=outcome)
                for outcome in self.server.drain()
            ]
            events.append(
                Drained(worker_id=self.worker_id, db_ids=command.db_ids)
            )
            return events
        if isinstance(command, Heartbeat):
            return [
                HeartbeatAck(
                    worker_id=self.worker_id,
                    seq=command.seq,
                    queue_depth=self.queue_depth,
                )
            ]
        if isinstance(command, SnapshotRequest):
            return [
                MetricsMsg(
                    worker_id=self.worker_id, snapshot=self.server.metrics()
                )
            ]
        if isinstance(command, Shutdown):
            self.stopping = True
            return []
        raise TypeError(f"unknown shard command {type(command).__name__}")

    def step(self) -> list:
        """Execute one micro-batch; its outcomes become events."""
        return [
            OutcomeMsg(worker_id=self.worker_id, outcome=outcome)
            for outcome in self.server.step()
        ]


def worker_main(
    conn,
    server_factory: Callable[[], object],
    worker_id: str,
    idle_poll_s: float = 0.005,
) -> None:
    """Child-process entry: build the server, pump the pipe until Shutdown.

    The server is constructed *inside* the child (post-fork), so every
    worker owns fresh database connections and engines — nothing
    half-shared with the parent.  Commands take priority over queued
    work; when the pipe is quiet the worker drains its own queue one
    micro-batch at a time, streaming outcome events back.  Unexpected
    errors are classified into :class:`WorkerFailure` events instead of
    killing the loop silently.
    """
    try:
        worker = ShardWorker(worker_id, server_factory())
    except Exception as exc:
        # Classified startup failure: the supervisor sees the event,
        # then the EOF, and applies its restart policy.
        failures = [f"{type(exc).__name__}: {exc}"]
        conn.send(WorkerFailure(worker_id=worker_id, error=failures[0]))
        conn.close()
        return
    try:
        while not worker.stopping:
            busy = worker.queue_depth > 0
            try:
                has_command = conn.poll(0 if busy else idle_poll_s)
            except (EOFError, OSError):
                break  # router went away; nothing left to serve
            try:
                if has_command:
                    events = worker.handle(conn.recv())
                elif busy:
                    events = worker.step()
                else:
                    continue
                for event in events:
                    conn.send(picklable_event(event))
            except (EOFError, OSError):
                break
            except Exception as exc:
                # Classify instead of dying: the router folds these
                # into its failure log.
                failures = [f"{type(exc).__name__}: {exc}"]
                conn.send(
                    WorkerFailure(worker_id=worker_id, error=failures[0])
                )
    finally:
        conn.close()
