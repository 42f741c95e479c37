"""Worker transports: inline (deterministic) and process (parallel).

Both handle types speak the same message protocol from
:mod:`repro.serving.sharding.messages` and have the same lifecycle: the
router warms, snapshots and drains a worker with messages only, and
restarts it by closing the dead handle and building a new one.  Its one
transport test is whether a handle exposes the ``worker`` it runs
in-thread, used only where physics differ: real parallelism only
exists cross-process, so replay polls for it.

- :class:`InlineWorkerHandle` hosts the :class:`ShardWorker` on the
  caller's thread.  ``send`` processes the command synchronously and
  buffers the replies; ``pump`` drains the worker's queue.  On a
  FakeClock the whole cluster is a deterministic discrete-event
  model of the process transport — the configuration every
  ``tests/test_sharding.py`` scenario runs, with zero wall-clock sleeps.

- :class:`ProcessWorkerHandle` forks a child running
  :func:`~repro.serving.sharding.worker.worker_main` and talks to it
  over a ``multiprocessing`` pipe.  The server is built inside the
  child by ``server_factory`` (fresh SQLite connections, warm engines
  per shard), so N workers run the GIL-bound stages on N cores.  This
  module is the only place in the repository allowed to construct
  pipe/queue IPC primitives (staticcheck rule ARCH008).
"""

from __future__ import annotations

import multiprocessing
import select
from typing import Callable, Protocol, runtime_checkable

from repro.reliability.clock import SYSTEM_CLOCK
from repro.serving.sharding.messages import Shutdown
from repro.serving.sharding.worker import ShardWorker, worker_main


@runtime_checkable
class WorkerHandle(Protocol):
    """What the router needs from a worker, whatever its transport."""

    worker_id: str

    def send(self, command) -> None:  # pragma: no cover - protocol
        ...

    def poll(self) -> list:  # pragma: no cover - protocol
        ...

    def pump(self) -> None:  # pragma: no cover - protocol
        ...

    def alive(self) -> bool:  # pragma: no cover - protocol
        ...

    def close(self) -> None:  # pragma: no cover - protocol
        ...


class InlineWorkerHandle:
    """A shard worker hosted on the router's own thread.

    Deterministic by construction: commands execute synchronously in
    send order, queue draining happens only when the router calls
    :meth:`pump`, and all timing reads whatever clock the underlying
    server was built with.  ``kill`` simulates a crash for supervision
    tests — the handle stops answering and reports not-alive, exactly
    like a dead process, without any real process to kill.
    """

    def __init__(self, worker_id: str, server_factory: Callable[[], object]):
        self.worker_id = worker_id
        self.worker = ShardWorker(worker_id, server_factory())
        self._events: list = []
        self._dead = False

    def send(self, command) -> None:
        if self._dead:
            return  # a dead worker hears nothing; supervision recovers
        self._events.extend(self.worker.handle(command))

    def poll(self) -> list:
        if self._dead:
            return []
        events = self._events
        self._events = []
        return events

    def pump(self) -> None:
        """Drain the worker's queue to empty, buffering outcome events."""
        if self._dead:
            return
        while self.worker.queue_depth > 0 and not self.worker.stopping:
            self._events.extend(self.worker.step())

    def alive(self) -> bool:
        return not self._dead and not self.worker.stopping

    def kill(self) -> None:
        """Chaos hook: die like a crashed process (events and all)."""
        self._dead = True
        self._events = []

    def close(self) -> None:
        if not self._dead:
            self.worker.handle(Shutdown())


class ProcessWorkerHandle:
    """A shard worker in a forked child process, spoken to over a pipe.

    ``fork`` start method: the factory closure travels by memory
    inheritance, not pickling, so benchmarks can capture fitted
    parsers; the factory still *runs* post-fork, giving the child its
    own database connections.  Where ``fork`` is unavailable the
    default context is used and the factory must be picklable.

    The pipe and the exit sentinel are registered in a ``select.poll``
    object once, at spawn: :meth:`poll` and :meth:`alive` are then one
    non-blocking ``poll(2)`` each, where ``Connection.poll(0)`` would
    build, register and close a selector on every call of the router's
    loop.  A handle is one child for life; the router restarts a worker
    by building a new handle.
    """

    def __init__(self, worker_id: str, server_factory: Callable[[], object]):
        self.worker_id = worker_id
        ctx = (
            multiprocessing.get_context("fork")
            if "fork" in multiprocessing.get_all_start_methods()
            else multiprocessing.get_context()
        )
        parent_conn, child_conn = ctx.Pipe()
        self._process = ctx.Process(
            target=worker_main,
            args=(child_conn, server_factory, worker_id),
            name=f"shard-{worker_id}",
            daemon=True,
        )
        self._process.start()
        child_conn.close()  # the child owns its end now
        self._conn = parent_conn
        self._readable = select.poll()
        self._readable.register(parent_conn.fileno(), select.POLLIN)
        self._exited = select.poll()
        self._exited.register(self._process.sentinel, select.POLLIN)

    def send(self, command) -> None:
        if not self.alive():
            return  # supervision notices via alive(), not via send errors
        try:
            self._conn.send(command)
        except (BrokenPipeError, OSError):
            pass  # crash detected on the next alive() check

    def poll(self) -> list:
        events: list = []
        try:
            while self._conn is not None and self._readable.poll(0):
                events.append(self._conn.recv())
        except (EOFError, OSError):
            pass  # worker exited; remaining events already collected
        return events

    def pump(self) -> None:
        """No-op: process workers drain their own queues autonomously."""

    def alive(self) -> bool:
        """True until the child exits.  Reads the exit sentinel; only
        once it turns readable does ``is_alive()`` (a waitpid, which
        reaps the child) run."""
        return not self._exited.poll(0) or self._process.is_alive()

    def kill(self) -> None:
        """Chaos hook: hard-kill the child (crash, not clean shutdown)."""
        self._process.terminate()
        self._process.join(timeout=5.0)

    def close(self, timeout_s: float = 10.0) -> None:
        """Clean shutdown: Shutdown command, bounded join, then terminate."""
        if self._process.is_alive():
            self.send(Shutdown())
        deadline = SYSTEM_CLOCK.now() + timeout_s
        self._process.join(timeout=max(0.0, deadline - SYSTEM_CLOCK.now()))
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5.0)
        if self._conn is not None:
            self._conn.close()
            self._conn = None
