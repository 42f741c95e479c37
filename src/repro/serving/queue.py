"""The bounded admission queue feeding the micro-batch scheduler.

Admission control starts here: :meth:`AdmissionQueue.offer` never
blocks and returns ``False`` when the queue is at capacity, which the
server converts into a typed ``Overloaded`` outcome.  The scheduler
consumes through :meth:`pop_group`, which atomically pops the oldest
item plus up to ``max_size - 1`` younger items sharing its key — the
per-database micro-batch.  Popping the oldest first guarantees
progress (no key can starve) and keeps arrival order within a batch.

Nothing here blocks or waits: the front door that drives the server
(:func:`repro.serving.loadgen.replay`, or a shard worker's loop) polls
``step`` and sleeps on the injectable clock between arrivals.  A lock
still guards every operation, so ``submit`` and ``step`` stay safe to
call from several threads.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable


class AdmissionQueue:
    """Bounded FIFO with keyed group pops, safe for concurrent use."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: deque = deque()
        self._lock = threading.Lock()

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._items)

    def offer(self, item: Any) -> bool:
        """Enqueue without blocking; ``False`` means the queue is full."""
        with self._lock:
            if len(self._items) >= self.capacity:
                return False
            self._items.append(item)
            return True

    def pop_group(
        self, max_size: int, key_fn: Callable[[Any], Any]
    ) -> list[Any]:
        """Pop the oldest item plus younger items sharing its key.

        Returns at most ``max_size`` items in arrival order, or ``[]``
        when the queue is empty.  Atomicity matters: two workers
        popping concurrently must not split one database's batch.
        """
        if max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        with self._lock:
            if not self._items:
                return []
            head = self._items.popleft()
            group = [head]
            key = key_fn(head)
            kept: deque = deque()
            while self._items and len(group) < max_size:
                item = self._items.popleft()
                if key_fn(item) == key:
                    group.append(item)
                else:
                    kept.append(item)
            kept.extend(self._items)
            self._items = kept
            return group
