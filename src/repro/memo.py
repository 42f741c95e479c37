"""The bounded memo behind every per-database cache.

Stage resources, per-SQL scores, embeddings and linking features are
all pure functions of their key, so each is memoized the same way: a
dict in least-recently-used order (oldest first), refreshed on every
hit and trimmed from the front once it grows past ``capacity``.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

_MISSING = object()


class Memo:
    """Keyed factory cache with LRU eviction and exact counters.

    :meth:`get` returns the value stored under ``key``, building it
    with ``factory(*args)`` on a miss.  Any value is cached, ``None``
    included.  ``capacity`` bounds the entry count; ``None`` means
    unbounded.  ``entries`` is the backing dict, oldest entry first,
    for owners that inspect or evict entries in bulk.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"memo capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.entries: dict[Hashable, Any] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable, factory: Callable[..., Any], *args: Any) -> Any:
        entries = self.entries
        value = entries.pop(key, _MISSING)
        if value is not _MISSING:
            self.hits += 1
            # Re-insertion moves the key to the most-recently-used end.
            entries[key] = value
            return value
        self.misses += 1
        value = entries[key] = factory(*args)
        if self.capacity is not None and len(entries) > self.capacity:
            entries.pop(next(iter(entries)))
            self.evictions += 1
        return value
