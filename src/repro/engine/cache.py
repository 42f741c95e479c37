"""Per-database resource cache shared across one engine's questions.

Prompt builders, semantic analyzers (with their schema catalogs), cost
estimators, value-retrieval results and linking scores are all
derivable from the database alone (or from ``(database, question)``)
and are expensive to rebuild per question.  The :class:`StageCache`
gives them an explicit, clearable lifecycle: stages resolve resources
through :meth:`get`, hit/miss counters feed the per-stage trace, and
:meth:`clear` drops everything (tests, database swaps, memory bounds).

Long serving runs touch many ``(database, question)`` keys, so the
cache can be bounded: with a ``capacity`` it evicts in LRU order and
counts evictions, keeping one engine's working set from growing
without limit.  A cache belongs to one engine and is never merged into
another: a shard worker that gains a database builds its own (the
sharding layer's ``Warm`` command).
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

from repro.memo import Memo


class StageCache:
    """Keyed factory cache with hit/miss accounting and optional LRU bounds.

    A :class:`~repro.memo.Memo` keyed by ``(kind, *key_parts)`` tuples
    — e.g. ``("builder", db_key)`` — so one cache instance can hold
    every resource kind the stages need while :meth:`clear_kind` can
    still evict selectively.

    ``capacity`` bounds the number of entries; when full, the least
    recently *used* entry (reads refresh recency) is evicted and the
    ``evictions`` counter incremented.  ``None`` means unbounded, the
    pre-serving behaviour.
    """

    def __init__(self, capacity: int | None = None) -> None:
        self._memo = Memo(capacity)

    @property
    def hits(self) -> int:
        return self._memo.hits

    @property
    def misses(self) -> int:
        return self._memo.misses

    @property
    def evictions(self) -> int:
        return self._memo.evictions

    def get(self, kind: str, key: Hashable, factory: Callable[[], Any]) -> Any:
        """The cached value for ``(kind, key)``, building it on first use."""
        return self._memo.get((kind, key), factory)

    def clear(self) -> None:
        """Drop every cached resource (counters included)."""
        self._memo = Memo(self._memo.capacity)

    def clear_kind(self, kind: str) -> int:
        """Evict all entries of one resource kind; returns how many."""
        entries = self._memo.entries
        doomed = [key for key in entries if key[0] == kind]
        for key in doomed:
            del entries[key]
        return len(doomed)

    def __len__(self) -> int:
        return len(self._memo.entries)

    def __contains__(self, full_key: tuple) -> bool:
        return full_key in self._memo.entries
