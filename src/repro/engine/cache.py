"""Per-database resource cache shared across questions in batch mode.

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
without limit.
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

    def absorb(self, other: "StageCache") -> int:
        """Copy ``other``'s entries into this cache; returns how many.

        Existing keys keep their local value (this cache's entries are
        fresher by definition — it is the one serving traffic), and
        absorbed entries enter at the *LRU* end for the same reason:
        under later capacity pressure the donor's cold entries evict
        before anything this cache was actively using.  Absorbing
        never evicts local entries — when capacity is short, only the
        donor's most recently used entries are taken and the rest are
        dropped.  Used by the sharding layer's warm handoff: when a
        shard moves between in-process workers, the new owner absorbs
        the old owner's warm per-database resources instead of
        rebuilding them.
        """
        entries = self._memo.entries
        fresh = {
            full_key: value
            for full_key, value in other._memo.entries.items()
            if full_key not in entries
        }
        capacity = self._memo.capacity
        if capacity is not None:
            room = capacity - len(entries)
            if room <= 0:
                return 0
            if len(fresh) > room:
                fresh = dict(list(fresh.items())[-room:])
        if fresh:
            merged = dict(fresh)
            merged.update(entries)
            self._memo.entries = merged
        return len(fresh)

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

    @property
    def stats(self) -> dict[str, int | None]:
        return {
            "entries": len(self._memo.entries),
            "hits": self._memo.hits,
            "misses": self._memo.misses,
            "evictions": self._memo.evictions,
            "capacity": self._memo.capacity,
        }
