"""The bounded memo every per-database cache is built on."""

import pytest

from repro.memo import Memo


def test_memo_lru_eviction_counters_and_none_values():
    calls = []

    def build(key):
        calls.append(key)
        return None if key == "none" else key.upper()

    memo = Memo(capacity=2)
    assert memo.get("a", build, "a") == "A"
    assert memo.get("b", build, "b") == "B"
    # a hit returns the stored value without calling the factory and
    # makes "a" the most recently used entry
    assert memo.get("a", build, "a") == "A"
    assert calls == ["a", "b"]
    assert list(memo.entries) == ["b", "a"]
    # past the cap the least recently used entry ("b") goes
    assert memo.get("c", build, "c") == "C"
    assert list(memo.entries) == ["a", "c"]
    # a None result is a value like any other: cached, not rebuilt
    assert memo.get("none", build, "none") is None
    assert memo.get("none", build, "none") is None
    assert calls == ["a", "b", "c", "none"]
    assert (memo.hits, memo.misses, memo.evictions) == (2, 4, 2)


def test_memo_capacity_must_be_positive():
    with pytest.raises(ValueError):
        Memo(capacity=0)
    assert Memo().capacity is None
