"""Reliability primitives: deadlines, retries, breakers, fault injection.

This package gives the serving path first-class failure machinery:

- :class:`Deadline` / :class:`ExecutionGuard` — wall-clock budgets on
  SQL execution, enforced through SQLite's progress handler;
- :class:`RetryPolicy` — bounded attempts with deterministic seeded
  jittered backoff, no real sleeps in tests;
- :class:`CircuitBreaker` — per-resource closed → open → half-open
  protection so a corrupted database stops consuming retry budget;
- :class:`FaultyDatabase` / :class:`FlakyLLM` — seeded fault injection
  so every reliability path is testable deterministically.

All time flows through the injectable :class:`Clock`; tests use
:class:`FakeClock` and never sleep for real.
"""

from repro.reliability.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.reliability.clock import Clock, FakeClock, MonotonicClock, SYSTEM_CLOCK
from repro.reliability.deadline import Deadline, ExecutionGuard
from repro.reliability.faults import (
    BeamDuplicator,
    FaultDecider,
    FaultyDatabase,
    FlakyLLM,
    SchemaHallucinator,
)
from repro.reliability.retry import RetryPolicy
from repro.reliability.sync import new_lock

__all__ = [
    "BeamDuplicator",
    "CLOSED",
    "CircuitBreaker",
    "Clock",
    "Deadline",
    "ExecutionGuard",
    "FakeClock",
    "FaultDecider",
    "FaultyDatabase",
    "FlakyLLM",
    "HALF_OPEN",
    "MonotonicClock",
    "OPEN",
    "RetryPolicy",
    "SYSTEM_CLOCK",
    "SchemaHallucinator",
    "new_lock",
]
