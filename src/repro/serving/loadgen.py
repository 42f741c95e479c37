"""Seeded open-loop load generation and deterministic replay.

The workload model is open-loop Poisson: inter-arrival gaps drawn from
``random.Random(seed).expovariate(rate)``, requests cycling through a
dataset's dev examples.  :func:`replay` is a discrete-event loop over
any front door's (Fake)Clock — admit every arrival that is due, make
progress, then sleep to the next arrival or the front door's next due
time (a clock jump on a FakeClock; a short poll while process shard
workers hold work).  Service time comes from the :class:`ServiceModel`
(flat, per-tier simulated costs charged via ``clock.sleep``), so queue
buildup — and therefore watermark crossings, deadline expiry, and
shedding — is a pure function of ``(workload, config, model)``.  Same
seed, same report, byte for byte.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence

from repro.eval.reporting import format_serving_report, format_table
from repro.serving.outcomes import ServeRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datasets.base import Text2SQLExample
    from repro.reliability.clock import Clock
    from repro.serving.metrics import ServerMetrics


class FrontDoor(Protocol):
    """What :func:`replay` drives: a ``Server`` or a ``ShardRouter``.

    ``submit`` returns ``None`` once admitted, else the immediate
    outcome; ``step`` makes progress and returns newly resolved
    outcomes; ``next_due`` is the clock time ``step`` must run again
    (``None``: never).
    """

    clock: "Clock"

    def submit(self, request: ServeRequest): ...
    def step(self) -> list: ...
    def has_work(self) -> bool: ...
    def next_due(self) -> float | None: ...
    def metrics(self) -> "ServerMetrics": ...


@dataclass(frozen=True)
class Arrival:
    """One request and its arrival time, in seconds after replay starts."""

    at: float
    request: ServeRequest


@dataclass(frozen=True)
class ServiceModel:
    """Flat per-tier simulated service costs, charged on the clock.

    The full tier is the paper's expensive path (beam of 4 with
    execution-guided selection); skeleton skips the beam; sentinel is a
    constant-time answer.  The defaults keep full-tier service slower
    than a 20 req/s arrival rate can drain, so overload scenarios are
    easy to provoke in tests.
    """

    full_s: float = 0.08
    skeleton_s: float = 0.02
    sentinel_s: float = 0.002

    def cost(self, tier: str) -> float:
        if tier == "full":
            return self.full_s
        if tier == "skeleton":
            return self.skeleton_s
        if tier == "sentinel":
            return self.sentinel_s
        raise ValueError(f"unknown effort tier {tier!r}")


def poisson_workload(
    examples: "Sequence[Text2SQLExample]",
    n: int,
    rate: float,
    seed: int = 0,
    tenants: tuple[str, ...] = ("default",),
    deadline_s: float | None = None,
) -> list[Arrival]:
    """``n`` arrivals at Poisson rate ``rate``/s cycling through ``examples``."""
    if not examples:
        raise ValueError("cannot build a workload from zero examples")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    rng = random.Random(seed)
    arrivals: list[Arrival] = []
    at = 0.0
    for index in range(n):
        at += rng.expovariate(rate)
        example = examples[index % len(examples)]
        arrivals.append(
            Arrival(
                at=at,
                request=ServeRequest(
                    request_id=f"r{index:05d}",
                    question=example.question,
                    db_id=example.db_id,
                    tenant=tenants[index % len(tenants)],
                    deadline_s=deadline_s,
                ),
            )
        )
    return arrivals


def replay(front: FrontDoor, arrivals: Sequence[Arrival]) -> list:
    """Feed ``arrivals`` through ``front`` until every request resolves.

    Arrival offsets count from the clock reading when replay starts, so
    a trace keeps its shape on any clock.  Between arrivals the loop
    sleeps on ``front.clock`` (a FakeClock replay runs instantly), and
    it exits only when neither arrivals nor unresolved work remain.
    Returns every terminal outcome in resolution order: immediate sheds
    interleaved with completions.
    """
    clock = front.clock
    start = clock.now()
    pending = deque(sorted(arrivals, key=lambda arrival: arrival.at))
    outcomes: list = []
    while pending or front.has_work():
        now = clock.now()
        while pending and start + pending[0].at <= now:
            outcome = front.submit(pending.popleft().request)
            if outcome is not None:
                outcomes.append(outcome)
        outcomes.extend(front.step())
        due = [start + pending[0].at] if pending else []
        if (next_due := front.next_due()) is not None:
            due.append(next_due)
        if not due:
            break  # nothing left that could ever make progress
        gap = min(due) - clock.now()
        if gap > 0:
            clock.sleep(gap)
    return outcomes


@dataclass(frozen=True)
class LoadgenResult:
    """Everything one loadgen run produced."""

    report: str
    metrics: "ServerMetrics"
    outcomes: list
    makespan_s: float

    @property
    def throughput_rps(self) -> float:
        return (
            self.metrics.completed / self.makespan_s if self.makespan_s > 0 else 0.0
        )


def run_loadgen(
    front: FrontDoor,
    arrivals: Sequence[Arrival],
    title: str = "loadgen",
) -> LoadgenResult:
    """Replay ``arrivals`` and package the byte-stable report.

    Through a router the metrics section is the merged cluster
    snapshot: router-side sheds plus every shard's counters.
    """
    started = front.clock.now()
    outcomes = replay(front, arrivals)
    makespan = front.clock.now() - started
    metrics = front.metrics()
    summary_rows = [
        {
            "requests": len(arrivals),
            "completed": metrics.completed,
            "shed": metrics.shed_total,
            "failed": metrics.failed,
            "makespan s": round(makespan, 6),
            "throughput rps": round(
                metrics.completed / makespan if makespan > 0 else 0.0, 4
            ),
        }
    ]
    report = "\n".join(
        [
            format_table(summary_rows, title=f"{title} summary"),
            "",
            format_serving_report(metrics, title=f"{title} metrics"),
        ]
    )
    return LoadgenResult(
        report=report, metrics=metrics, outcomes=outcomes, makespan_s=makespan
    )
