"""Per-stage observability: wall time, candidate flow, cache economy.

:class:`TraceRecorder` is an engine middleware that wraps every stage
with an injectable :class:`~repro.reliability.clock.Clock` (ARCH001:
no raw ``time.*`` reads) and appends one :class:`StageTrace` per stage
to the context's :class:`InferenceTrace`.  The trace is what
``repro trace`` prints and what the eval harness aggregates into
per-stage timing rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.reliability.clock import SYSTEM_CLOCK, Clock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import InferenceContext
    from repro.engine.engine import Stage


@dataclass(frozen=True)
class StageTrace:
    """One stage's execution record.

    ``candidates_in``/``candidates_out`` gauge the working set around
    the stage (see ``InferenceContext.working_size``); ``cache_hits`` /
    ``cache_misses`` are the stage's StageCache traffic; executions are
    the database round-trips the stage spent (``used``) and the ones
    static analysis let it skip (``avoided``).
    """

    stage: str
    wall_s: float
    candidates_in: int = 0
    candidates_out: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    executions_used: int = 0
    executions_avoided: int = 0

    def as_row(self) -> dict[str, object]:
        return {
            "stage": self.stage,
            "wall_ms": round(1000 * self.wall_s, 3),
            "cand_in": self.candidates_in,
            "cand_out": self.candidates_out,
            "cache_hit": self.cache_hits,
            "cache_miss": self.cache_misses,
            "exec_used": self.executions_used,
            "exec_avoided": self.executions_avoided,
        }


@dataclass
class InferenceTrace:
    """The ordered stage records of one ``generate()`` call."""

    stages: list[StageTrace] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return sum(stage.wall_s for stage in self.stages)

    def by_stage(self) -> dict[str, StageTrace]:
        return {stage.stage: stage for stage in self.stages}

    def as_rows(self) -> list[dict[str, object]]:
        return [stage.as_row() for stage in self.stages]


class TraceRecorder:
    """Middleware recording a :class:`StageTrace` around every stage."""

    def __init__(self, clock: Clock | None = None):
        self.clock = clock or SYSTEM_CLOCK

    def __call__(
        self,
        stage: "Stage",
        ctx: "InferenceContext",
        call_next: Callable[[], None],
    ) -> None:
        if ctx.trace is None:
            ctx.trace = InferenceTrace()
        cache = ctx.cache
        hits_before = cache.hits if cache is not None else 0
        misses_before = cache.misses if cache is not None else 0
        used_before = ctx.executions_used
        avoided_before = ctx.executions_avoided
        candidates_in = ctx.working_size()
        start = self.clock.now()
        try:
            call_next()
        finally:
            ctx.trace.stages.append(
                StageTrace(
                    stage=stage.name,
                    wall_s=self.clock.now() - start,
                    candidates_in=candidates_in,
                    candidates_out=ctx.working_size(),
                    cache_hits=(cache.hits - hits_before) if cache else 0,
                    cache_misses=(cache.misses - misses_before) if cache else 0,
                    executions_used=ctx.executions_used - used_before,
                    executions_avoided=ctx.executions_avoided - avoided_before,
                )
            )
