"""Staged inference engine: the generate() pipeline as composable parts.

The pipeline the paper describes — prompt construction (§6), template
retrieval (§8), execution-guided beam selection (§9.1.4), plus the
degradation ladder, lint gate and equivalence dedup grown in PRs 1–3 —
runs as nine explicit stages over a shared mutable
:class:`InferenceContext`, composed by an :class:`Engine`:

    value_retrieve → schema_link → prompt_build → candidate_gen →
    rank → lint_gate → equiv_dedup → execute_beam → degrade

Cross-cutting concerns are middleware wrapping every stage — the
:class:`TraceRecorder` (per-stage wall time via the injectable Clock,
candidate counts, cache traffic, executions), and the fault injectors
of :mod:`repro.engine.middleware`.  Per-database resources (prompt
builders, analyzers with their schema catalogs, cost estimators,
linking scores) resolve through a clearable :class:`StageCache`, so
an engine reuses them across every question on its database.

Stage internals live in :mod:`repro.engine._stages` and may not be
imported from outside this package (ARCH004); build pipelines with
:func:`build_default_engine`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.engine.cache import StageCache
from repro.engine.context import InferenceContext
from repro.engine.engine import Engine, Middleware, Stage
from repro.engine.middleware import (
    BeamPerturbMiddleware,
    StageFaultInjector,
    StageLatencyInjector,
)
from repro.engine.trace import InferenceTrace, StageTrace, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.parser import CodeSParser

#: The canonical stage names, in execution order.
STAGE_NAMES = (
    "value_retrieve",
    "schema_link",
    "prompt_build",
    "candidate_gen",
    "rank",
    "lint_gate",
    "equiv_dedup",
    "execute_beam",
    "degrade",
)


def build_default_engine(
    parser: "CodeSParser",
    middleware: Iterable[Middleware] = (),
    cache: StageCache | None = None,
) -> Engine:
    """The nine-stage engine bound to ``parser``'s model assets.

    ``middleware`` wraps every stage (first entry outermost);
    ``cache`` is the per-database :class:`StageCache` (a fresh one per
    engine when omitted, so engines can be isolated per database).
    """
    from repro.engine._stages import default_stages

    return Engine(default_stages(parser), middleware=middleware, cache=cache)


__all__ = [
    "BeamPerturbMiddleware",
    "Engine",
    "InferenceContext",
    "InferenceTrace",
    "Middleware",
    "STAGE_NAMES",
    "Stage",
    "StageCache",
    "StageFaultInjector",
    "StageLatencyInjector",
    "StageTrace",
    "TraceRecorder",
    "build_default_engine",
]
