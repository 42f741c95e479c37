"""Cross-cutting middleware: fault injection re-targeted at stages.

PRs 1–3 injected faults by wrapping whole components (FaultyDatabase,
FlakyLLM) or splicing hooks into the generate() monolith
(``beam_perturber``).  With the staged engine, fault injection is just
middleware: each injector targets one stage by name and perturbs its
inputs/outputs or raises, without the pipeline knowing it exists.  The
existing perturbers (:class:`repro.reliability.faults.SchemaHallucinator`,
:class:`~repro.reliability.faults.BeamDuplicator`) plug in unchanged
through :class:`BeamPerturbMiddleware`.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable

from repro.errors import GenerationError
from repro.reliability.clock import SYSTEM_CLOCK, Clock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import InferenceContext
    from repro.engine.engine import Stage

#: A beam perturber: rewrites the candidate list (reliability.faults).
BeamPerturber = Callable[[list[str]], list[str]]


class BeamPerturbMiddleware:
    """Apply a beam perturber right after the ``rank`` stage cuts the beam.

    Exactly where the monolith invoked ``beam_perturber`` — after the
    beam cut, before the lint gate — so SchemaHallucinator /
    BeamDuplicator behave identically as middleware.  ``provider`` is
    read per call, so installing the middleware once and flipping the
    parser's ``beam_perturber`` attribute later still works.
    """

    def __init__(self, provider: Callable[[], BeamPerturber | None]):
        self._provider = provider

    def __call__(
        self,
        stage: "Stage",
        ctx: "InferenceContext",
        call_next: Callable[[], None],
    ) -> None:
        call_next()
        if stage.name != "rank":
            return
        perturber = self._provider()
        if perturber is not None and ctx.beam:
            ctx.beam = list(perturber(ctx.beam))


class StageFaultInjector:
    """Raise an injected :class:`GenerationError` entering one stage.

    The stage-granular re-target of :class:`reliability.faults.FlakyLLM`:
    the seeded RNG makes every injected fault reproducible from
    ``(seed, call order)``, and failing a *specific* stage lets tests
    prove a failure in, say, ``equiv_dedup`` degrades exactly like a
    whole-generator failure (the harness taxonomy catches both).
    """

    def __init__(self, stage: str, error_rate: float = 1.0, seed: int = 0):
        if not 0.0 <= error_rate <= 1.0:
            raise ValueError(f"error_rate must lie in [0, 1], got {error_rate}")
        self.stage = stage
        self.error_rate = float(error_rate)
        self._rng = random.Random(f"stage-fault:{stage}:{seed}")
        self.injected_failures = 0

    def __call__(
        self,
        stage: "Stage",
        ctx: "InferenceContext",
        call_next: Callable[[], None],
    ) -> None:
        if stage.name == self.stage and self._rng.random() < self.error_rate:
            self.injected_failures += 1
            raise GenerationError(
                f"injected fault entering stage {stage.name!r} "
                f"for {ctx.question[:60]!r}"
            )
        call_next()


class StageLatencyInjector:
    """Sleep (via the injectable clock) before one stage runs.

    Makes per-stage timing observable in tests without real time: with
    a ``FakeClock`` the injected delay shows up, exactly once, in that
    stage's :class:`~repro.engine.trace.StageTrace.wall_s`.
    """

    def __init__(self, stage: str, delay_s: float, clock: Clock | None = None):
        if delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {delay_s}")
        self.stage = stage
        self.delay_s = float(delay_s)
        self.clock = clock or SYSTEM_CLOCK

    def __call__(
        self,
        stage: "Stage",
        ctx: "InferenceContext",
        call_next: Callable[[], None],
    ) -> None:
        if stage.name == self.stage:
            self.clock.sleep(self.delay_s)
        call_next()
