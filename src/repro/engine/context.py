"""The shared mutable state one inference flows through the engine.

Every stage reads the fields earlier stages produced and writes its
own; the :class:`InferenceContext` is the *only* channel between
stages, so a stage's contract is exactly "reads X, writes Y" — see the
stage docstrings in :mod:`repro.engine._stages` for the full table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.analyzer import SemanticAnalyzer
    from repro.analysis.diagnostics import Diagnostic
    from repro.core.retriever import TemplateIndex
    from repro.core.slotfill import InstantiationContext
    from repro.db.backends.sqlite import Database
    from repro.datasets.base import Text2SQLExample
    from repro.engine.cache import StageCache
    from repro.engine.trace import InferenceTrace
    from repro.errors import SQLSyntaxError
    from repro.linking.classifier import SchemaScores
    from repro.linking.schema_filter import FilteredSchema
    from repro.promptgen.builder import DatabasePrompt, PromptBuilder
    from repro.retrieval.value_retriever import MatchedValue
    from repro.sqlgen.ast import Query


@dataclass
class InferenceContext:
    """Mutable per-question state threaded through the staged pipeline."""

    # -- request (set by the caller, read-only for stages) -------------------
    question: str
    database: "Database"
    #: A per-request template index or a plain example list (few-shot);
    #: None runs on the SFT index.
    demonstrations: "TemplateIndex | list[Text2SQLExample] | None" = None
    external_knowledge: str = ""
    degrade: bool = True
    #: Effort tier requested by the caller: ``"full"`` runs the whole
    #: beam pipeline; ``"skeleton"`` skips candidate generation and
    #: ranking so the degrade stage answers from the skeleton bank —
    #: the serving layer's load-shedding ladder picks this under
    #: overload.  Requires ``degrade=True``.
    effort: str = "full"

    # -- engine plumbing (set by Engine.run) ---------------------------------
    cache: "StageCache | None" = field(default=None, repr=False)
    trace: "InferenceTrace | None" = field(default=None, repr=False)

    # -- resolved per-database resources -------------------------------------
    builder: "PromptBuilder | None" = field(default=None, repr=False)
    analyzer: "SemanticAnalyzer | None" = field(default=None, repr=False)
    estimator: Any = field(default=None, repr=False)

    # -- stage artifacts, in pipeline order ----------------------------------
    linking_question: str = ""
    matched: "list[MatchedValue]" = field(default_factory=list, repr=False)
    filtered: "FilteredSchema | None" = field(default=None, repr=False)
    schema: Any = field(default=None, repr=False)  # effective (ablated) view
    scores: "SchemaScores | None" = field(default=None, repr=False)
    prompt: "DatabasePrompt | None" = field(default=None, repr=False)
    inst_ctx: "InstantiationContext | None" = field(default=None, repr=False)
    templates: list = field(default_factory=list, repr=False)
    #: (sql, score) of every candidate ``candidate_gen`` scored in full,
    #: in generation order: the fills bound-and-prune left a chance of
    #: reaching the beam, not every candidate the templates could give.
    raw_candidates: list = field(default_factory=list, repr=False)
    #: The same pairs, best first (stable: ties keep generation order).
    candidates: list = field(default_factory=list, repr=False)
    beam: list[str] = field(default_factory=list, repr=False)
    ordered: list[str] = field(default_factory=list, repr=False)
    #: (SQL, dialect) -> its parse tree, or the error parsing raised.
    #: Lint, canonical keys and costs of one beam SQL share one parse
    #: through it; it dies with the request, so no tree outlives it.
    parsed: "dict[tuple[str, str], Query | SQLSyntaxError]" = field(
        default_factory=dict, repr=False
    )
    lint: "dict[str, tuple[Diagnostic, ...]]" = field(
        default_factory=dict, repr=False
    )
    demoted: set[str] = field(default_factory=set, repr=False)
    groups: list[list[str]] = field(default_factory=list, repr=False)
    representatives: list[str] = field(default_factory=list, repr=False)
    beam_deduped: int = 0
    dedup_avoided: int = 0
    executed: set[str] = field(default_factory=set, repr=False)
    executions_used: int = 0
    chosen: str | None = None
    tier: str = "beam"
    executions_avoided: int = 0

    def working_size(self) -> int:
        """Size of the most-derived candidate set produced so far.

        Used by the trace recorder as the candidates-in/out gauge: each
        stage narrows (or widens) the working set, and this reports the
        newest non-empty representation of it.
        """
        for stage_output in (
            self.representatives,
            self.ordered,
            self.beam,
            self.candidates,
            self.raw_candidates,
            self.templates,
        ):
            if stage_output:
                return len(stage_output)
        return 0
