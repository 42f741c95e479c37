"""The CodeS text-to-SQL parser (paper §4–§8).

:class:`CodeSParser` owns the *model assets* — the pre-trained LM (via
:class:`repro.lm.registry.LMRegistry`), the embedder, the SFT template
index, the schema classifier and the pre-training skeleton bank — and
delegates inference to the staged engine (:mod:`repro.engine`):

    value_retrieve → schema_link → prompt_build → candidate_gen →
    rank → lint_gate → equiv_dedup → execute_beam → degrade

Each stage is a small class with a typed contract over a shared
:class:`~repro.engine.context.InferenceContext`; cross-cutting
concerns (tracing, fault injection) are engine middleware, and
per-database resources (prompt builders, analyzers, cost estimators)
resolve through the parser's clearable
:class:`~repro.engine.cache.StageCache`.  ``generate`` is a thin
facade that runs the engine and packages the result.

Model tiers (1B…15B) differ in embedder width, n-gram order, skeleton
capacity and slot depth — see :mod:`repro.config`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

from repro.analysis.diagnostics import Diagnostic
from repro.config import ModelConfig, get_model_config
from repro.core.retriever import TemplateIndex
from repro.datasets.base import Text2SQLExample
from repro.db.backends.base import backend_dialect
from repro.db.backends.sqlite import Database
from repro.engine import (
    BeamPerturbMiddleware,
    Engine,
    InferenceContext,
    InferenceTrace,
    Middleware,
    StageCache,
    TraceRecorder,
    build_default_engine,
)
from repro.errors import CheckpointError, SQLSyntaxError, TrainingError
from repro.lm.pretrain import PretrainedLM
from repro.lm.registry import DEFAULT_LM_REGISTRY, LMRegistry
from repro.linking.classifier import LinkingExample, SchemaItemClassifier
from repro.linking.features import SchemaFeatureExtractor
from repro.promptgen.builder import DatabasePrompt
from repro.promptgen.options import PromptOptions
from repro.reliability.clock import SYSTEM_CLOCK, Clock
from repro.sqlgen.ast import Query
from repro.sqlgen.dialects import emitter_for
from repro.sqlgen.dialects.sqlite import SQLITE_EMITTER
from repro.sqlgen.parser import parse_sql
from repro.text.embedder import HashedNgramEmbedder

if TYPE_CHECKING:
    from repro.lm.providers.config import RouterConfig
from repro.core.fillcontext import InstantiationContext
from repro.core.slotfill import PlannedTemplate, iter_fills


def pretrained_lm_for(config: ModelConfig) -> PretrainedLM:
    """The pre-trained LM for a model tier, from the default registry."""
    return DEFAULT_LM_REGISTRY.lm_for(config)


@dataclass(frozen=True)
class GenerationResult:
    """The chosen SQL plus diagnostics.

    ``tier`` reports which degradation tier answered: ``"beam"`` (an
    execution-guided beam candidate), ``"skeleton"`` (the pre-training
    skeleton-bank fallback after no beam candidate executed), or
    ``"sentinel"`` (the safe constant query of last resort).

    Lint-gate accounting (all zero when the gate is disabled):
    ``diagnostics`` carries the analyzer findings for the chosen SQL,
    ``lint_demoted`` how many beam candidates were demoted for
    error-tier diagnostics, ``executions_used`` how many beam
    candidates were actually executed, and ``executions_avoided`` how
    many executions the static passes saved: demoted candidates the
    ungated beam would have executed ahead of the winner, plus
    canonically-duplicate candidates that shared a single execution
    with their equivalence-class representative.

    Equivalence-dedup accounting: ``beam_deduped`` is how many beam
    candidates collapsed into an already-seen equivalence class
    (:func:`repro.analysis.equivalence.canonical_key_sql`); each class
    executes only its statically cheapest member.

    ``trace`` carries the engine's per-stage record (wall time via the
    injectable Clock, candidate counts, cache traffic, executions) —
    what ``repro trace`` prints and the eval harness aggregates.
    """

    sql: str
    candidates: tuple[str, ...]
    prompt: DatabasePrompt
    tier: str = "beam"
    diagnostics: tuple[Diagnostic, ...] = ()
    lint_demoted: int = 0
    executions_used: int = 0
    executions_avoided: int = 0
    beam_deduped: int = 0
    trace: InferenceTrace | None = field(default=None, repr=False, compare=False)


class CodeSParser:
    """Retrieval-and-fill text-to-SQL parser with CodeS's architecture."""

    def __init__(
        self,
        model: str = "codes-7b",
        options: PromptOptions | None = None,
        seed: int = 0,
        use_pattern_similarity: bool = True,
        config: ModelConfig | None = None,
        lint_gate: bool = True,
        beam_perturber: Callable[[list[str]], list[str]] | None = None,
        equivalence_dedup: bool = True,
        clock: Clock | None = None,
        lm_registry: LMRegistry | None = None,
        providers: "RouterConfig | None" = None,
    ):
        self.config = config or get_model_config(model)
        self.use_pattern_similarity = use_pattern_similarity
        self.lint_gate = lint_gate
        #: Collapse canonically-equivalent beam candidates into one
        #: execution (repro.analysis.equivalence); sound because
        #: equivalent queries share executability and results.
        self.equivalence_dedup = equivalence_dedup
        #: Fault-injection hook (e.g. reliability.SchemaHallucinator):
        #: applied by BeamPerturbMiddleware right after the rank stage
        #: cuts the beam, before the lint gate sees it.
        self.beam_perturber = beam_perturber
        self.clock = clock or SYSTEM_CLOCK
        options = options or PromptOptions()
        # The model's context length caps the prompt budget (Table 1:
        # CodeS-15B has the shorter 6,144-token context).
        from dataclasses import replace as _replace

        self.options = _replace(
            options,
            max_prompt_chars=min(
                options.max_prompt_chars, self.config.max_context_chars
            ),
        )
        registry = lm_registry or DEFAULT_LM_REGISTRY
        self.lm = registry.lm_for(self.config)
        #: The reliability boundary in front of the LM.  With the
        #: default config (one fault-free zero-latency local provider)
        #: ``router.score`` is arithmetically identical to
        #: ``lm.score``, preserving golden engine parity; a
        #: ``providers=`` topology swaps in failover/hedging without
        #: the engine noticing.  Built through the registry, never by
        #: importing repro.lm.providers here (ARCH006).
        self.router = registry.router_for(
            self.config, providers, clock=clock
        )
        self.embedder = HashedNgramEmbedder(dim=self.config.embed_dim)
        self.extractor = SchemaFeatureExtractor(
            embedder=self.embedder,
            use_comments=self.options.include_comments,
        )
        self.classifier: SchemaItemClassifier | None = None
        self.seed = seed
        self._index = TemplateIndex((), self.embedder)
        #: Shared with every parser over this LM at this capacity.
        self._skeleton_bank = self.lm.skeleton_bank(self.config.skeleton_capacity)
        #: The bank's templates with their fill plans (compiled lazily).
        self._skeleton_plans = tuple(map(PlannedTemplate, self._skeleton_bank))
        #: Per-database resources (builders, analyzers, estimators,
        #: linking scores), shared by every engine this parser builds.
        self.cache = StageCache()
        self._engine = self.build_engine(cache=self.cache)

    def build_engine(
        self,
        middleware: Iterable[Middleware] = (),
        cache: StageCache | None = None,
    ) -> Engine:
        """A staged engine over this parser's model assets.

        The default middleware chain — the Clock-driven TraceRecorder
        and the beam-perturber adapter — always runs outermost-first;
        ``middleware`` is appended after it.  Without a ``cache`` the
        engine gets a fresh :class:`StageCache` of its own, which the
        eval harness's per-database engines rely on; the serving layer
        passes a bounded one.
        """
        base: tuple[Middleware, ...] = (
            TraceRecorder(self.clock),
            BeamPerturbMiddleware(provider=lambda: self.beam_perturber),
        )
        return build_default_engine(
            self, middleware=base + tuple(middleware), cache=cache
        )

    @property
    def engine(self) -> Engine:
        """The parser's default staged engine."""
        return self._engine

    # -- pre-training knowledge ----------------------------------------------

    @property
    def skeleton_bank_size(self) -> int:
        return len(self._skeleton_bank)

    # -- supervised fine-tuning ------------------------------------------------

    def fit(
        self,
        samples: list[tuple[Text2SQLExample, Database]],
        classifier_epochs: int = 30,
        use_external_knowledge: bool = False,
    ) -> None:
        """SFT: index the training templates and train the schema classifier."""
        if not samples:
            raise TrainingError("cannot fine-tune on an empty training set")
        # Each training SQL is parsed once, for its template and its
        # schema-linking labels; one that does not parse gives neither.
        templates: list[tuple[str, Query]] = []
        linking: list[LinkingExample] = []
        for example, database in samples:
            question = (
                example.question_with_knowledge()
                if use_external_knowledge
                else example.question
            )
            try:
                template = parse_sql(example.sql)
            except SQLSyntaxError:
                continue
            templates.append((question, template))
            linking.append(
                LinkingExample.from_sql(question, database.schema, template)
            )
        if not templates:
            raise TrainingError("no parseable training SQL found")
        self._index = TemplateIndex(templates, self.embedder)
        self.classifier = SchemaItemClassifier(
            extractor=self.extractor, seed=self.seed
        )
        self.classifier.fit(linking, epochs=classifier_epochs, seed=self.seed)
        # Builders and linking scores cached pre-fit were built without
        # the trained classifier; drop them so inference sees it.
        self.cache.clear_kind("builder")
        self.cache.clear_kind("values")
        self.cache.clear_kind("link")
        self.cache.clear_kind("link_assets")

    @property
    def fine_tuned(self) -> bool:
        return self.classifier is not None and bool(self._index)

    # -- checkpointing -------------------------------------------------------

    def save(self, path: str) -> None:
        """Persist the fine-tuned state (.npz): index + classifier.

        Pre-training state is derived deterministically from the model
        name, so only the SFT artifacts need to be stored.
        """
        import json

        import numpy as np

        if not self.fine_tuned:
            raise CheckpointError("cannot save a parser that was not fine-tuned")
        index_payload = [
            {
                "question": entry.question,
                "sql": SQLITE_EMITTER.serialize(entry.template),
            }
            for entry in self._index.entries
        ]
        meta = {
            "model": self.config.name,
            "use_pattern_similarity": self.use_pattern_similarity,
            "seed": self.seed,
        }
        state = self.classifier.model.state_dict()
        np.savez(
            path,
            meta=json.dumps(meta),
            index=json.dumps(index_payload),
            **{f"clf_{key}": value for key, value in state.items()},
        )

    @classmethod
    def load(cls, path: str, options: PromptOptions | None = None) -> "CodeSParser":
        """Restore a parser saved with :meth:`save`."""
        import json

        import numpy as np

        try:
            archive = np.load(path, allow_pickle=False)
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
        meta = json.loads(str(archive["meta"]))
        parser = cls(
            meta["model"],
            options=options,
            seed=int(meta["seed"]),
            use_pattern_similarity=bool(meta["use_pattern_similarity"]),
        )
        parser._index = TemplateIndex(
            (
                (item["question"], item["sql"])
                for item in json.loads(str(archive["index"]))
            ),
            parser.embedder,
        )
        if any(entry.template is None for entry in parser._index.entries):
            raise CheckpointError(f"checkpoint {path!r} holds unparseable SQL")
        parser.classifier = SchemaItemClassifier(
            extractor=parser.extractor, seed=parser.seed
        )
        parser.classifier.model.load_state_dict(
            {
                key[len("clf_"):]: archive[key]
                for key in archive.files
                if key.startswith("clf_")
            }
        )
        parser.classifier.trained = True
        parser.cache.clear()
        return parser

    # -- generation ----------------------------------------------------------------

    def generate(
        self,
        question: str,
        database: Database,
        demonstrations: TemplateIndex | list[Text2SQLExample] | None = None,
        external_knowledge: str = "",
        engine: Engine | None = None,
        effort: str = "full",
    ) -> GenerationResult:
        """Translate ``question`` into SQL for ``database``.

        Thin facade over the staged engine: assembles the
        :class:`InferenceContext`, runs the nine stages, and packages
        the context into a :class:`GenerationResult` (with the
        per-stage ``trace``).

        With ``demonstrations`` the engine runs in few-shot ICL mode
        (templates come from the demonstrations plus the pre-training
        skeleton bank); otherwise it uses the SFT index built by
        :meth:`fit`.  Demonstrations are a retriever's per-request index
        (:meth:`DemonstrationRetriever.templates_for`) or a plain example
        list (``[]`` for zero-shot).

        Generation never raises for an unanswerable question: it falls
        through the beam to the skeleton-bank fallback and finally the
        safe sentinel, reporting the answering tier on
        :attr:`GenerationResult.tier`.

        ``engine`` routes the run through a caller-held engine (the
        batch harness keeps one per database); defaults to the
        parser's own.

        ``effort`` selects how much work the pipeline spends:
        ``"full"`` (the default) runs the whole beam search, while
        ``"skeleton"`` skips candidate generation and ranking so the
        degradation ladder answers from the pre-training skeleton bank
        directly — the serving layer requests this under overload.
        """
        if effort not in ("full", "skeleton"):
            raise ValueError(
                f"effort must be 'full' or 'skeleton', got {effort!r}"
            )
        ctx = InferenceContext(
            question=question,
            database=database,
            demonstrations=demonstrations,
            external_knowledge=external_knowledge,
            effort=effort,
        )
        (engine or self._engine).run(ctx)
        return GenerationResult(
            sql=ctx.chosen,
            candidates=tuple(ctx.ordered),
            prompt=ctx.prompt,
            tier=ctx.tier,
            diagnostics=ctx.lint.get(ctx.chosen, ()),
            lint_demoted=len(ctx.demoted),
            executions_used=ctx.executions_used,
            executions_avoided=ctx.executions_avoided,
            beam_deduped=ctx.beam_deduped,
            trace=ctx.trace,
        )

    def _skeleton_fallback(
        self, database: Database, ctx: InstantiationContext, max_templates: int = 24
    ) -> str | None:
        """First executable instantiation from the pre-training bank.

        The graceful-degradation middle tier: when no beam candidate
        executes, fall back on the model's structural repertoire alone
        and return the first instantiation the database accepts, in the
        database's own dialect.
        """
        emitter = emitter_for(backend_dialect(database))
        for template in self._skeleton_plans[:max_templates]:
            for candidate in iter_fills(template.plan(emitter), ctx):
                if database.is_executable(candidate.sql):
                    return candidate.sql
        return None
