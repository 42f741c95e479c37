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

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from repro.analysis.diagnostics import Diagnostic
from repro.config import ModelConfig, get_model_config
from repro.core.ranking import SENTINEL_SQL, lint_gated_order  # noqa: F401 - re-export
from repro.datasets.base import Text2SQLExample
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
from repro.linking.lexical import LexicalSchemaScorer
from repro.promptgen.builder import DatabasePrompt
from repro.promptgen.options import PromptOptions
from repro.reliability.clock import SYSTEM_CLOCK, Clock
from repro.sqlgen.ast import Query
from repro.sqlgen.parser import parse_sql
from repro.sqlgen.dialects.sqlite import SQLITE_EMITTER
from repro.sqlgen.skeleton import skeleton_of_query
from repro.text.embedder import HashedNgramEmbedder, MemoizedEmbedder
from repro.text.pattern import extract_pattern

if TYPE_CHECKING:
    from repro.lm.providers.config import RouterConfig
from repro.core.slotfill import InstantiationContext, instantiate_template


def pretrained_lm_for(config: ModelConfig) -> PretrainedLM:
    """The pre-trained LM for a model tier, from the default registry."""
    return DEFAULT_LM_REGISTRY.lm_for(config)


@dataclass(frozen=True)
class _IndexEntry:
    """One retrievable template with its source question."""

    question: str
    template: Query
    question_vec: np.ndarray = field(repr=False, compare=False, default=None)
    pattern_vec: np.ndarray = field(repr=False, compare=False, default=None)


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
    what ``repro trace`` prints and batch eval aggregates.
    """

    sql: str
    executable: bool
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
        self._lexical_scorer = LexicalSchemaScorer(self.extractor)
        self._index: list[_IndexEntry] = []
        self._skeleton_bank: list[Query] = self._mine_skeleton_bank()
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
        ``middleware`` is appended after it.  Callers that want
        isolated per-database resource reuse (the batch eval harness)
        pass their own ``cache``.
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

    def _mine_skeleton_bank(self) -> list[Query]:
        """Distinct SQL skeletons the model absorbed during pre-training."""
        counts: Counter[str] = Counter()
        representative: dict[str, Query] = {}
        for sql in self.lm.seen_sql:
            try:
                query = parse_sql(sql)
            except SQLSyntaxError:
                continue
            skeleton = skeleton_of_query(query)
            counts[skeleton] += 1
            representative.setdefault(skeleton, query)
        ranked = [skeleton for skeleton, _ in counts.most_common()]
        capacity = self.config.skeleton_capacity
        return [representative[skeleton] for skeleton in ranked[:capacity]]

    @property
    def skeleton_bank_size(self) -> int:
        return len(self._skeleton_bank)

    def _knows_skeleton(self, template: Query) -> bool:
        """Did pre-training expose this SQL structure to the model?"""
        if not hasattr(self, "_skeleton_set"):
            self._skeleton_set = {
                skeleton_of_query(query) for query in self._skeleton_bank
            }
        return skeleton_of_query(template) in self._skeleton_set

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
        entries: list[_IndexEntry] = []
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
            entries.append(
                _IndexEntry(
                    question=question,
                    template=template,
                    question_vec=self.embedder.embed(question),
                    pattern_vec=self.embedder.embed(extract_pattern(question)),
                )
            )
            try:
                linking.append(
                    LinkingExample.from_sql(question, database.schema, example.sql)
                )
            except TrainingError:
                continue
        if not entries:
            raise TrainingError("no parseable training SQL found")
        self._index = entries
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
            for entry in self._index
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
        entries: list[_IndexEntry] = []
        for item in json.loads(str(archive["index"])):
            template = parse_sql(item["sql"])
            question = item["question"]
            entries.append(
                _IndexEntry(
                    question=question,
                    template=template,
                    question_vec=parser.embedder.embed(question),
                    pattern_vec=parser.embedder.embed(extract_pattern(question)),
                )
            )
        parser._index = entries
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

    # -- template retrieval ------------------------------------------------------

    def _entries_from(self, examples: list[Text2SQLExample]) -> list[_IndexEntry]:
        entries = []
        for example in examples:
            try:
                template = parse_sql(example.sql)
            except SQLSyntaxError:
                continue
            entries.append(
                _IndexEntry(
                    question=example.question,
                    template=template,
                    question_vec=self.embedder.embed(example.question),
                    pattern_vec=self.embedder.embed(
                        extract_pattern(example.question)
                    ),
                )
            )
        return entries

    def _retrieve_templates(
        self,
        question: str,
        entries: list[_IndexEntry],
        top_n: int,
        embedder: MemoizedEmbedder,
    ) -> list[tuple[Query, float]]:
        """Top templates by Eq. 4 similarity, diversified by skeleton.

        Near-duplicate templates waste beam slots, so at most two
        entries per SQL skeleton survive.  ``embedder`` embeds the
        question and its pattern: the engine's per-database memo of
        the parser's embedder, which linking has already filled.
        """
        if not entries:
            return []
        question_vec = embedder.embed(question)
        pattern_vec = embedder.embed(extract_pattern(question))
        scored = []
        for entry in entries:
            sim = float(entry.question_vec @ question_vec)
            if self.use_pattern_similarity:
                sim = max(sim, float(entry.pattern_vec @ pattern_vec))
            scored.append((entry.template, sim))
        scored.sort(key=lambda pair: -pair[1])
        diverse: list[tuple[Query, float]] = []
        per_skeleton: Counter[str] = Counter()
        for template, sim in scored:
            skeleton = skeleton_of_query(template)
            if per_skeleton[skeleton] >= 2:
                continue
            per_skeleton[skeleton] += 1
            diverse.append((template, sim))
            if len(diverse) >= top_n:
                break
        return diverse

    # -- generation ----------------------------------------------------------------

    def generate(
        self,
        question: str,
        database: Database,
        demonstrations: list[Text2SQLExample] | None = None,
        external_knowledge: str = "",
        degrade: bool = True,
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
        :meth:`fit`.

        With ``degrade`` (the default) generation never raises for an
        unanswerable question: it falls through the beam to the
        skeleton-bank fallback and finally the safe sentinel, reporting
        the answering tier on :attr:`GenerationResult.tier`.  Pass
        ``degrade=False`` to restore the strict behaviour that raises
        :class:`GenerationError` when no candidate can be built.

        ``engine`` routes the run through a caller-held engine (the
        batch harness keeps one per database); defaults to the
        parser's own.

        ``effort`` selects how much work the pipeline spends:
        ``"full"`` (the default) runs the whole beam search, while
        ``"skeleton"`` skips candidate generation and ranking so the
        degradation ladder answers from the pre-training skeleton bank
        directly — the serving layer requests this under overload.
        Reduced effort requires ``degrade=True`` (there is no beam to
        surface when degradation is off).
        """
        if effort not in ("full", "skeleton"):
            raise ValueError(
                f"effort must be 'full' or 'skeleton', got {effort!r}"
            )
        if effort != "full" and not degrade:
            raise ValueError("reduced effort requires degrade=True")
        ctx = InferenceContext(
            question=question,
            database=database,
            demonstrations=demonstrations,
            external_knowledge=external_knowledge,
            degrade=degrade,
            effort=effort,
        )
        (engine or self._engine).run(ctx)
        return GenerationResult(
            sql=ctx.chosen,
            executable=database.is_executable(ctx.chosen),
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
        and return the first instantiation the database accepts.
        """
        for template in self._skeleton_bank[:max_templates]:
            for candidate in instantiate_template(template, ctx):
                if database.is_executable(candidate.sql):
                    return candidate.sql
        return None
