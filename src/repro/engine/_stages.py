"""The nine pipeline stages of the staged inference engine.

INTERNAL MODULE (ARCH004): only :mod:`repro.engine` may import it.
Everything else consumes stages through
:func:`repro.engine.build_default_engine`.

Execution order and contracts over the shared
:class:`~repro.engine.context.InferenceContext`.  Each stage class
declares ``reads`` / ``writes`` tuples; the STAGE001 rule in
``repro.staticcheck`` verifies them against the actual ``ctx``
attribute accesses, and the table below is rendered from the
declarations by :func:`contract_table` (a tier-1 test pins the two
together — edit the tuples, then regenerate this block)::

    value_retrieve  reads:  question, external_knowledge, database
                    writes: linking_question, builder, matched
    schema_link     reads:  question, linking_question, matched, builder, database
                    writes: filtered, schema, scores
    prompt_build    reads:  question, builder, filtered, matched, schema, scores
                    writes: prompt, inst_ctx
    candidate_gen   reads:  question, demonstrations, effort, inst_ctx, scores, matched, database
                    writes: templates, raw_candidates
    rank            reads:  effort, raw_candidates
                    writes: candidates, beam
    lint_gate       reads:  beam, parsed, database
                    writes: analyzer, ordered, lint, demoted
    equiv_dedup     reads:  ordered, analyzer, parsed, database
                    writes: analyzer, estimator, groups, representatives, beam_deduped
    execute_beam    reads:  groups, representatives, ordered, beam_deduped, database
                    writes: chosen, tier, executions_used, executed, dedup_avoided
    degrade         reads:  chosen, tier, inst_ctx, beam, demoted, executed, dedup_avoided, database
                    writes: chosen, tier, executions_avoided

``database`` appears in most read sets because the per-database memo
helpers key their caches on ``id(ctx.database)``; ``ctx.cache`` and
``ctx.trace`` are engine plumbing and ambient (never declared).
``parsed`` is a per-request memo that the stages reading it also add
to, so each beam SQL is parsed at most once per request.
Reading your own write (``degrade`` re-reading ``chosen``) needs no
read declaration unless, as for ``degrade``, the *incoming* value from
an earlier stage is itself an input.

``value_retrieve`` runs before ``schema_link`` because the §6.1 schema
filter *consumes* the §6.2 matched values (Algorithm 1 does the same);
the prompt text depends on the filtered schema but nothing downstream
depends on the text itself, so it is serialized only when read.

The stage bodies are line-for-line ports of the pre-refactor
``CodeSParser.generate`` monolith; the golden parity suite
(``pytest -m engine``) pins them to its captured outputs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import TYPE_CHECKING, Callable

from repro.analysis.analyzer import SemanticAnalyzer
from repro.analysis.catalog import SchemaCatalog
from repro.analysis.cost import CostEstimator
from repro.analysis.diagnostics import has_errors
from repro.analysis.equivalence import canonical_key_sql
from repro.core.ranking import (
    SENTINEL_SQL,
    RequestFacts,
    blend_scores,
    feature_ranges,
    lint_gated_order,
    score_ceiling,
    score_fill,
)
from repro.core.retriever import TemplateIndex
from repro.core.fillcontext import InstantiationContext
from repro.core.slotfill import assignment_fills
from repro.core.structure import cue_structure_prior, question_cues
from repro.db.backends.base import backend_dialect
from repro.engine.context import InferenceContext
from repro.errors import SQLSyntaxError
from repro.linking.features import (
    MemoizedSchemaFeatureExtractor,
    SchemaFeatureExtractor,
)
from repro.linking.lexical import LexicalSchemaScorer
from repro.memo import Memo
from repro.promptgen.builder import (
    DatabasePrompt,
    PromptBuilder,
    apply_schema_ablations,
)
from repro.sqlgen.ast import identifier_key
from repro.sqlgen.dialects import emitter_for, parse_dialect_sql
from repro.text.embedder import MemoizedEmbedder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.parser import CodeSParser
    from repro.linking.classifier import SchemaItemClassifier
    from repro.sqlgen.ast import Query
    from repro.sqlgen.dialects import DialectEmitter


@dataclass(frozen=True)
class _LinkAssets:
    """Per-database schema-linking assets sharing one embedding memo.

    Profiling shows hashed-n-gram embedding dominates request time, and
    linking embeds the same texts over and over: the question once per
    schema item per scoring pass, every item's name/comment once per
    question.  Bundling the extractor, the lexical scorer, and a
    classifier scoring view around one :class:`MemoizedEmbedder` —
    resolved through the :class:`StageCache`, so scoped per database —
    makes the repeats free while producing bit-identical scores.
    Template retrieval embeds the question through the same memo.
    """

    embedder: MemoizedEmbedder
    extractor: SchemaFeatureExtractor
    lexical: LexicalSchemaScorer
    classifier: "SchemaItemClassifier | None"


#: Entries kept per per-database SQL memo.
SQL_MEMO_CAPACITY = 4096


def _new_sql_memos() -> dict[str, Memo]:
    """Per-database memos for pure per-SQL computations.

    Ranked candidates repeat heavily across questions on one schema
    (common templates instantiate to the same SQL), and the LM prior,
    canonical equivalence key, lint diagnostics, and static cost of a
    given SQL string never change for a fixed database.  Memoizing them
    per database turns the repeats into dict hits with bit-identical
    values.
    """
    return {
        name: Memo(SQL_MEMO_CAPACITY) for name in ("lm", "key", "lint", "cost")
    }


def _sql_memos(ctx: InferenceContext, parser: "CodeSParser") -> dict[str, Memo]:
    """The per-database SQL memos, resolved through the cache.

    Keyed by the parser's *router*, not its bare LM: two parsers
    sharing an LM but routing through different provider topologies
    may legitimately observe different scores (a failover can answer
    from a different provider), so their memos must not alias.  The
    backend's dialect is part of the key because the lint, canonical
    key, and cost memos all parse the SQL *in that dialect*: the same
    text can mean different queries under different dialects.
    """
    return ctx.cache.get(
        "sql_memos",
        (id(ctx.database), id(parser.router), backend_dialect(ctx.database)),
        _new_sql_memos,
    )


def _link_assets(ctx: InferenceContext, parser: "CodeSParser") -> _LinkAssets:
    """The per-database linking assets, resolved through the cache."""

    def build() -> _LinkAssets:
        embedder = MemoizedEmbedder(parser.embedder)
        extractor = MemoizedSchemaFeatureExtractor(
            embedder=embedder, use_comments=parser.options.include_comments
        )
        classifier = (
            parser.classifier.with_extractor(extractor)
            if parser.classifier is not None
            else None
        )
        return _LinkAssets(
            embedder=embedder,
            extractor=extractor,
            lexical=LexicalSchemaScorer(extractor),
            classifier=classifier,
        )

    return ctx.cache.get(
        "link_assets",
        (
            id(ctx.database),
            id(parser.classifier),
            id(parser.options),
            id(parser.embedder),
        ),
        build,
    )


class _ParserStage:
    """Base: a stage bound to the parser whose model assets it uses."""

    name = "abstract"

    def __init__(self, parser: "CodeSParser"):
        self.parser = parser

    def run(self, ctx: InferenceContext) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class ValueRetrieveStage(_ParserStage):
    """Resolve the per-database prompt builder and retrieve values (§6.2).

    External knowledge clarifies *schema linking* ("'title' refers to
    book.t2"); it is not part of the user's ask, so value retrieval
    stays on the bare question while ``linking_question`` carries the
    augmented form for the filter and scorers downstream.
    """

    name = "value_retrieve"
    reads = ("question", "external_knowledge", "database")
    writes = ("linking_question", "builder", "matched")

    def run(self, ctx: InferenceContext) -> None:
        parser = self.parser
        ctx.linking_question = ctx.question
        if ctx.external_knowledge:
            ctx.linking_question = f"{ctx.question} ({ctx.external_knowledge})"
        assets = _link_assets(ctx, parser)
        ctx.builder = ctx.cache.get(
            "builder",
            (id(ctx.database), id(parser.options)),
            lambda: PromptBuilder(
                ctx.database, classifier=assets.classifier, options=parser.options
            ),
        )
        matched = ctx.cache.get(
            "values",
            (id(ctx.builder), ctx.question),
            lambda: ctx.builder.retrieve_values(ctx.question),
        )
        ctx.matched = list(matched)


class SchemaLinkStage(_ParserStage):
    """Filter the schema (§6.1) and score its items for slot filling.

    Surface evidence (names, comments, matched values) backs up the
    trained classifier: on schemas unlike the training distribution
    (renamed columns, new domains) the classifier is blind where the
    lexical signal still reads the comments.
    """

    name = "schema_link"
    reads = ("question", "linking_question", "matched", "builder", "database")
    writes = ("filtered", "schema", "scores")

    def run(self, ctx: InferenceContext) -> None:
        parser = self.parser
        linked = ctx.cache.get(
            "link",
            (id(ctx.builder), id(parser.classifier), ctx.question, ctx.linking_question),
            lambda: self._link(ctx),
        )
        ctx.filtered, ctx.schema, ctx.scores = linked

    def _link(self, ctx: InferenceContext):
        parser = self.parser
        assets = _link_assets(ctx, parser)
        filtered = ctx.builder.filter_schema(ctx.linking_question, ctx.matched)
        effective = apply_schema_ablations(filtered.schema, parser.options)
        lexical = assets.lexical.score_schema(
            ctx.linking_question, effective, ctx.matched
        )
        if parser.classifier is not None and parser.classifier.trained:
            learned = assets.classifier.score_schema(
                ctx.linking_question, effective, ctx.matched
            )
            scores = blend_scores(learned, lexical)
        else:
            scores = lexical
        return filtered, effective, scores


class PromptBuildStage(_ParserStage):
    """Assemble the database prompt (§6.3) and seed slot filling.

    The prompt text is serialized when first read
    (:attr:`DatabasePrompt.text`); no later stage reads it.
    """

    name = "prompt_build"
    reads = ("question", "builder", "filtered", "matched", "schema", "scores")
    writes = ("prompt", "inst_ctx")

    def run(self, ctx: InferenceContext) -> None:
        parser = self.parser
        matched = tuple(ctx.matched)
        ctx.prompt = DatabasePrompt(
            schema=ctx.schema,
            matched_values=matched,
            kept_tables=ctx.filtered.kept_tables,
            options=parser.options,
            render=partial(ctx.builder.serialize_prompt, ctx.filtered.schema, matched),
        )
        representative = None
        if parser.options.include_representative_values:
            representative = ctx.builder.representative_values
        ctx.inst_ctx = InstantiationContext(
            question=ctx.question,
            schema=ctx.schema,
            scores=ctx.scores,
            matched_values=ctx.matched,
            use_types=parser.options.include_column_types,
            slot_depth=parser.config.slot_depth,
            representative=representative,
        )


class CandidateGenStage(_ParserStage):
    """Retrieve templates (§8.2) and instantiate them on the schema.

    With demonstrations the engine runs in few-shot ICL mode: templates
    come from the demonstrations, discounted when their skeleton lies
    outside the model's pre-training bank (without fine-tuning a model
    can only reliably *produce* structures it absorbed — this is where
    incremental pre-training pays off at inference time).  The skeleton
    bank backs up sparse or weakly matching templates with the model's
    whole structural repertoire, ranked by question-cue fit.

    Filling and scoring are one lazy loop (bound and prune).  Every
    feature of the score declares its range, so each template, and
    each of its table assignments, has a score ceiling before it is
    filled.  Filling stops, even mid-template, once the beam-size-th
    best score reaches the highest ceiling among the templates left; an
    assignment whose own ceiling that score already reaches is skipped;
    and a fill is LM-scored only if its other terms leave it a chance
    to beat that score.  Only fills that could not enter the beam are
    cut and ties go to the earlier candidate, so the beam is the one an
    exhaustive fill, score and stable sort would cut.
    """

    name = "candidate_gen"
    reads = ("question", "demonstrations", "effort", "inst_ctx", "scores", "matched", "database")
    writes = ("templates", "raw_candidates")

    def run(self, ctx: InferenceContext) -> None:
        if ctx.effort != "full":
            # Load shedding: the ladder asked for a cheaper tier, so
            # the beam machinery is skipped entirely and the degrade
            # stage answers from the skeleton bank (or the sentinel).
            return
        parser = self.parser
        embedder = _link_assets(ctx, parser).embedder
        in_context_mode = ctx.demonstrations is not None
        if not in_context_mode:
            index = parser._index
        elif isinstance(ctx.demonstrations, TemplateIndex):
            index = ctx.demonstrations
        else:
            pool = TemplateIndex(
                ((e.question, e.sql) for e in ctx.demonstrations), embedder
            )
            index = pool.subset(range(len(pool)))
        # The engine's per-database memo of the parser's embedder, which
        # linking has already filled, embeds the question and its pattern.
        retrieved = index.search(
            ctx.question,
            embedder,
            parser.use_pattern_similarity,
            top_n=2 + parser.config.slot_depth,
        )
        if in_context_mode:
            known = parser.lm.known_skeletons(parser.config.skeleton_capacity)
            retrieved = [
                (entry, sim if entry.skeleton in known else 0.35 * sim)
                for entry, sim in retrieved
            ]
        templates = [(entry.plans, sim) for entry, sim in retrieved]
        best_sim = max((sim for _, sim in templates), default=0.0)
        if templates and best_sim >= 0.45:
            bank_quota = max(1, parser.config.slot_depth)
        else:
            bank_quota = max(12, 6 * parser.config.slot_depth)
        cues = question_cues(ctx.question)
        for template in parser._skeleton_plans[:bank_quota]:
            prior = cue_structure_prior(cues, template.profile)
            templates.append((template, 0.35 * prior))
        ctx.templates = templates

        # Candidates are emitted in the backend's own dialect, so every
        # downstream consumer (lint, dedup, execution) sees SQL the
        # backend actually accepts.  On the default SQLite backend this
        # is byte-identical to the historical serializer.
        emitter = emitter_for(backend_dialect(ctx.database))
        lm_memo = _sql_memos(ctx, parser)["lm"]
        facts = RequestFacts.of(
            ctx.question,
            ctx.scores,
            ctx.matched,
            lambda sql: lm_memo.get(sql, parser.router.score, sql),
        )
        ctx.raw_candidates = _fill_and_score(
            templates, ctx.inst_ctx, emitter, facts, parser.config.beam_size
        )


def _fill_and_score(
    templates: list,
    inst_ctx: InstantiationContext,
    emitter: "DialectEmitter",
    facts: RequestFacts,
    beam_size: int,
) -> list[tuple[str, float]]:
    """(sql, score) of each distinct fill that could still reach the
    beam when it was made, in fill order, stopping once none can.

    ``templates`` are (:class:`PlannedTemplate`, similarity) pairs; each
    fills through its plan for ``emitter``'s dialect.

    Table assignments are walked here, not through ``iter_fills``, so
    that a whole assignment is skipped once the beam's floor reaches
    its own ceiling (see :func:`feature_ranges`).  Its fills never
    enter ``seen``; the same SQL made later has the same tables and a
    similarity no higher than ``best_sim`` allowed for, so it loses to
    the floor then too.
    """
    sims = [sim for _, sim in templates]
    # best_sim[i] / reach[i]: the highest similarity of, and the
    # highest score any fill can get from, templates[i:].
    best_sim = list(accumulate(reversed(sims), max))[::-1]
    ceilings = (score_ceiling(feature_ranges(facts, sim)) for sim in reversed(sims))
    reach = list(accumulate(ceilings, max))[::-1]
    # Min-heap of the best beam_size scores so far; once full, its root
    # is the score a later fill has to beat (ties go to the earlier
    # candidate, as in the stable sort of ``rank``).
    best: list[float] = []
    scored: list[tuple[str, float]] = []
    seen: set[str] = set()

    def settled(index: int) -> bool:
        """No fill of ``templates[index:]`` can enter the beam any more
        (nor, as ``reach`` only falls and the floor only rises, of any
        later slice)."""
        return len(best) == beam_size and best[0] >= reach[index]

    for index, (template, sim) in enumerate(templates):
        if settled(index):
            break
        plan = template.plan(emitter)
        for table_map in inst_ctx.table_assignments(plan.tables):
            tables = frozenset(map(identifier_key, table_map.values()))
            ranges = feature_ranges(facts, sim, tables, best_sim[index])
            if len(best) == beam_size and best[0] >= score_ceiling(ranges):
                continue
            for fill in assignment_fills(plan, table_map, inst_ctx):
                key = fill.sql.lower()
                if key in seen:
                    continue
                seen.add(key)
                floor = best[0] if len(best) == beam_size else None
                score = score_fill(fill, sim, facts, ranges, floor)
                if score is None:
                    continue
                scored.append((fill.sql, score))
                if floor is None:
                    heapq.heappush(best, score)
                elif score > floor:
                    heapq.heapreplace(best, score)
                if settled(index):
                    return scored
    return scored


class RankStage(_ParserStage):
    """Order the scored candidates best first and cut the beam.

    The sort is stable, so equal scores keep generation order; this is
    the order ``candidate_gen``'s pruning assumes.
    """

    name = "rank"
    reads = ("effort", "raw_candidates")
    writes = ("candidates", "beam")

    def run(self, ctx: InferenceContext) -> None:
        if ctx.effort != "full":
            return
        ctx.candidates = sorted(ctx.raw_candidates, key=lambda pair: -pair[1])
        ctx.beam = [sql for sql, _ in ctx.candidates[: self.parser.config.beam_size]]


class LintGateStage(_ParserStage):
    """Sink statically dirty candidates below clean ones (PR 2).

    The analyzer's catalog deliberately uses the *unfiltered* schema:
    the prompt's filtered view drops low-scoring columns, and a beam
    candidate referencing a real-but-unprompted column is valid SQL,
    not a hallucination.
    """

    name = "lint_gate"
    reads = ("beam", "parsed", "database")
    writes = ("analyzer", "ordered", "lint", "demoted")

    def run(self, ctx: InferenceContext) -> None:
        parser = self.parser
        ctx.lint = {}
        if parser.lint_gate and ctx.beam:
            ctx.analyzer = _analyzer(ctx)
            lint_memo = _sql_memos(ctx, parser)["lint"]
            analyzer = ctx.analyzer
            parse = _request_parse(ctx)
            ctx.ordered, ctx.lint = lint_gated_order(
                ctx.beam,
                analyzer,
                analyze=lambda sql: lint_memo.get(
                    sql, lambda: tuple(analyzer.analyze_sql(sql, parse))
                ),
            )
        else:
            ctx.ordered = list(ctx.beam)
        ctx.demoted = {
            sql for sql, diags in ctx.lint.items() if has_errors(diags)
        }


class EquivDedupStage(_ParserStage):
    """Collapse canonically-equivalent candidates into one execution (PR 3).

    Grouping runs on the linted order, so classes inherit the gate's
    clean-first rank; each class executes only its statically cheapest
    member.  Sound because equivalent queries share executability and
    results.
    """

    name = "equiv_dedup"
    reads = ("ordered", "analyzer", "parsed", "database")
    writes = ("analyzer", "estimator", "groups", "representatives", "beam_deduped")

    def run(self, ctx: InferenceContext) -> None:
        parser = self.parser
        if parser.equivalence_dedup and ctx.ordered:
            ctx.analyzer = _analyzer(ctx)
            dialect = backend_dialect(ctx.database)
            ctx.estimator = ctx.cache.get(
                "estimator",
                id(ctx.database),
                lambda: CostEstimator(ctx.analyzer.catalog, dialect=dialect),
            )
            memos = _sql_memos(ctx, parser)
            key_memo, cost_memo = memos["key"], memos["cost"]
            estimator = ctx.estimator
            parse = _request_parse(ctx)
            groups: list[list[str]] = []
            group_of: dict[str, int] = {}
            for sql in ctx.ordered:
                group_key = key_memo.get(
                    sql, canonical_key_sql, sql, dialect, parse
                )
                if group_key in group_of:
                    groups[group_of[group_key]].append(sql)
                else:
                    group_of[group_key] = len(groups)
                    groups.append([sql])
            ctx.groups = groups
            ctx.beam_deduped = len(ctx.ordered) - len(groups)
            ctx.representatives = [
                min(
                    group,
                    key=lambda sql: cost_memo.get(
                        sql, estimator.estimate_sql, sql, parse
                    ),
                )
                for group in groups
            ]
        else:
            ctx.groups = [[sql] for sql in ctx.ordered]
            ctx.beam_deduped = 0
            ctx.representatives = [group[0] for group in ctx.groups]


class ExecuteBeamStage(_ParserStage):
    """Execution-guided selection (§9.1.4): first class that executes wins."""

    name = "execute_beam"
    reads = ("groups", "representatives", "ordered", "beam_deduped", "database")
    writes = ("chosen", "tier", "executions_used", "executed", "dedup_avoided")

    def run(self, ctx: InferenceContext) -> None:
        ctx.chosen = None
        ctx.tier = "beam"
        ctx.executions_used = 0
        ctx.executed = set()
        # Full fall-through skips every duplicate; a winner recomputes
        # the saving from its class's first-ranked member below.
        ctx.dedup_avoided = ctx.beam_deduped
        for group, representative in zip(ctx.groups, ctx.representatives):
            ctx.executions_used += 1
            ctx.executed.add(representative)
            if ctx.database.is_executable(representative):
                ctx.chosen = representative
                # Without dedup the loop would have stopped at this
                # class's first-ranked member; everything above it in
                # the linted order minus the classes actually executed
                # was saved by sharing executions.
                ctx.dedup_avoided = ctx.ordered.index(group[0]) - (
                    ctx.executions_used - 1
                )
                break


class DegradeStage(_ParserStage):
    """Degradation ladder (PR 1): beam → skeleton bank → safe sentinel.

    Each tier only answers when the previous one produced nothing
    executable.  Also settles the ``executions_avoided`` accounting:
    demoted candidates that outranked the winner in the raw beam
    (round-trips the ungated loop would have spent) plus duplicates
    that shared a representative's execution.
    """

    name = "degrade"
    reads = ("chosen", "tier", "inst_ctx", "beam", "demoted", "executed", "dedup_avoided", "database")
    writes = ("chosen", "tier", "executions_avoided")

    def run(self, ctx: InferenceContext) -> None:
        parser = self.parser
        if ctx.chosen is None:
            ctx.chosen = parser._skeleton_fallback(ctx.database, ctx.inst_ctx)
            ctx.tier = "skeleton"
        if ctx.chosen is None:
            ctx.chosen = SENTINEL_SQL
            ctx.tier = "sentinel"
        ctx.executions_avoided = 0
        if ctx.tier == "beam" and ctx.chosen in ctx.beam:
            ctx.executions_avoided = sum(
                1
                for sql in ctx.beam[: ctx.beam.index(ctx.chosen)]
                if sql in ctx.demoted and sql not in ctx.executed
            )
        ctx.executions_avoided += ctx.dedup_avoided


def _request_parse(ctx: InferenceContext) -> "Callable[[str, str], Query]":
    """:func:`parse_dialect_sql` memoized in ``ctx.parsed``: the lint,
    key and cost of one SQL share a parse (the trees are frozen, so no
    consumer can change another's), and an unparseable SQL raises the
    same error to each consumer, which applies its own fallback."""
    parsed = ctx.parsed

    def parse(sql: str, dialect: str) -> "Query":
        outcome = parsed.get((sql, dialect))
        if outcome is None:
            try:
                outcome = parse_dialect_sql(sql, dialect)
            except SQLSyntaxError as exc:
                outcome = exc
            parsed[(sql, dialect)] = outcome
        if isinstance(outcome, SQLSyntaxError):
            raise outcome
        return outcome

    return parse


def _analyzer(ctx: InferenceContext) -> SemanticAnalyzer:
    """The per-database semantic analyzer, resolved through the cache."""
    if ctx.analyzer is not None:
        return ctx.analyzer
    return ctx.cache.get(
        "analyzer",
        id(ctx.database),
        lambda: SemanticAnalyzer(
            SchemaCatalog.from_database(ctx.database),
            capabilities=getattr(ctx.database, "capabilities", None),
        ),
    )


#: Stage classes in execution order.
DEFAULT_STAGE_CLASSES = (
    ValueRetrieveStage,
    SchemaLinkStage,
    PromptBuildStage,
    CandidateGenStage,
    RankStage,
    LintGateStage,
    EquivDedupStage,
    ExecuteBeamStage,
    DegradeStage,
)


def contract_table() -> str:
    """The module-docstring contract block, rendered from declarations.

    Single source of truth is the ``reads`` / ``writes`` class
    attributes; a tier-1 test asserts this rendering appears verbatim
    in the module docstring so the prose can never drift from the
    checked contracts again.
    """
    width = max(len(cls.name) for cls in DEFAULT_STAGE_CLASSES)
    lines = []
    for cls in DEFAULT_STAGE_CLASSES:
        lines.append(f"{cls.name:<{width}}  reads:  {', '.join(cls.reads)}")
        lines.append(f"{'':<{width}}  writes: {', '.join(cls.writes)}")
    return "\n".join(lines)


def default_stages(parser: "CodeSParser"):
    """The canonical nine-stage list bound to ``parser``'s model assets."""
    return tuple(stage_cls(parser) for stage_cls in DEFAULT_STAGE_CLASSES)
