"""Staged inference engine: unit tests + golden parity (``-m engine``).

The parity suite replays the staged pipeline over every bundled gold
set and compares against ``tests/golden/engine_parity.json``, which was
captured from the pre-refactor ``generate()`` monolith — any
behavioural drift in the decomposition shows up as a golden mismatch.
"""

from __future__ import annotations

import functools
import importlib.util
import inspect
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import CodeSParser
from repro.core.parser import pretrained_lm_for
from repro.core.retriever import DemonstrationRetriever, TemplateIndex
from repro.config import get_model_config
from repro.datasets import (
    SPIDER_VARIANTS,
    build_aminer_simplified,
    build_bank_financials,
    build_bird,
    build_spider,
    build_spider_variant,
)
from repro.engine import (
    STAGE_NAMES,
    Engine,
    InferenceContext,
    StageCache,
    StageFaultInjector,
    StageLatencyInjector,
    TraceRecorder,
)
from repro.engine._stages import _fill_and_score
from repro.core.ranking import (
    FEATURES,
    RANGE_SLACK,
    RequestFacts,
    feature_ranges,
    score_ceiling,
    score_fill,
)
from repro.core.fillcontext import (
    question_aggregate,
    question_comparison_op,
    question_order_direction,
)
from repro.core.slotfill import FilledCandidate, FillPlan, iter_fills
from repro.datasets.base import Text2SQLExample
from repro.datasets.spider import SpiderConfig
from repro.db.backends.base import backend_dialect
from repro.errors import GenerationError, ScoreRangeError, SQLSyntaxError
from repro.eval.harness import evaluate_parser, pair_samples
from repro.core import fillcontext, ranking, slotfill
from repro.linking.classifier import SchemaScores
from repro.lm.registry import DEFAULT_LM_REGISTRY, LMRegistry
from repro.memo import Memo
from repro.reliability.clock import FakeClock
from repro.retrieval.value_retriever import MatchedValue
from repro.sqlgen import parser as sqlgen_parser
from repro.sqlgen.ast import (
    Aggregation,
    BetweenCondition,
    BinaryCondition,
    ColumnRef,
    CompoundCondition,
    Condition,
    Expression,
    InCondition,
    JoinEdge,
    LikeCondition,
    Literal,
    NullCondition,
    OrderItem,
    Query,
    SelectItem,
    identifier_key,
)
from repro.sqlgen.dialects import emitter_for
from repro.sqlgen.dialects.sqlite import SQLITE_EMITTER
from repro.sqlgen.parser import parse_sql
from repro.sqlgen.skeleton import skeleton_of_query
from repro.sqlgen.transform import qualify_columns
from repro.text.embedder import MemoizedEmbedder
from repro.text.pattern import extract_pattern

pytestmark = pytest.mark.engine

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = REPO_ROOT / "tests" / "golden" / "engine_parity.json"

QUESTION = "How many clients are there?"


@pytest.fixture(scope="module")
def bank():
    dataset = build_bank_financials()
    parser = CodeSParser("codes-1b")
    parser.fit(pair_samples(dataset))
    database = dataset.database_of(dataset.dev[0])
    return parser, dataset, database


@pytest.fixture(scope="module")
def spider_1b():
    dataset = build_spider()
    parser = CodeSParser("codes-1b")
    parser.fit(pair_samples(dataset))
    return parser, dataset


@pytest.fixture(scope="module")
def warm_spider_15b():
    """The questions and model of the ``warm_15b_30ms`` benchmark workload."""
    dataset = build_spider(SpiderConfig(n_dev_databases=3))
    parser = CodeSParser("codes-15b")
    parser.fit(pair_samples(dataset))
    return parser, dataset


# -- golden parity ------------------------------------------------------------


def test_staged_engine_matches_prerefactor_goldens():
    """The staged pipeline reproduces the monolith on every gold set."""
    spec = importlib.util.spec_from_file_location(
        "gen_engine_golden", REPO_ROOT / "scripts" / "gen_engine_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["gen_engine_golden"] = module
    spec.loader.exec_module(module)

    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    fresh, raw = module.generate_golden()
    raw_golden = json.loads(module.RAW_PATH.read_text(encoding="utf-8"))
    for block in ("datasets", "few_shot"):
        for name, digests in raw_golden[block].items():
            for index, (old, new) in enumerate(zip(digests, raw[block][name])):
                assert new == old, f"{block} {name}[{index}]: raw candidates drifted"
    assert raw == raw_golden
    assert fresh["model"] == golden["model"]
    assert set(fresh["datasets"]) == set(golden["datasets"])
    for name, rows in golden["datasets"].items():
        new_rows = fresh["datasets"][name]
        assert len(new_rows) == len(rows), name
        for old, new in zip(rows, new_rows):
            assert new == old, (
                f"{name}[{old['index']}] drifted from the pre-refactor "
                f"monolith:\n  golden: {old}\n  staged: {new}"
            )


# -- engine composition -------------------------------------------------------


class _LogStage:
    def __init__(self, name: str, log: list):
        self.name = name
        self.log = log

    def run(self, ctx: InferenceContext) -> None:
        self.log.append(("run", self.name))


def _logging_middleware(tag: str, log: list):
    def middleware(stage, ctx, call_next):
        log.append((f"{tag}:before", stage.name))
        call_next()
        log.append((f"{tag}:after", stage.name))

    return middleware


def test_engine_runs_stages_in_order_with_wrapping_middleware():
    log: list = []
    engine = Engine(
        [_LogStage("a", log), _LogStage("b", log)],
        middleware=(_logging_middleware("outer", log), _logging_middleware("inner", log)),
    )
    engine.run(InferenceContext(question="", database=None))
    assert log == [
        ("outer:before", "a"),
        ("inner:before", "a"),
        ("run", "a"),
        ("inner:after", "a"),
        ("outer:after", "a"),
        ("outer:before", "b"),
        ("inner:before", "b"),
        ("run", "b"),
        ("inner:after", "b"),
        ("outer:after", "b"),
    ]


def test_engine_rejects_duplicate_stage_names():
    log: list = []
    with pytest.raises(ValueError):
        Engine([_LogStage("a", log), _LogStage("a", log)])


def test_default_engine_exposes_canonical_stage_order(bank):
    parser, _, _ = bank
    assert parser.engine.stage_names == STAGE_NAMES


# -- tracing ------------------------------------------------------------------


def test_generate_records_one_trace_entry_per_stage(bank):
    parser, _, database = bank
    result = parser.generate(QUESTION, database)
    assert result.trace is not None
    assert tuple(s.stage for s in result.trace.stages) == STAGE_NAMES
    assert all(s.wall_s >= 0 for s in result.trace.stages)
    assert result.trace.total_s == sum(s.wall_s for s in result.trace.stages)


def test_fake_clock_drives_stage_timing():
    # Timing flows exclusively through the injectable Clock (ARCH001):
    # a clock that never advances reports zero wall time everywhere.
    dataset = build_bank_financials()
    parser = CodeSParser("codes-1b", clock=FakeClock())
    parser.fit(pair_samples(dataset))
    database = dataset.database_of(dataset.dev[0])
    result = parser.generate(QUESTION, database)
    assert result.trace is not None
    assert all(s.wall_s == 0.0 for s in result.trace.stages)


def test_latency_injector_shows_up_in_the_trace():
    clock = FakeClock()
    dataset = build_bank_financials()
    parser = CodeSParser("codes-1b", clock=clock)
    parser.fit(pair_samples(dataset))
    database = dataset.database_of(dataset.dev[0])
    engine = parser.build_engine(
        middleware=(StageLatencyInjector("rank", delay_s=1.5, clock=clock),)
    )
    result = parser.generate(QUESTION, database, engine=engine)
    by_stage = result.trace.by_stage()
    assert by_stage["rank"].wall_s == pytest.approx(1.5)
    assert by_stage["lint_gate"].wall_s == 0.0


# -- stage cache --------------------------------------------------------------


def test_stage_cache_counts_hits_and_misses():
    cache = StageCache()
    assert cache.get("kind", 1, lambda: "built") == "built"
    assert cache.get("kind", 1, lambda: "rebuilt") == "built"
    assert (cache.hits, cache.misses, len(cache), cache.evictions) == (1, 1, 1, 0)
    assert cache._memo.capacity is None
    cache.clear_kind("kind")
    assert cache.get("kind", 1, lambda: "rebuilt") == "rebuilt"
    cache.clear()
    assert len(cache) == 0


def test_repeat_questions_hit_the_per_database_cache(bank):
    parser, _, database = bank
    engine = parser.build_engine()
    parser.generate(QUESTION, database, engine=engine)
    misses_after_first = engine.cache.misses
    result = parser.generate(QUESTION, database, engine=engine)
    assert engine.cache.misses == misses_after_first  # everything reused
    assert sum(s.cache_hits for s in result.trace.stages) > 0


# -- per-request work counts -------------------------------------------------


def _count_candidate_gen_work(parser, monkeypatch) -> tuple[Counter, list]:
    """Count, from here on: successful fills (plan fills, and top-level
    reference fills), fill texts made, AST serializations by the
    stage's emitter, LM-memo lookups, and column rankings (as (scores,
    table) pairs)."""
    counts: Counter = Counter()

    class CountingEmitter:
        def __init__(self, inner):
            self._inner = inner

        def __getattr__(self, name):
            return getattr(self._inner, name)

        def serialize(self, query):
            counts["serialize"] += 1
            return self._inner.serialize(query)

    monkeypatch.setattr(
        "repro.engine._stages.emitter_for",
        lambda dialect: CountingEmitter(emitter_for(dialect)),
    )

    plan_fill = FillPlan.fill

    def counting_plan_fill(self, bound, ctx, variant):
        candidate, variant_matters = plan_fill(self, bound, ctx, variant)
        counts["fills"] += candidate is not None
        return candidate, variant_matters

    monkeypatch.setattr(FillPlan, "fill", counting_plan_fill)

    def counting_candidate(*fields):
        counts["texts"] += 1
        return FilledCandidate(*fields)

    monkeypatch.setattr(slotfill, "FilledCandidate", counting_candidate)

    fill = _ReferenceFiller.fill
    depth = [0]

    def counting_fill(self, template):
        depth[0] += 1
        try:
            filled = fill(self, template)
        finally:
            depth[0] -= 1
        if depth[0] == 0 and filled is not None:
            counts["fills"] += 1
        return filled

    monkeypatch.setattr(_ReferenceFiller, "fill", counting_fill)

    memo_get = Memo.get

    def counting_get(self, key, factory, *args):
        if factory == parser.router.score:
            counts["lm_lookups"] += 1
        return memo_get(self, key, factory, *args)

    monkeypatch.setattr(Memo, "get", counting_get)

    top_columns = SchemaScores.top_columns
    rankings: list[tuple[SchemaScores, str]] = []

    def counting_top_columns(self, table_name, k):
        rankings.append((self, identifier_key(table_name)))
        return top_columns(self, table_name, k)

    monkeypatch.setattr(SchemaScores, "top_columns", counting_top_columns)
    return counts, rankings


def _assert_request_invariant_work_once(counts: Counter, rankings: list) -> None:
    assert counts["fills"] > 0
    assert counts["texts"] == counts["fills"]
    assert counts["serialize"] == 0
    per_table = Counter((id(scores), table) for scores, table in rankings)
    assert per_table and max(per_table.values()) == 1


def test_candidate_gen_does_request_invariant_work_once(bank, monkeypatch):
    """Each fill makes its SQL text once, and no fill serializes an
    AST; each table's columns are ranked once.

    Counts calls during one ``generate()`` on a golden-parity question,
    so a return to per-slot recomputation or to building and
    serializing a query per candidate fails here without any timing.
    """
    parser, dataset, database = bank
    example = dataset.dev[0]
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert golden["datasets"]["bank_financials"][0]["question"] == example.question
    counts, rankings = _count_candidate_gen_work(parser, monkeypatch)
    engine = parser.build_engine()
    result = parser.generate(example.question, database, engine=engine)
    assert result.sql == golden["datasets"]["bank_financials"][0]["sql"]
    _assert_request_invariant_work_once(counts, rankings)


def test_question_cues_are_read_once_per_request(warm_spider_15b, monkeypatch):
    """Each wording cue is read once per request per (cue, default).

    The order-direction, aggregate and comparison readers and the top-k
    and letter patterns are request-invariant; a fill that re-reads
    them, instead of asking the request's ``InstantiationContext``,
    counts twice here.
    """
    parser, dataset = warm_spider_15b
    calls: Counter = Counter()

    def counting(name, reader):
        def cue(question, default):
            calls[name, default] += 1
            return reader(question, default)

        return cue

    class CountingPattern:
        def __init__(self, name, pattern):
            self.name, self.pattern = name, pattern

        def search(self, text):
            calls[self.name, None] += 1
            return self.pattern.search(text)

    for name in (
        "question_order_direction", "question_aggregate", "question_comparison_op"
    ):
        monkeypatch.setattr(slotfill, name, counting(name, getattr(slotfill, name)))
    for name in ("_TOPK_RE", "_LETTER_RE"):
        monkeypatch.setattr(
            fillcontext, name, CountingPattern(name, getattr(fillcontext, name))
        )
    engine = parser.build_engine()
    seen: Counter = Counter()
    for example in dataset.dev[:16]:
        calls.clear()
        parser.generate(
            example.question, dataset.database_of(example), engine=engine
        )
        assert max(calls.values(), default=1) == 1, calls
        seen.update(name for name, _ in calls)
    assert set(seen) == {
        "question_order_direction", "question_aggregate",
        "question_comparison_op", "_TOPK_RE", "_LETTER_RE",
    }


def test_each_bank_template_is_profiled_once(warm_spider_15b, monkeypatch):
    """A skeleton-bank template's structure profile is computed on its
    first use and reused by every later request."""
    parser, dataset = warm_spider_15b
    # Fresh plans, so templates profiled by earlier tests count too.
    bank = tuple(map(slotfill.PlannedTemplate, parser._skeleton_bank))
    monkeypatch.setattr(parser, "_skeleton_plans", bank)
    profiled: Counter = Counter()
    profile_query = slotfill.profile_query

    def counting(query):
        profiled[id(query)] += 1
        return profile_query(query)

    monkeypatch.setattr(slotfill, "profile_query", counting)
    engine = parser.build_engine()
    for _ in range(2):
        for example in dataset.dev:
            parser.generate(
                example.question, dataset.database_of(example), engine=engine
            )
    assert profiled and set(profiled.values()) == {1}
    assert set(profiled) <= {id(template.query) for template in bank}


def _count_parses(monkeypatch) -> Counter:
    """Counts each SQL text handed to the sqlgen parser, from now on."""
    parses: Counter = Counter()
    init = sqlgen_parser._Parser.__init__

    def counting(self, tokens, sql):
        parses[sql] += 1
        init(self, tokens, sql)

    monkeypatch.setattr(sqlgen_parser._Parser, "__init__", counting)
    return parses


def test_first_sight_parses_each_beam_sql_once(warm_spider_15b, monkeypatch):
    """Lint, canonical key and cost of a beam SQL share one parse.

    On a fresh cache the first request parses every beam SQL exactly
    once; later first sights parse only beam SQL the per-database memos
    have not seen, each once; a repeated request parses nothing.
    """
    parser, dataset = warm_spider_15b
    engine = parser.build_engine(cache=StageCache())
    parses = _count_parses(monkeypatch)
    examples = dataset.dev[:12]
    for number, example in enumerate(examples):
        parses.clear()
        ctx = engine.run(
            InferenceContext(
                question=example.question, database=dataset.database_of(example)
            )
        )
        assert max(parses.values(), default=1) == 1, parses.most_common(3)
        assert set(parses) <= set(ctx.beam)
        if number == 0:
            assert ctx.beam and set(parses) == set(ctx.beam)
    for example in examples:
        parses.clear()
        engine.run(
            InferenceContext(
                question=example.question, database=dataset.database_of(example)
            )
        )
        assert not parses


def test_fit_parses_each_training_sql_once(warm_spider_15b, monkeypatch):
    """The SFT index and the classifier's labels share one parse per SQL."""
    _, dataset = warm_spider_15b
    samples = pair_samples(dataset)
    for example, _ in samples:
        # Sharing is sound only if deriving labels leaves the tree as is.
        query = parse_sql(example.sql)
        qualify_columns(query)
        assert query == parse_sql(example.sql)
    parser = CodeSParser("codes-1b")
    parses = _count_parses(monkeypatch)
    parser.fit(samples, classifier_epochs=1)
    assert parses == Counter(example.sql for example, _ in samples)


# -- the reference filler: slot filling over ASTs, as before fill plans ------


def _reference_column_pool(ctx, table_name: str, kind: str) -> tuple:
    """``table_name``'s columns, best-ranked first, filtered by ``kind``."""
    table = ctx.schema.table(table_name)
    pool = tuple(
        table.column(name)
        for name in ctx.scores.top_columns(table_name, len(table.columns))
    )
    if ctx.use_types and kind in ("numeric", "text"):
        types = ("INTEGER", "REAL") if kind == "numeric" else ("TEXT", "DATE")
        pool = tuple(column for column in pool if column.type.upper() in types)
    return pool


class _ReferenceFiller:
    """Fills one template under one (table assignment, variant) choice,
    building the filled query's AST: the fill path fill plans replaced."""

    def __init__(
        self,
        ctx: InstantiationContext,
        table_map: dict[str, str],
        variant: int,
    ):
        self.ctx = ctx
        self.table_map = table_map
        self.variant = variant
        self._column_cache: dict[tuple[str, str], ColumnRef | None] = {}
        self._numbers = list(ctx.question_numbers)
        self._strings = list(ctx.question_strings)
        self._available_values = list(ctx.matched_values)
        self._used_columns: set[str] = set()
        #: Literal slots that had to fall back to template/DB defaults
        #: because nothing in the question grounded them.
        self.ungrounded = 0
        #: Whether some select slot picked by ``variant`` had a column
        #: left past its pick, i.e. ``variant + 1`` would choose another.
        self.variant_matters = False

    # -- table / column mapping ----------------------------------------------

    def _target_table(self, template_table: str) -> str | None:
        if template_table:
            return self.table_map.get(template_table.lower())
        # Unqualified columns belong to the template's only table.
        if len(self.table_map) == 1:
            return next(iter(self.table_map.values()))
        return None

    def map_column(
        self, template_col: ColumnRef, kind: str = "any", role: str = ""
    ) -> ColumnRef | None:
        """Assign a target column to a template column slot.

        The cache is keyed by the template column alone so the same
        template column always maps to the same target column, no
        matter where it re-appears (SELECT vs WHERE vs ORDER BY).
        """
        cache_key = (template_col.key(), "")
        if cache_key in self._column_cache:
            return self._column_cache[cache_key]
        table_name = self._target_table(template_col.table)
        if table_name is None:
            self._column_cache[cache_key] = None
            return None
        candidates = _reference_column_pool(self.ctx, table_name, kind)
        # Projection/grouping/aggregation slots should avoid raw key columns.
        if role in ("select", "group", "agg", "order") and len(candidates) > 1:
            non_keys = [
                c for c in candidates
                if not c.is_primary and not c.name.lower().endswith("_id")
            ]
            if non_keys:
                candidates = non_keys
        if not candidates:
            return None
        # Spread distinct template slots across distinct target columns.
        fresh = [c for c in candidates if f"{table_name}.{c.name.lower()}" not in
                 self._used_columns]
        pool = fresh or candidates
        index = 0
        if role == "select":
            index = min(self.variant, len(pool) - 1)
            self.variant_matters |= index < len(pool) - 1
        chosen = pool[index]
        ref = ColumnRef(table=table_name, column=chosen.name)
        self._used_columns.add(f"{table_name}.{chosen.name.lower()}")
        self._column_cache[cache_key] = ref
        return ref

    # -- literal binding -------------------------------------------------------

    def next_number(self, fallback: Literal) -> Literal:
        if self._numbers:
            return Literal(self._numbers.pop(0))
        self.ungrounded += 1
        return fallback

    def _pop_matched_value(self, table: str, column: str) -> MatchedValue | None:
        target = ColumnRef(table, column).key()
        table_key = identifier_key(table)
        same_column = [
            m for m in self._available_values
            if ColumnRef(m.table, m.column).key() == target
        ]
        pool = same_column or [
            m for m in self._available_values if identifier_key(m.table) == table_key
        ]
        if not pool:
            return None
        best = max(pool, key=lambda m: m.degree)
        self._available_values.remove(best)
        return best

    def bind_text_predicate(
        self, template_col: ColumnRef, fallback: Literal
    ) -> tuple[ColumnRef | None, Literal]:
        """Choose (column, value) for an equality predicate on text.

        Retrieved values pin both the column and the stored surface
        form; without them the question's spans fill the value slot.
        """
        table_name = self._target_table(template_col.table)
        if table_name is None:
            return None, fallback
        # A matched value in the assigned table is the strongest signal.
        preferred_col = self.map_column(template_col, kind="text", role="filter")
        match = self._pop_matched_value(
            table_name, preferred_col.column if preferred_col else ""
        )
        if match is not None:
            return (
                ColumnRef(table=match.table, column=match.column),
                Literal(match.value),
            )
        if preferred_col is None:
            return None, fallback
        if self._strings:
            surface = self._strings.pop(0)
            repaired = self._repair_value_format(
                surface, table_name, preferred_col.column
            )
            return preferred_col, Literal(repaired)
        self.ungrounded += 1
        if self.ctx.representative is not None:
            values = self.ctx.representative(table_name, preferred_col.column)
            values = [v for v in values if isinstance(v, str)]
            if values:
                return preferred_col, Literal(values[0])
        return preferred_col, fallback

    def _repair_value_format(self, surface: str, table: str, column: str) -> str:
        """Align a question-surface value with the column's stored format.

        The prompt's representative values (§6.3) show the model how the
        column actually stores data; when a stored value *contains* the
        question's mention ("Graz" -> "City of Graz", "F" -> "Female"),
        the stored form is copied.  Semantic re-expressions with no
        surface overlap ("approved" -> "granted") cannot be repaired —
        the sparse-retrieval weakness the paper reports on Dr.Spider's
        DBcontent-equivalence split.
        """
        from repro.retrieval.lcs import longest_common_substring

        if self.ctx.representative is None or not surface:
            return surface
        stored_values = [
            value
            for value in self.ctx.representative(table, column)
            if isinstance(value, str)
        ]
        if surface in stored_values:
            return surface
        best = None
        best_containment = 0.0
        for value in stored_values:
            shared = longest_common_substring(surface, value)
            containment = len(shared) / len(surface)
            if containment > best_containment:
                best_containment = containment
                best = value
        if best is not None and best_containment >= 0.8:
            return best
        return surface

    # -- query construction ------------------------------------------------

    def fill(self, template: Query) -> Query | None:
        select_items = []
        for item in template.select_items:
            expr = self._fill_select_expr(item.expr)
            if expr is None:
                return None
            select_items.append(SelectItem(expr=expr))
        from_table = self._target_table(template.from_table) or self._target_table("")
        if from_table is None:
            return None

        joins: list[JoinEdge] = []
        joined_tables = [from_table]
        for edge in template.joins:
            right_table = self._target_table(edge.table)
            if right_table is None or right_table in joined_tables:
                return None
            join = self._build_join(joined_tables, right_table)
            if join is None:
                return None
            joins.append(join)
            joined_tables.append(right_table)

        where = None
        if template.where is not None:
            where = self._fill_condition(template.where)
            if where is None:
                return None
        group_by = []
        for col in template.group_by:
            mapped = self.map_column(col, kind="any", role="group")
            if mapped is None:
                return None
            group_by.append(mapped)
        having = None
        if template.having is not None:
            having = self._fill_condition(template.having)
            if having is None:
                return None
        order_by = []
        for item in template.order_by:
            expr = self._fill_order_expr(item.expr)
            if expr is None:
                return None
            descending = self.ctx.question_cue(
                question_order_direction, item.descending
            )
            order_by.append(OrderItem(expr=expr, descending=descending))

        limit = template.limit
        if limit is not None and self.ctx.question_top_k is not None:
            limit = self.ctx.question_top_k

        # GROUP BY must group by the non-aggregated projection when the
        # template does — keep them aligned.
        if group_by and select_items:
            plain = [
                item.expr for item in select_items
                if isinstance(item.expr, ColumnRef) and item.expr.column != "*"
            ]
            if plain and len(group_by) == 1:
                group_by = [plain[0]]

        return Query(
            select_items=tuple(select_items),
            from_table=from_table,
            joins=tuple(joins),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            distinct=template.distinct,
        )

    def _build_join(self, left_tables: list[str], right_table: str) -> JoinEdge | None:
        for left_table in left_tables:
            fkey = self.ctx.schema.join_edge(left_table, right_table)
            if fkey is not None:
                if identifier_key(fkey.src_table) == identifier_key(right_table):
                    return JoinEdge(
                        table=right_table,
                        left=ColumnRef(fkey.dst_table, fkey.dst_column),
                        right=ColumnRef(fkey.src_table, fkey.src_column),
                    )
                return JoinEdge(
                    table=right_table,
                    left=ColumnRef(fkey.src_table, fkey.src_column),
                    right=ColumnRef(fkey.dst_table, fkey.dst_column),
                )
        # No key metadata: guess by shared column names.
        right = self.ctx.schema.table(right_table)
        for left_table in left_tables:
            left = self.ctx.schema.table(left_table)
            for column in left.columns:
                if right.has_column(column.name):
                    return JoinEdge(
                        table=right_table,
                        left=ColumnRef(left_table, column.name),
                        right=ColumnRef(right_table, column.name),
                    )
        return None

    def _fill_select_expr(self, expr: Expression) -> Expression | None:
        if isinstance(expr, ColumnRef):
            if expr.column == "*":
                return ColumnRef(table="", column="*")
            return self.map_column(expr, kind="any", role="select")
        if isinstance(expr, Aggregation):
            if expr.arg.column == "*":
                return Aggregation(expr.func, ColumnRef("", "*"), expr.distinct)
            func = expr.func
            if func in ("avg", "max", "min", "sum"):
                # Condition the aggregate on the question's wording.
                func = self.ctx.question_cue(question_aggregate, func)
            kind = "numeric" if func in ("sum", "avg", "max", "min") else "any"
            arg = self.map_column(expr.arg, kind=kind, role="agg")
            if arg is None and kind == "numeric":
                arg = self.map_column(expr.arg, kind="any", role="agg")
            if arg is None:
                return None
            return Aggregation(func, arg, expr.distinct)
        if isinstance(expr, Literal):
            return expr
        return None

    def _fill_order_expr(self, expr: Expression) -> Expression | None:
        if isinstance(expr, ColumnRef):
            return self.map_column(expr, kind="numeric", role="order") or self.map_column(
                expr, kind="any", role="order"
            )
        if isinstance(expr, Aggregation):
            return self._fill_select_expr(expr)
        return None

    def _fill_condition(self, cond: Condition) -> Condition | None:
        if isinstance(cond, CompoundCondition):
            filled = []
            for sub in cond.conditions:
                result = self._fill_condition(sub)
                if result is None:
                    return None
                filled.append(result)
            return CompoundCondition(op=cond.op, conditions=tuple(filled))
        if isinstance(cond, BinaryCondition):
            return self._fill_binary(cond)
        if isinstance(cond, InCondition):
            return self._fill_in(cond)
        if isinstance(cond, BetweenCondition):
            column = self.map_column(cond.expr, kind="numeric", role="filter")
            if column is None:
                return None
            low = self.next_number(cond.low)
            high = self.next_number(cond.high)
            if isinstance(low.value, (int, float)) and isinstance(
                high.value, (int, float)
            ) and low.value > high.value:
                low, high = high, low
            return BetweenCondition(expr=column, low=low, high=high)
        if isinstance(cond, LikeCondition):
            column = self.map_column(cond.expr, kind="text", role="filter")
            if column is None:
                return None
            pattern = cond.pattern
            letter = self.ctx.question_letter
            if letter is not None:
                pattern = Literal(f"{letter}%")
            else:
                self.ungrounded += 1
            return LikeCondition(expr=column, pattern=pattern, negated=cond.negated)
        if isinstance(cond, NullCondition):
            column = self.map_column(cond.expr, kind="any", role="filter")
            if column is None:
                return None
            return NullCondition(expr=column, negated=cond.negated)
        return None

    def _fill_binary(self, cond: BinaryCondition) -> Condition | None:
        if isinstance(cond.right, Query):
            # Scalar subquery: map the inner query with the same filler.
            if not isinstance(cond.left, ColumnRef):
                return None
            left = self.map_column(cond.left, kind="numeric", role="filter")
            inner = self.fill(cond.right)
            if left is None or inner is None:
                return None
            return BinaryCondition(left=left, op=cond.op, right=inner)
        if isinstance(cond.left, Aggregation):
            agg = self._fill_select_expr(cond.left)
            if agg is None:
                return None
            right = cond.right
            op = cond.op
            if isinstance(right, Literal) and isinstance(right.value, (int, float)):
                right = self.next_number(right)
                if op in (">", "<", ">=", "<="):
                    op = self.ctx.question_cue(question_comparison_op, op)
            return BinaryCondition(left=agg, op=op, right=right)
        if not isinstance(cond.left, ColumnRef):
            return None
        if isinstance(cond.right, Literal):
            if isinstance(cond.right.value, str):
                column, literal = self.bind_text_predicate(cond.left, cond.right)
                if column is None:
                    return None
                return BinaryCondition(left=column, op=cond.op, right=literal)
            column = self.map_column(cond.left, kind="numeric", role="filter")
            if column is None:
                return None
            op = cond.op
            if op in (">", "<", ">=", "<="):
                op = self.ctx.question_cue(question_comparison_op, op)
            return BinaryCondition(
                left=column, op=op, right=self.next_number(cond.right)
            )
        if isinstance(cond.right, ColumnRef):
            left = self.map_column(cond.left, kind="any", role="filter")
            right = self.map_column(cond.right, kind="any", role="filter")
            if left is None or right is None:
                return None
            return BinaryCondition(left=left, op=cond.op, right=right)
        return None

    def _fill_in(self, cond: InCondition) -> Condition | None:
        if cond.subquery is not None:
            column = self.map_column(cond.expr, kind="any", role="filter")
            inner = self.fill(cond.subquery)
            if column is None or inner is None:
                return None
            return InCondition(
                expr=column, subquery=inner, negated=cond.negated
            )
        values: list[Literal] = []
        column: ColumnRef | None = None
        for value in cond.values:
            if isinstance(value.value, str):
                bound_col, literal = self.bind_text_predicate(cond.expr, value)
                column = column or bound_col
                values.append(literal)
            else:
                values.append(self.next_number(value))
                column = column or self.map_column(
                    cond.expr, kind="numeric", role="filter"
                )
        if column is None:
            return None
        return InCondition(expr=column, values=tuple(values), negated=cond.negated)


def _reference_bindings(query: Query) -> list[tuple[str, object]]:
    """(column key, literal value) pairs of the WHERE's equality/IN predicates."""
    bindings: list[tuple[str, object]] = []

    def visit(cond) -> None:
        if isinstance(cond, BinaryCondition):
            if (
                cond.op == "="
                and isinstance(cond.left, ColumnRef)
                and isinstance(cond.right, Literal)
            ):
                bindings.append((cond.left.key(), cond.right.value))
        elif isinstance(cond, InCondition):
            if isinstance(cond.expr, ColumnRef):
                for value in cond.values:
                    bindings.append((cond.expr.key(), value.value))
        elif isinstance(cond, CompoundCondition):
            for sub in cond.conditions:
                visit(sub)

    if query.where is not None:
        visit(query.where)
    return bindings


def _reference_candidate(query: Query, sql: str, ungrounded: int, dialect: str):
    """A FilledCandidate whose feature inputs come from walking ``query``."""
    bindings = _reference_bindings(query)
    projected = {
        item.expr.key()
        for item in query.select_items
        if isinstance(item.expr, ColumnRef) and item.expr.column != "*"
    }
    first = query.select_items[0].expr
    return FilledCandidate(
        sql,
        ungrounded,
        dialect,
        frozenset(query.columns_used()),
        frozenset(query.tables_used()),
        tuple(bindings),
        bool(projected & {key for key, _ in bindings}),
        len(query.select_items) == 1
        and isinstance(first, Aggregation)
        and first.func == "count"
        and not query.group_by,
    )


def _reference_fill(template, inst_ctx, table_map, variant, emitter):
    """(reference FilledCandidate or None, the filler) for one choice;
    ``filler.filled`` keeps the filled query."""
    filler = _ReferenceFiller(inst_ctx, table_map, variant)
    filled = filler.filled = filler.fill(template)
    if filled is None:
        return None, filler
    sql = emitter.serialize(filled)
    return _reference_candidate(filled, sql, filler.ungrounded, emitter.name), filler


# -- bound-and-prune candidate generation ---------------------------------------


def _after(stage_name: str, action):
    """Middleware running ``action(ctx)`` once ``stage_name`` has run."""

    def middleware(stage, ctx, call_next):
        call_next()
        if stage.name == stage_name:
            action(ctx)

    return middleware


def _every_variant_fills(template, inst_ctx, emitter) -> list[FilledCandidate]:
    """``template``'s reference fills under every (table assignment,
    variant) pair, deduplicated like ``iter_fills`` but with no early
    exit: what the fill plans' enumeration has to reproduce."""
    fills: list[FilledCandidate] = []
    seen: set[str] = set()
    table_maps = inst_ctx.table_assignments(slotfill._template_tables(template))
    for table_map in table_maps:
        for variant in range(max(1, inst_ctx.slot_depth)):
            fill, _ = _reference_fill(template, inst_ctx, table_map, variant, emitter)
            if fill is None or fill.sql.lower() in seen:
                continue
            seen.add(fill.sql.lower())
            fills.append(fill)
    return fills


def _exhaustive_scored(parser, ctx) -> list[tuple[str, float]]:
    """Every distinct candidate of ``ctx.templates``, filled eagerly under
    every variant by the reference filler and scored with the feature
    table, in generation order."""
    emitter = emitter_for(backend_dialect(ctx.database))
    facts = RequestFacts.of(ctx.question, ctx.scores, ctx.matched, parser.router.score)
    scored: list[tuple[str, float]] = []
    seen: set[str] = set()
    for template, sim in ctx.templates:
        ranges = feature_ranges(facts, sim)
        for fill in _every_variant_fills(template.query, ctx.inst_ctx, emitter):
            if fill.sql.lower() not in seen:
                seen.add(fill.sql.lower())
                scored.append((fill.sql, score_fill(fill, sim, facts, ranges)))
    return scored


def _exhaustive_beam(parser, ctx) -> list[str]:
    ranked = sorted(_exhaustive_scored(parser, ctx), key=lambda pair: -pair[1])
    return [sql for sql, _ in ranked[: parser.config.beam_size]]


def _golden_examples(dataset, name: str):
    rows = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["datasets"][name]
    examples = dataset.dev[: len(rows)]
    assert [e.question for e in examples] == [row["question"] for row in rows]
    return examples


SETUPS = ["bank_1b", "spider_1b", "warm_spider_15b"]


def _setup_examples(setup: str, request):
    """(parser, dataset, examples): golden questions of two gold sets at
    codes-1b, or the benchmark's warm Spider questions at codes-15b."""
    if setup == "bank_1b":
        parser, dataset, _ = request.getfixturevalue("bank")
        return parser, dataset, _golden_examples(dataset, "bank_financials")
    if setup == "spider_1b":
        parser, dataset = request.getfixturevalue("spider_1b")
        return parser, dataset, _golden_examples(dataset, "spider")
    parser, dataset = request.getfixturevalue("warm_spider_15b")
    return parser, dataset, dataset.dev


@pytest.mark.parametrize("setup", SETUPS)
def test_pruned_beam_equals_the_exhaustive_reference(setup, request):
    """Pruning changes no beam: golden questions of two gold sets at
    codes-1b and the benchmark's warm Spider questions at codes-15b."""
    parser, dataset, examples = _setup_examples(setup, request)
    for example in examples:
        database = dataset.database_of(example)
        beams: dict[str, list[str]] = {}

        def keep(ctx):
            beams["pruned"] = list(ctx.beam)

        def exhaustive(ctx):
            ctx.beam = beams["reference"] = _exhaustive_beam(parser, ctx)

        pruned = parser.generate(
            example.question,
            database,
            engine=parser.build_engine(middleware=(_after("rank", keep),)),
        )
        reference = parser.generate(
            example.question,
            database,
            engine=parser.build_engine(middleware=(_after("rank", exhaustive),)),
        )
        assert beams["pruned"] == beams["reference"], example.question
        assert pruned.candidates == reference.candidates, example.question
        assert (pruned.sql, pruned.tier) == (reference.sql, reference.tier)


def test_pruned_beam_is_exact_when_a_later_template_repeats_fills_closer(bank):
    """Each request's templates twice, first far (0.2·sim), then close
    (sim + 0.5): every fill of the close copy repeats a far one, which
    the exhaustive reference scores first.  Skipping a beaten far
    assignment must not let the close copy score its SQL instead."""
    parser, dataset, _ = bank
    beam_size = parser.config.beam_size
    contexts = _generated_contexts(
        parser, dataset, _golden_examples(dataset, "bank_financials")
    )
    for ctx in contexts:
        ctx.templates = [(t, 0.2 * sim) for t, sim in ctx.templates] + [
            (t, sim + 0.5) for t, sim in ctx.templates
        ]
        emitter = emitter_for(backend_dialect(ctx.database))
        facts = RequestFacts.of(
            ctx.question, ctx.scores, ctx.matched, parser.router.score
        )
        pruned = _fill_and_score(
            ctx.templates, ctx.inst_ctx, emitter, facts, beam_size
        )
        reference = _exhaustive_scored(parser, ctx)
        assert sorted(pruned, key=lambda pair: -pair[1])[:beam_size] == sorted(
            reference, key=lambda pair: -pair[1]
        )[:beam_size], ctx.question


#: A golden bank_financials question on which the bound fires early.
PRUNED_INDEX = 10


def test_pruning_fills_and_scores_fewer_candidates_than_exhaustive(
    bank, monkeypatch
):
    """Fewer fills and fewer LM-memo lookups than filling everything,
    with each fill still serialized once and each table ranked once."""
    parser, dataset, database = bank
    example = _golden_examples(dataset, "bank_financials")[PRUNED_INDEX]
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    counts, rankings = _count_candidate_gen_work(parser, monkeypatch)
    contexts: list[InferenceContext] = []
    engine = parser.build_engine(middleware=(_after("rank", contexts.append),))
    result = parser.generate(example.question, database, engine=engine)
    assert result.sql == golden["datasets"]["bank_financials"][PRUNED_INDEX]["sql"]
    _assert_request_invariant_work_once(counts, rankings)

    pruned = dict(counts)
    counts.clear()
    ctx = contexts[0]
    emitter = emitter_for(backend_dialect(database))
    distinct = {
        candidate.sql.lower()
        for template, _ in ctx.templates
        for candidate in _every_variant_fills(template.query, ctx.inst_ctx, emitter)
    }
    assert pruned["fills"] < counts["fills"]
    assert pruned["lm_lookups"] < len(distinct)


def _generated_contexts(parser, dataset, examples):
    contexts: list[InferenceContext] = []
    engine = parser.build_engine(middleware=(_after("rank", contexts.append),))
    for example in examples:
        parser.generate(example.question, dataset.database_of(example), engine=engine)
    return contexts


def _assert_in_ranges(fill, sim, facts, ranges) -> None:
    for feature, (lo, hi) in zip(FEATURES, ranges):
        value = feature.value(fill, sim, facts)
        assert lo <= value <= hi, (feature.name, fill.sql, value, lo, hi)
    assert score_fill(fill, sim, facts, ranges) <= score_ceiling(ranges)


@pytest.mark.parametrize("setup", ["bank", "warm_spider_15b"])
def test_every_feature_value_lies_in_its_declared_range(setup, request):
    """On every candidate the templates generate — pruned or not — each
    feature lies in its declared range and each score under its
    template's ceiling; and under every table assignment, each fill
    uses exactly the assigned tables, lies in the assignment's
    tightened ranges and scores under the assignment's ceiling."""
    parser, dataset, *_ = request.getfixturevalue(setup)
    lm_score = functools.cache(parser.router.score)
    checked = 0
    for ctx in _generated_contexts(parser, dataset, dataset.dev[:24]):
        facts = RequestFacts.of(ctx.question, ctx.scores, ctx.matched, lm_score)
        emitter = emitter_for(backend_dialect(ctx.database))
        sims = [sim for _, sim in ctx.templates]
        for index, (template, sim) in enumerate(ctx.templates):
            ranges = feature_ranges(facts, sim)
            assert ranges == [
                (lo - RANGE_SLACK, hi + RANGE_SLACK)
                for lo, hi in (f.bounds(facts, (sim, sim), None) for f in FEATURES)
            ]
            # Every (assignment, variant) reference fill: a superset of
            # _every_variant_fills, which drops repeats.
            table_maps = ctx.inst_ctx.table_assignments(
                slotfill._template_tables(template.query)
            )
            for table_map in table_maps:
                tables = frozenset(map(identifier_key, table_map.values()))
                tight = feature_ranges(facts, sim, tables, max(sims[index:]))
                for variant in range(max(1, ctx.inst_ctx.slot_depth)):
                    fill, _ = _reference_fill(
                        template.query, ctx.inst_ctx, table_map, variant, emitter
                    )
                    if fill is None:
                        continue
                    assert fill.tables == tables
                    _assert_in_ranges(fill, sim, facts, ranges)
                    _assert_in_ranges(fill, sim, facts, tight)
                    checked += 1
    assert checked > 0


def test_warm_questions_fill_and_score_within_budget(warm_spider_15b, monkeypatch):
    """On the benchmark's warm questions at codes-15b, skipping beaten
    table assignments keeps plan fills (``FillPlan.fill`` calls) at
    most 2400 and ``score_fill`` calls at most 1700, against 3494 and
    2522 AST fills and scores with one ceiling per template."""
    parser, dataset = warm_spider_15b
    calls: Counter = Counter()
    fill = FillPlan.fill
    score = score_fill

    def counting_fill(self, bound, ctx, variant):
        calls["fill"] += 1
        return fill(self, bound, ctx, variant)

    def counting_score(*args):
        calls["score_fill"] += 1
        return score(*args)

    monkeypatch.setattr(FillPlan, "fill", counting_fill)
    monkeypatch.setattr("repro.engine._stages.score_fill", counting_score)
    engine = parser.build_engine()
    for example in dataset.dev:
        parser.generate(example.question, dataset.database_of(example), engine=engine)
    assert 0 < calls["fill"] <= 2400, calls
    assert 0 < calls["score_fill"] <= 1700, calls


def test_table_bounds_are_computed_once_per_table_set(warm_spider_15b, monkeypatch):
    """``candidate_gen`` computes the table-dependent feature bounds once
    per (request, table set) and reuses them across templates; every
    range it builds equals each feature's widened bounds, bit for bit."""
    parser, dataset = warm_spider_15b
    computed: list = []
    asked = 0
    table_bounds = ranking.table_ranges
    ranges_of = feature_ranges

    def counting_bounds(facts, tables):
        computed.append((facts, tables))
        return table_bounds(facts, tables)

    def checked_ranges(facts, sim, tables=None, best_sim=None):
        nonlocal asked
        asked += 1
        sims = (sim, sim if best_sim is None else best_sim)
        ranges = ranges_of(facts, sim, tables, best_sim)
        assert ranges == [
            (lo - RANGE_SLACK, hi + RANGE_SLACK)
            for lo, hi in (f.bounds(facts, sims, tables) for f in FEATURES)
        ]
        return ranges

    monkeypatch.setattr(ranking, "table_ranges", counting_bounds)
    monkeypatch.setattr("repro.engine._stages.feature_ranges", checked_ranges)
    engine = parser.build_engine()
    for example in dataset.dev[:24]:
        parser.generate(example.question, dataset.database_of(example), engine=engine)
    distinct = {(id(facts), tables) for facts, tables in computed}
    assert 0 < len(computed) == len(distinct) < asked


# -- screened template retrieval ---------------------------------------------------


def _retrieve_reference(parser, question, index, top_n, embedder):
    """Template retrieval as one exact dot product per entry, a stable
    sort on similarity and the two-per-skeleton walk."""
    question_vec = embedder.embed(question)
    pattern_vec = embedder.embed(extract_pattern(question))
    scored = []
    for row, entry in enumerate(index.entries):
        sim = float(index.question_matrix[row] @ question_vec)
        if parser.use_pattern_similarity:
            sim = max(sim, float(index.pattern_matrix[row] @ pattern_vec))
        scored.append((entry, sim))
    scored.sort(key=lambda pair: -pair[1])
    diverse = []
    per_skeleton: Counter = Counter()
    for entry, sim in scored:
        skeleton = skeleton_of_query(entry.template)
        if per_skeleton[skeleton] >= 2:
            continue
        per_skeleton[skeleton] += 1
        diverse.append((entry, sim))
        if len(diverse) >= top_n:
            break
    return diverse


def _assert_retrieval_exact(parser, question, index, top_n, embedder):
    screened = index.search(question, embedder, parser.use_pattern_similarity, top_n)
    reference = _retrieve_reference(parser, question, index, top_n, embedder)
    position = {id(entry): row for row, entry in enumerate(index.entries)}
    assert [(position[id(e)], s.hex()) for e, s in screened] == [
        (position[id(e)], s.hex()) for e, s in reference
    ], question


#: The datasets ``repro eval --dataset`` offers.
CLI_DATASETS = {
    "spider": build_spider,
    "bird": build_bird,
    **{
        name: (lambda name=name: build_spider_variant(name))
        for name in SPIDER_VARIANTS
    },
    "bank_financials": build_bank_financials,
    "aminer_simplified": build_aminer_simplified,
}


@pytest.fixture(scope="module")
def cli_datasets():
    return {name: build() for name, build in CLI_DATASETS.items()}


def _window(number: int, size: int, pool_size: int) -> list[int]:
    """Pool rows of the demonstration window for dev question ``number``."""
    start = 7 * number % pool_size
    return [row % pool_size for row in range(start, min(start + size, 2 * pool_size))]


@pytest.mark.parametrize("model", ["codes-1b", "codes-3b", "codes-7b", "codes-15b"])
def test_screened_retrieval_equals_the_per_entry_reference(model, cli_datasets):
    """Every dev question of every CLI dataset retrieves, from the SFT
    index and from a window of demonstrations (a row subset of the
    pool's index), exactly the entries and similarity bits of one exact
    dot product per entry."""
    parser = CodeSParser(model)
    top_n = 2 + parser.config.slot_depth
    embedder = MemoizedEmbedder(parser.embedder)
    for dataset in cli_datasets.values():
        train = dataset.train
        index = TemplateIndex(((e.question, e.sql) for e in train), embedder)
        pool = TemplateIndex(((e.question, e.sql) for e in train), parser.embedder)
        for number, example in enumerate(dataset.dev):
            _assert_retrieval_exact(parser, example.question, index, top_n, embedder)
            demonstrations = pool.subset(_window(number, 2 * top_n + 2, len(train)))
            _assert_retrieval_exact(
                parser, example.question, demonstrations, top_n, embedder
            )


def _entries_from(examples, embedder) -> TemplateIndex:
    """The per-request index as each few-shot request once built it: the
    demonstrations' parseable templates, parsed and embedded anew."""
    pairs = []
    for example in examples:
        try:
            parse_sql(example.sql)
        except SQLSyntaxError:
            continue
        pairs.append((example.question, example.sql))
    return TemplateIndex(pairs, embedder)


def _index_bits(index: TemplateIndex) -> list[tuple]:
    return [
        (
            entry.question,
            SQLITE_EMITTER.serialize(entry.template),
            entry.skeleton,
            index.question_matrix[row].tobytes(),
            index.pattern_matrix[row].tobytes(),
        )
        for row, entry in enumerate(index.entries)
    ] + [(index.question_matrix.shape, index.slack)]


def test_pool_subsets_equal_the_per_request_reference(cli_datasets):
    """A row subset of the pool's index holds exactly the questions,
    template SQL, skeleton keys and vector bits of an index parsed and
    embedded from those demonstrations, skipping an unparseable one."""
    parser = CodeSParser("codes-7b")
    embedder = MemoizedEmbedder(parser.embedder)
    for dataset in cli_datasets.values():
        train = list(dataset.train)
        broken = Text2SQLExample(train[3].question + " again", "SELEC nope", train[3].db_id)
        train.insert(5, broken)
        pool = TemplateIndex(((e.question, e.sql) for e in train), parser.embedder)
        assert pool.entries[5].template is None and pool.entries[5].skeleton is None
        windows = [_window(number, 12, len(train)) for number in range(len(dataset.dev))]
        assert any(5 in rows for rows in windows)
        for rows in windows:
            reference = _entries_from([train[row] for row in rows], embedder)
            assert _index_bits(pool.subset(rows)) == _index_bits(reference)


class _ReferenceRetriever:
    """Demonstration selection as the retriever once computed it: its own
    question and pattern matrices and a mergesort on Eq. 4."""

    def __init__(self, pool, embedder, mode, seed=0):
        self.pool = list(pool)
        self.embedder = embedder
        self.mode = mode
        self._rng = random.Random(seed)
        self._question_matrix = np.stack([embedder.embed(e.question) for e in self.pool])
        self._pattern_matrix = np.stack(
            [embedder.embed(extract_pattern(e.question)) for e in self.pool]
        )

    def _select_reference(self, question, k):
        if k <= 0 or not self.pool:
            return []
        if self.mode == "random":
            return [(e, 0.0) for e in self._rng.sample(self.pool, min(k, len(self.pool)))]
        question_sims = self._question_matrix @ self.embedder.embed(question)
        if self.mode == "pattern-aware":
            pattern_vec = self.embedder.embed(extract_pattern(question))
            sims = np.maximum(question_sims, self._pattern_matrix @ pattern_vec)
        else:
            sims = question_sims
        order = np.argsort(-sims, kind="mergesort")[:k]
        return [(self.pool[index], float(sims[index])) for index in order]


@pytest.mark.parametrize("model", ["codes-1b", "codes-3b", "codes-7b", "codes-15b"])
def test_selection_equals_the_reference_retriever(model, cli_datasets):
    """On every dev question of every CLI dataset, both ranked modes pick
    the reference's rows with its score bits for k in 1, 3, 5 and 8, and
    seeded random mode draws the reference's sequence."""
    embedder = MemoizedEmbedder(CodeSParser(model).embedder)
    for dataset in cli_datasets.values():
        for mode in ("pattern-aware", "question-only"):
            retriever = DemonstrationRetriever(dataset.train, embedder, mode=mode)
            reference = _ReferenceRetriever(dataset.train, embedder, mode)
            for example in dataset.dev:
                for k in (1, 3, 5, 8):
                    picked = [
                        (retriever.pool[hit.row], hit.score.hex())
                        for hit in retriever.retrieve(example.question, k)
                    ]
                    expected = [
                        (e, score.hex())
                        for e, score in reference._select_reference(example.question, k)
                    ]
                    assert picked == expected, (mode, k, example.question)
        retriever = DemonstrationRetriever(dataset.train, embedder, mode="random", seed=5)
        reference = _ReferenceRetriever(dataset.train, embedder, "random", seed=5)
        for k in (1, 3, 5, 8) * 5:
            assert [e for e, _ in reference._select_reference("q", k)] == [
                hit.example for hit in retriever.retrieve("q", k)
            ]


class _NearEmbedder:
    """Unit vectors within ``scale`` of a few shared directions, so exact
    similarities tie or differ by less than the screen's slack."""

    dim = 320

    def __init__(self, scale: float, directions: int):
        rng = np.random.default_rng(7)
        self.bases = rng.standard_normal((directions, self.dim))
        self.scale = scale

    def embed(self, text: str) -> np.ndarray:
        rng = np.random.default_rng(sum(map(ord, text)) * 131 + len(text))
        vec = self.bases[len(text) % len(self.bases)] + self.scale * (
            rng.standard_normal(self.dim)
        )
        return vec / np.linalg.norm(vec)


_ADVERSARIAL_SQL = [
    "SELECT name FROM t",
    "SELECT count(*) FROM t",
    "SELECT name FROM t WHERE id = 1",
    "SELECT name FROM t ORDER BY id DESC LIMIT 1",
]


@pytest.mark.parametrize("scale", [0.0, 1e-16, 1e-14, 1e-12, 1e-3])
def test_screened_retrieval_is_exact_on_adversarial_indexes(scale):
    """Duplicated entries tie exactly and keep index order; entries whose
    similarities differ by less than the slack come out as the
    reference orders them."""
    embedder = _NearEmbedder(scale, directions=3)
    questions = [f"question number {i} {'x' * (i % 5)}" for i in range(60)]
    pairs = [
        (question, _ADVERSARIAL_SQL[i % len(_ADVERSARIAL_SQL)])
        for i, question in enumerate(questions)
    ]
    duplicated = TemplateIndex(pairs * 3, embedder)
    distinct = TemplateIndex(pairs, embedder)
    assert distinct.slack < 1e-12
    for parser in (
        CodeSParser("codes-1b"),
        CodeSParser("codes-1b", use_pattern_similarity=False),
    ):
        for index in (duplicated, distinct):
            for question in questions[:12] + ["an unseen question"]:
                for top_n in (1, 4, 7, 400):
                    _assert_retrieval_exact(parser, question, index, top_n, embedder)


@pytest.mark.parametrize("setup", SETUPS)
def test_iter_fills_equals_every_variant_reference(setup, request, monkeypatch):
    """Skipping variants that cannot change the fill yields, for every
    template a request retrieves, exactly the every-variant reference's
    fills (SQL and ungrounded count) in the same order, with no more
    plan fills than top-level reference fills, and strictly fewer on
    the warm set."""
    parser, dataset, examples = _setup_examples(setup, request)
    calls = Counter()
    plan_fill, reference_fill = FillPlan.fill, _ReferenceFiller.fill
    depth = [0]

    def counting_plan_fill(self, bound, ctx, variant):
        calls["iter_fills"] += 1
        return plan_fill(self, bound, ctx, variant)

    def counting_reference_fill(self, template):
        calls["reference"] += depth[0] == 0
        depth[0] += 1
        try:
            return reference_fill(self, template)
        finally:
            depth[0] -= 1

    contexts = _generated_contexts(parser, dataset, examples)
    monkeypatch.setattr(FillPlan, "fill", counting_plan_fill)
    monkeypatch.setattr(_ReferenceFiller, "fill", counting_reference_fill)
    for ctx in contexts:
        emitter = emitter_for(backend_dialect(ctx.database))
        for template, _ in ctx.templates:
            fills = [
                (f.sql, f.ungrounded_literals)
                for f in iter_fills(FillPlan(template.query, emitter), ctx.inst_ctx)
            ]
            reference = [
                (f.sql, f.ungrounded_literals)
                for f in _every_variant_fills(template.query, ctx.inst_ctx, emitter)
            ]
            assert fills == reference, (ctx.question, template.query)
    assert 0 < calls["iter_fills"] <= calls["reference"]
    if setup == "warm_spider_15b":
        assert calls["iter_fills"] < calls["reference"]


@pytest.mark.parametrize("setup", ["bank_1b", "spider_1b"])
def test_fill_plans_equal_the_reference_filler_in_every_dialect(setup, request):
    """For every (template, table assignment, variant) the golden
    questions retrieve, the plan's fill equals the reference filler's
    AST: its SQL serialized in sqlite, ansi and tsql, its ungrounded
    count and its feature inputs (columns, tables, bindings, overlap,
    COUNT shape), and the SQL parses back to that AST.  Where the
    plan's table assignment binds, it also agrees on whether the next
    variant could fill differently; where it does not, no variant of
    the reference fills."""
    parser, dataset, examples = _setup_examples(setup, request)
    checked = Counter()
    for ctx in _generated_contexts(parser, dataset, examples):
        inst_ctx = ctx.inst_ctx
        for dialect in ("sqlite", "ansi", "tsql"):
            emitter = emitter_for(dialect)
            for template, _ in ctx.templates:
                plan = FillPlan(template.query, emitter)
                for table_map in inst_ctx.table_assignments(plan.tables):
                    bound = plan.bind(table_map, inst_ctx)
                    for variant in range(max(1, inst_ctx.slot_depth)):
                        reference, filler = _reference_fill(
                            template.query, inst_ctx, table_map, variant, emitter
                        )
                        if bound is None:
                            assert reference is None, reference.sql
                            checked["unbound"] += 1
                            continue
                        fill, variant_matters = plan.fill(bound, inst_ctx, variant)
                        assert fill == reference, (dialect, template.query, variant)
                        assert variant_matters == filler.variant_matters
                        if fill is not None:
                            assert fill.query == filler.filled, fill.sql
                        checked[dialect, fill is not None] += 1
    assert all(checked[dialect, True] > 0 for dialect in ("sqlite", "ansi", "tsql"))


#: Templates that walk every node kind a plan compiles, its fallbacks
#: and the shapes no fill gets past (a self-join, an aggregate compared
#: with a subquery, an ORDER BY literal).
_NODE_TEMPLATES = [
    "SELECT DISTINCT t.a, COUNT(*) FROM t WHERE t.b = 'x' AND t.c > 3 "
    "GROUP BY t.a HAVING COUNT(*) >= 2 ORDER BY COUNT(*) DESC LIMIT 5",
    "SELECT a.x FROM a JOIN b ON a.k = b.k JOIN c ON b.k = c.k "
    "WHERE c.y IN ('p', 'q') OR ( b.z BETWEEN 10 AND 2 AND a.w LIKE 'A%' )",
    "SELECT t.a FROM t WHERE t.b > ( SELECT AVG(t.b) FROM t ) ORDER BY t.c ASC",
    "SELECT t.a FROM t WHERE t.b NOT IN ( SELECT s.b FROM s ) AND t.c IS NOT NULL",
    "SELECT a.x FROM a JOIN a ON a.k = a.k",
    "SELECT MAX(t.a), MIN(t.b), SUM(t.c), AVG(DISTINCT t.d), 1 FROM t "
    "WHERE t.e = 3 AND t.f != 'v'",
    "SELECT t.a FROM t ORDER BY 1",
    "SELECT t.a FROM t WHERE t.b = t.c",
    "SELECT t.a FROM t WHERE t.b IN (1, 'x', 2.5) AND t.c IN ('y', 7)",
    "SELECT t.a FROM t GROUP BY t.a HAVING MAX(t.b) > ( SELECT MAX(t.b) FROM t )",
    "SELECT t.a FROM t WHERE t.b > 5 UNION SELECT s.a FROM s",
    "SELECT t.* FROM t WHERE t.b IS NULL LIMIT 3",
    "SELECT COUNT(t.a) FROM t WHERE t.b < -3.5 AND t.c = NULL",
    "SELECT a.x, b.y FROM a JOIN b ON a.k = b.k GROUP BY a.x, b.y",
    "SELECT t.a FROM t GROUP BY t.a HAVING MAX(t.b) = 'z' OR SUM(t.b) > t.c",
    "SELECT t.a FROM t WHERE t.b LIKE 'x%' AND t.c NOT LIKE '%y' ORDER BY t.d",
    "SELECT t.a, '{x}' FROM t WHERE t.b = '}{' AND t.c = 'a{0}b'",
    "SELECT a, COUNT(*) FROM t WHERE b = 'q' GROUP BY a",
    "SELECT x.a FROM t WHERE t.b = 'q'",
]

_NODE_QUESTIONS = [
    "List the 3 most recent clients named 'Ann {0}' with balance over 100 "
    "and between 500 and 5, starting with the letter B",
    "How many clients live in Jesenik or Prague at least 2 times?",
    "Show every account",
    "Which clients are named '' or \"\" in Praha?",
]


def test_fill_plans_equal_the_reference_filler_on_every_node_kind(bank):
    """The plan/reference equality above, over templates that walk
    every node kind and fallback, on questions that ground and that do
    not ground their literals."""
    parser, dataset, database = bank
    contexts = []
    engine = parser.build_engine(middleware=(_after("rank", contexts.append),))
    for question in _NODE_QUESTIONS + [e.question for e in dataset.dev[:8]]:
        parser.generate(question, database, engine=engine)
    checked = Counter()
    for ctx in contexts:
        inst_ctx = ctx.inst_ctx
        for dialect in ("sqlite", "ansi", "tsql"):
            emitter = emitter_for(dialect)
            for sql in _NODE_TEMPLATES:
                template = parse_sql(sql)
                plan = FillPlan(template, emitter)
                for table_map in inst_ctx.table_assignments(plan.tables):
                    bound = plan.bind(table_map, inst_ctx)
                    for variant in range(max(1, inst_ctx.slot_depth)):
                        reference, filler = _reference_fill(
                            template, inst_ctx, table_map, variant, emitter
                        )
                        if bound is None:
                            assert reference is None, (sql, reference.sql)
                            checked["unbound"] += 1
                            continue
                        fill, variant_matters = plan.fill(bound, inst_ctx, variant)
                        assert fill == reference, (dialect, sql, variant)
                        assert variant_matters == filler.variant_matters
                        if fill is not None:
                            assert fill.query == filler.filled, fill.sql
                        checked[fill is not None] += 1
    assert checked["unbound"] and checked[True] and checked[False]


#: Prints ``raw_candidates`` for a golden bank_financials question whose
#: link/table-quality means come out differently in different
#: summation orders.
_RAW_CANDIDATES_PROBE = """
from repro.core import CodeSParser
from repro.datasets import (
    SPIDER_VARIANTS,
    build_aminer_simplified,
    build_bank_financials,
    build_bird,
    build_spider_variant,
)
from repro.eval.harness import pair_samples
dataset = build_bank_financials()
parser = CodeSParser("codes-1b")
parser.fit(pair_samples(dataset))
example = dataset.dev[9]
raw = []

def grab(stage, ctx, call_next):
    call_next()
    if stage.name == "candidate_gen":
        raw.append(ctx.raw_candidates)

engine = parser.build_engine(middleware=(grab,))
parser.generate(example.question, dataset.database_of(example), engine=engine)
print(repr(raw))
"""


def test_raw_candidate_scores_are_the_same_under_every_hash_seed():
    """Link/table quality average set members; the float sum must not
    follow ``PYTHONHASHSEED``'s iteration order."""
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-c", _RAW_CANDIDATES_PROBE],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
            check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("[[(")


@pytest.mark.parametrize("bogus", [0.5, float("nan")])
def test_out_of_range_feature_raises_instead_of_pruning(bank, monkeypatch, bogus):
    parser, _, database = bank
    monkeypatch.setattr(parser.router, "score", lambda sql: bogus)
    with pytest.raises(ScoreRangeError, match="lm_prior"):
        parser.generate(QUESTION, database, engine=parser.build_engine())


# -- fault injection as middleware --------------------------------------------


def test_stage_fault_injector_raises_generation_error(bank):
    parser, _, database = bank
    injector = StageFaultInjector("candidate_gen", error_rate=1.0)
    engine = parser.build_engine(middleware=(injector,))
    with pytest.raises(GenerationError):
        parser.generate(QUESTION, database, engine=engine)
    assert injector.injected_failures == 1


def test_beam_perturber_still_applies_after_rank(bank):
    parser, _, database = bank
    clean = parser.generate(QUESTION, database)
    parser.beam_perturber = lambda beam: beam * 2
    try:
        perturbed = parser.generate(QUESTION, database)
    finally:
        parser.beam_perturber = None
    # duplicated beam entries collapse into existing equivalence
    # classes, so dedup sees strictly more collapses than the clean run.
    assert perturbed.beam_deduped > clean.beam_deduped
    assert perturbed.sql == clean.sql


# -- evaluation engines -------------------------------------------------------


def test_eval_matches_the_parsers_own_engine_and_reuses_caches(bank):
    """The harness's per-database engines answer as the parser's own
    long-lived engine does, and reuse resources within a database."""
    parser, dataset, _ = bank
    result = evaluate_parser(parser, dataset, limit=8, name="eval")
    # Without ``build_engine`` the harness calls ``generate`` bare, so
    # every question runs on the parser's own engine.
    own_engine = SimpleNamespace(generate=parser.generate)
    plain = evaluate_parser(own_engine, dataset, limit=8, name="plain")
    assert result.predictions == plain.predictions
    assert result.ex == plain.ex
    assert set(result.stage_timings) == set(STAGE_NAMES)
    assert all(agg["calls"] == 8 for agg in result.stage_timings.values())
    total_hits = sum(agg["cache_hits"] for agg in result.stage_timings.values())
    assert total_hits > 0  # per-database engines reused resources
    assert [row["stage"] for row in result.stage_rows()] == list(STAGE_NAMES)


# -- facade + registries ------------------------------------------------------


def test_generate_is_a_thin_facade():
    source = inspect.getsource(CodeSParser.generate)
    body = [
        line
        for line in source.splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    docstring = inspect.getdoc(CodeSParser.generate) or ""
    assert len(body) - len(docstring.splitlines()) <= 60


def test_lm_registry_shares_and_isolates():
    config = get_model_config("codes-1b")
    shared = pretrained_lm_for(config)
    assert pretrained_lm_for(config) is shared
    assert DEFAULT_LM_REGISTRY.lm_for(config) is shared
    isolated = LMRegistry()
    assert isolated.lm_for(config) is not shared
    assert len(isolated) > 0
    isolated.clear()
    assert len(isolated) == 0


def test_representative_values_public_accessor(bank):
    parser, _, database = bank
    engine = parser.build_engine()
    parser.generate(QUESTION, database, engine=engine)
    builder = engine.cache.get(
        "builder", (id(database), id(parser.options)), lambda: None
    )
    assert builder is not None
    values = builder.representative_values("client", "name")
    assert values == database.representative_values(
        "client", "name", k=parser.options.representative_k
    )


def test_trace_cli_prints_stage_table(capsys):
    from repro.cli import main

    code = main(
        [
            "trace",
            "--dataset",
            "bank_financials",
            "--model",
            "codes-1b",
            "--question",
            QUESTION,
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "stage trace" in out
    for stage in STAGE_NAMES:
        assert stage in out
