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
from repro.core.slotfill import FilledCandidate, iter_fills
from repro.datasets.base import Text2SQLExample
from repro.datasets.spider import SpiderConfig
from repro.db.backends.base import backend_dialect
from repro.errors import GenerationError, ScoreRangeError, SQLSyntaxError
from repro.eval.harness import evaluate_parser, pair_samples
from repro.eval.reporting import format_stage_report
from repro.core import ranking, slotfill
from repro.linking.classifier import SchemaScores
from repro.lm.registry import DEFAULT_LM_REGISTRY, LMRegistry
from repro.memo import Memo
from repro.reliability.clock import FakeClock
from repro.sqlgen import parser as sqlgen_parser
from repro.sqlgen.ast import identifier_key
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
    fresh = module.generate_golden()
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
    assert cache.stats == {
        "hits": 1,
        "misses": 1,
        "entries": 1,
        "evictions": 0,
        "capacity": None,
    }
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
    """Count, from here on: successful top-level fills, serializations
    by the stage's emitter, LM-memo lookups, and column rankings (as
    (scores, table) pairs)."""
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

    fill = slotfill._Filler.fill
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

    monkeypatch.setattr(slotfill._Filler, "fill", counting_fill)

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
    assert counts["serialize"] == counts["fills"]
    per_table = Counter((id(scores), table) for scores, table in rankings)
    assert per_table and max(per_table.values()) == 1


def test_candidate_gen_does_request_invariant_work_once(bank, monkeypatch):
    """Each fill is serialized once; each table's columns are ranked once.

    Counts calls during one ``generate()`` on a golden-parity question,
    so a return to per-slot recomputation or a second serialization of
    every candidate fails here without any timing.
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
            slotfill, name, CountingPattern(name, getattr(slotfill, name))
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


# -- bound-and-prune candidate generation ---------------------------------------


def _after(stage_name: str, action):
    """Middleware running ``action(ctx)`` once ``stage_name`` has run."""

    def middleware(stage, ctx, call_next):
        call_next()
        if stage.name == stage_name:
            action(ctx)

    return middleware


def _every_variant_fills(template, inst_ctx, serialize) -> list[FilledCandidate]:
    """``template``'s fills under every (table assignment, variant) pair,
    deduplicated like ``iter_fills`` but with no early exit: the
    reference the optimised enumeration has to reproduce."""
    fills: list[FilledCandidate] = []
    seen: set[str] = set()
    table_maps = slotfill._table_assignments(
        inst_ctx, slotfill._template_tables(template)
    )
    for table_map in table_maps:
        for variant in range(max(1, inst_ctx.slot_depth)):
            filler = slotfill._Filler(inst_ctx, table_map, variant)
            filled = filler.fill(template)
            if filled is None:
                continue
            sql = serialize(filled)
            if sql.lower() in seen:
                continue
            seen.add(sql.lower())
            fills.append(FilledCandidate(filled, sql, filler.ungrounded))
    return fills


def _exhaustive_scored(parser, ctx) -> list[tuple[str, float]]:
    """Every distinct candidate of ``ctx.templates``, filled eagerly under
    every variant and scored with the feature table, in generation order."""
    serialize = emitter_for(backend_dialect(ctx.database)).serialize
    facts = RequestFacts.of(ctx.question, ctx.scores, ctx.matched, parser.router.score)
    scored: list[tuple[str, float]] = []
    seen: set[str] = set()
    for template, sim in ctx.templates:
        ranges = feature_ranges(facts, sim)
        for fill in _every_variant_fills(template, ctx.inst_ctx, serialize):
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
        serialize = emitter_for(backend_dialect(ctx.database)).serialize
        facts = RequestFacts.of(
            ctx.question, ctx.scores, ctx.matched, parser.router.score
        )
        pruned = _fill_and_score(
            ctx.templates, ctx.inst_ctx, serialize, facts, beam_size
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
    serialize = emitter_for(backend_dialect(database)).serialize
    distinct = {
        candidate.sql.lower()
        for template, _ in ctx.templates
        for candidate in _every_variant_fills(template, ctx.inst_ctx, serialize)
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
        serialize = emitter_for(backend_dialect(ctx.database)).serialize
        sims = [sim for _, sim in ctx.templates]
        for index, (template, sim) in enumerate(ctx.templates):
            ranges = feature_ranges(facts, sim)
            assert ranges == [
                (lo - RANGE_SLACK, hi + RANGE_SLACK)
                for lo, hi in (f.bounds(facts, (sim, sim), None) for f in FEATURES)
            ]
            # Every (assignment, variant) fill: a superset of
            # _every_variant_fills, which drops repeats.
            table_maps = slotfill._table_assignments(
                ctx.inst_ctx, slotfill._template_tables(template)
            )
            for table_map in table_maps:
                tables = frozenset(map(identifier_key, table_map.values()))
                tight = feature_ranges(facts, sim, tables, max(sims[index:]))
                for variant in range(max(1, ctx.inst_ctx.slot_depth)):
                    filler = slotfill._Filler(ctx.inst_ctx, table_map, variant)
                    filled = filler.fill(template)
                    if filled is None:
                        continue
                    assert filled.tables_used() == tables
                    fill = FilledCandidate(
                        filled, serialize(filled), filler.ungrounded
                    )
                    _assert_in_ranges(fill, sim, facts, ranges)
                    _assert_in_ranges(fill, sim, facts, tight)
                    checked += 1
    assert checked > 0


def test_warm_questions_fill_and_score_within_budget(warm_spider_15b, monkeypatch):
    """On the benchmark's warm questions at codes-15b, skipping beaten
    table assignments keeps ``_Filler.fill`` calls (subquery fills
    included) at most 2400 and ``score_fill`` calls at most 1700,
    against 3494 and 2522 with one ceiling per template."""
    parser, dataset = warm_spider_15b
    calls: Counter = Counter()
    fill = slotfill._Filler.fill
    score = score_fill

    def counting_fill(self, template):
        calls["fill"] += 1
        return fill(self, template)

    def counting_score(*args):
        calls["score_fill"] += 1
        return score(*args)

    monkeypatch.setattr(slotfill._Filler, "fill", counting_fill)
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
    ``_Filler.fill`` calls, and strictly fewer on the warm set."""
    parser, dataset, examples = _setup_examples(setup, request)
    calls = Counter()
    fill = slotfill._Filler.fill

    def counting_fill(self, template):
        calls[mode] += 1
        return fill(self, template)

    monkeypatch.setattr(slotfill._Filler, "fill", counting_fill)
    mode = "generate"
    for ctx in _generated_contexts(parser, dataset, examples):
        serialize = emitter_for(backend_dialect(ctx.database)).serialize
        for template, _ in ctx.templates:
            mode = "iter_fills"
            fills = [(f.sql, f.ungrounded_literals)
                     for f in iter_fills(template, ctx.inst_ctx, serialize)]
            mode = "reference"
            reference = [
                (f.sql, f.ungrounded_literals)
                for f in _every_variant_fills(template, ctx.inst_ctx, serialize)
            ]
            assert fills == reference, (ctx.question, template)
    assert 0 < calls["iter_fills"] <= calls["reference"]
    if setup == "warm_spider_15b":
        assert calls["iter_fills"] < calls["reference"]


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


# -- batch evaluation ---------------------------------------------------------


def test_batch_eval_matches_per_question_eval_and_reuses_caches(bank):
    parser, dataset, _ = bank
    plain = evaluate_parser(parser, dataset, limit=8, name="plain")
    batch = evaluate_parser(parser, dataset, limit=8, name="batch", batch=True)
    assert batch.predictions == plain.predictions
    assert batch.ex == plain.ex
    assert set(batch.stage_timings) == set(STAGE_NAMES)
    assert all(agg["calls"] == 8 for agg in batch.stage_timings.values())
    total_hits = sum(agg["cache_hits"] for agg in batch.stage_timings.values())
    assert total_hits > 0  # per-database engines reused resources
    report = format_stage_report(batch)
    assert "per-stage timing" in report and "value_retrieve" in report


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
