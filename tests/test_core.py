"""Tests for the core parser: retriever, slot filling, generation modes."""

import pytest

from repro.config import get_model_config
from repro.core import CodeSParser, DemonstrationRetriever
from repro.core.slotfill import (
    InstantiationContext,
    instantiate_template,
    question_aggregate,
    question_comparison_op,
    question_order_direction,
)
from repro.core.structure import question_cues, structure_prior
from repro.datasets import build_spider
from repro.datasets.base import Text2SQLExample
from repro.datasets.spider import SpiderConfig
from repro.errors import CheckpointError, TrainingError
from repro.eval.harness import evaluate_parser, pair_samples
from repro.linking.lexical import LexicalSchemaScorer
from repro.retrieval import MatchedValue
from repro.sqlgen.parser import parse_sql
from repro.sqlgen.dialects.sqlite import SQLITE_EMITTER

from tests.fixtures import bank_database


_CONFIG = SpiderConfig(
    n_train_databases=2, n_dev_databases=1,
    train_per_database=15, dev_per_database=10, rows_per_table=25,
)


@pytest.fixture(scope="module")
def spider():
    return build_spider(_CONFIG)


@pytest.fixture(scope="module")
def fitted_parser(spider):
    parser = CodeSParser("codes-7b")
    parser.fit(pair_samples(spider))
    return parser


class TestDemonstrationRetriever:
    def _pool(self):
        return [
            Text2SQLExample("How many clients are there?", "SELECT COUNT(*) FROM client", "db"),
            Text2SQLExample(
                "Show the names of members from either 'United States' or 'Canada'",
                "SELECT name FROM member WHERE country = 'United States' OR country = 'Canada'",
                "db",
            ),
            Text2SQLExample("What is the average balance?", "SELECT AVG(balance) FROM account", "db"),
        ]

    def test_pattern_mode_matches_structure(self):
        retriever = DemonstrationRetriever(self._pool(), mode="pattern-aware")
        hits = retriever.retrieve("Show singers born in 1948 or 1949", k=1)
        assert "either" in hits[0].example.question

    def test_question_only_mode(self):
        retriever = DemonstrationRetriever(self._pool(), mode="question-only")
        hits = retriever.retrieve("How many accounts are there?", k=1)
        assert "How many" in hits[0].example.question

    def test_random_mode_is_seeded(self):
        first = DemonstrationRetriever(self._pool(), mode="random", seed=1)
        second = DemonstrationRetriever(self._pool(), mode="random", seed=1)
        assert [h.example.question for h in first.retrieve("q", k=2)] == [
            h.example.question for h in second.retrieve("q", k=2)
        ]

    def test_k_zero(self):
        retriever = DemonstrationRetriever(self._pool())
        assert retriever.retrieve("anything", k=0) == []

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            DemonstrationRetriever(self._pool(), mode="bogus")

    def test_scores_descending(self):
        retriever = DemonstrationRetriever(self._pool())
        hits = retriever.retrieve("How many clients are there?", k=3)
        scores = [hit.score for hit in hits]
        assert scores == sorted(scores, reverse=True)


class TestQuestionCueHelpers:
    def test_comparison_ops(self):
        assert question_comparison_op("players with more than 5 goals", "<") == ">"
        assert question_comparison_op("players with less than 5 goals", ">") == "<"
        assert question_comparison_op("at least 5 goals", ">") == ">="
        assert question_comparison_op("with 5 goals", ">") == ">"

    def test_order_direction(self):
        assert question_order_direction("the highest salary", False) is True
        assert question_order_direction("the lowest salary", True) is False
        assert question_order_direction("sorted from smallest to largest", True) is False
        assert question_order_direction("no cue here", True) is True

    def test_aggregate(self):
        assert question_aggregate("the average price", "max") == "avg"
        assert question_aggregate("the total cost", "avg") == "sum"
        assert question_aggregate("nothing here", "min") == "min"


class TestStructurePrior:
    def test_count_cue_prefers_count_skeleton(self):
        count_query = parse_sql("SELECT COUNT(*) FROM t")
        select_query = parse_sql("SELECT a FROM t")
        question = "How many things are there?"
        assert structure_prior(question, count_query) > structure_prior(
            question, select_query
        )

    def test_no_count_cue_demotes_count(self):
        count_query = parse_sql("SELECT COUNT(*) FROM t")
        select_query = parse_sql("SELECT a FROM t")
        question = "Show the names of things"
        assert structure_prior(question, select_query) > structure_prior(
            question, count_query
        )

    def test_subquery_cue(self):
        sub = parse_sql("SELECT a FROM t WHERE b > ( SELECT AVG(b) FROM t )")
        plain = parse_sql("SELECT a FROM t WHERE b > 5")
        question = "items with b above the average"
        assert structure_prior(question, sub) > structure_prior(question, plain)

    def test_cues_extracted(self):
        cues = question_cues("How many items are there for each type?")
        assert "count" in cues
        assert "group" in cues

    def test_bounded(self):
        query = parse_sql("SELECT COUNT(*) FROM t")
        for question in ("", "how many for each or between letter average"):
            assert 0.05 <= structure_prior(question, query) <= 0.95


class TestSlotFill:
    def _ctx(self, question, matched=()):
        db = bank_database()
        scores = LexicalSchemaScorer().score_schema(question, db.schema, list(matched))
        return InstantiationContext(
            question=question,
            schema=db.schema,
            scores=scores,
            matched_values=list(matched),
            slot_depth=3,
        ), db

    def test_single_table_instantiation(self):
        template = parse_sql("SELECT t.a FROM t WHERE t.b = 'x'")
        match = MatchedValue("client", "district", "Jesenik", 1.0)
        ctx, db = self._ctx("names of clients living in Jesenik", [match])
        candidates = instantiate_template(template, ctx)
        sqls = [SQLITE_EMITTER.serialize(c.query) for c in candidates]
        assert any("client.district = 'Jesenik'" in sql for sql in sqls)

    def test_join_uses_foreign_key(self):
        template = parse_sql(
            "SELECT a.x FROM a JOIN b ON a.k = b.k WHERE b.y = 'v'"
        )
        match = MatchedValue("loan", "status", "approved", 1.0)
        ctx, db = self._ctx(
            "names of accounts that have a loan with status approved", [match]
        )
        candidates = instantiate_template(template, ctx)
        sqls = [SQLITE_EMITTER.serialize(c.query) for c in candidates]
        assert any(
            "JOIN" in sql and "loan.account_id = account.account_id" in sql
            for sql in sqls
        )

    def test_numbers_fill_in_order(self):
        template = parse_sql("SELECT t.a FROM t WHERE t.b BETWEEN 1 AND 2")
        ctx, db = self._ctx("accounts with balance between 100 and 500")
        candidates = instantiate_template(template, ctx)
        assert any(
            "BETWEEN 100 AND 500" in SQLITE_EMITTER.serialize(c.query)
            for c in candidates
        )

    def test_ungrounded_literals_tracked(self):
        template = parse_sql("SELECT t.a FROM t WHERE t.b > 99")
        ctx, db = self._ctx("show clients")  # no number in question
        candidates = instantiate_template(template, ctx)
        assert candidates
        assert all(c.ungrounded_literals >= 1 for c in candidates)

    def test_grounded_candidates_have_zero(self):
        template = parse_sql("SELECT t.a FROM t WHERE t.b > 99")
        ctx, db = self._ctx("accounts with balance over 1000")
        candidates = instantiate_template(template, ctx)
        assert any(c.ungrounded_literals == 0 for c in candidates)

    def test_candidates_execute(self):
        template = parse_sql("SELECT t.a FROM t ORDER BY t.b DESC LIMIT 1")
        ctx, db = self._ctx("client with the highest balance")
        for candidate in instantiate_template(template, ctx):
            assert db.is_executable(SQLITE_EMITTER.serialize(candidate.query))


class TestCodeSParser:
    def test_unknown_model_raises(self):
        with pytest.raises(CheckpointError):
            CodeSParser("codes-99b")

    def test_fit_empty_raises(self):
        with pytest.raises(TrainingError):
            CodeSParser("codes-1b").fit([])

    def test_sft_beats_zero_shot(self, spider, fitted_parser):
        sft = evaluate_parser(fitted_parser, spider)
        zero = evaluate_parser(
            CodeSParser("codes-7b"), spider, demonstrations_per_question=0
        )
        assert sft.ex > zero.ex

    def test_generation_result_fields(self, spider, fitted_parser):
        example = spider.dev[0]
        result = fitted_parser.generate(
            example.question, spider.database_of(example)
        )
        assert result.sql
        assert len(result.candidates) <= fitted_parser.config.beam_size
        assert result.prompt.text

    def test_chosen_sql_is_executable_when_flagged(self, spider, fitted_parser):
        example = spider.dev[1]
        database = spider.database_of(example)
        result = fitted_parser.generate(example.question, database)
        if result.executable:
            assert database.is_executable(result.sql)

    def test_bigger_tier_has_bigger_bank(self):
        small = CodeSParser("codes-1b")
        large = CodeSParser("codes-15b")
        assert large.skeleton_bank_size > small.skeleton_bank_size

    def test_incremental_pretraining_widens_bank(self):
        codes = CodeSParser("codes-7b")
        base = CodeSParser("starcoderbase-7b")
        assert codes.skeleton_bank_size > base.skeleton_bank_size

    def test_deterministic_generation(self, spider):
        results = []
        for _ in range(2):
            parser = CodeSParser("codes-3b")
            parser.fit(pair_samples(spider))
            example = spider.dev[0]
            results.append(
                parser.generate(example.question, spider.database_of(example)).sql
            )
        assert results[0] == results[1]

    def test_icl_uses_provided_demonstrations(self, spider):
        parser = CodeSParser("codes-7b")
        example = spider.dev[0]
        database = spider.database_of(example)
        result = parser.generate(
            example.question, database, demonstrations=list(spider.train[:3])
        )
        assert result.sql

    def test_context_budget_follows_tier(self):
        assert (
            CodeSParser("codes-15b").options.max_prompt_chars
            <= CodeSParser("codes-7b").options.max_prompt_chars
        )


class TestHarness:
    def test_fewshot_requires_retriever(self, spider):
        with pytest.raises(ValueError):
            evaluate_parser(
                CodeSParser("codes-1b"), spider, demonstrations_per_question=3
            )

    def test_limit_truncates(self, spider, fitted_parser):
        result = evaluate_parser(fitted_parser, spider, limit=3)
        assert result.n_examples == 3

    def test_ts_and_ves_computed(self, spider, fitted_parser):
        result = evaluate_parser(
            fitted_parser, spider, limit=4, compute_ts=True, ts_variants=2,
            compute_ves=True, ves_runs=1,
        )
        assert result.ts is not None and 0.0 <= result.ts <= 1.0
        assert result.ves is not None and result.ves >= 0.0
        assert result.ts <= result.ex + 1e-9  # TS is stricter than EX
