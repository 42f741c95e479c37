"""Tests for the core parser: retriever, slot filling, generation modes."""

import dataclasses
import sys
from collections import Counter

import pytest

from repro.config import get_model_config
from repro.core import CodeSParser, DemonstrationRetriever
from repro.core.fillcontext import (
    InstantiationContext,
    question_aggregate,
    question_comparison_op,
    question_order_direction,
)
from repro.core.slotfill import FillPlan, iter_fills
from repro.core.structure import (
    cue_structure_prior,
    profile_query,
    question_cues,
)
from repro.datasets import build_spider
from repro.datasets.base import Text2SQLExample
from repro.datasets.spider import SpiderConfig
from repro.errors import CheckpointError, SQLSyntaxError, TrainingError
from repro.eval.harness import evaluate_parser, pair_samples
from repro.linking.lexical import LexicalSchemaScorer
from repro.retrieval import MatchedValue
import repro.sqlgen.parser as sqlgen_parser
from repro.sqlgen.parser import parse_sql
from repro.sqlgen.dialects.sqlite import SQLITE_EMITTER
from repro.sqlgen.skeleton import skeleton_of_query
from repro.text.embedder import HashedNgramEmbedder
from repro.text.pattern import extract_pattern

from tests.fixtures import bank_database


_CONFIG = SpiderConfig(
    n_train_databases=2, n_dev_databases=1,
    train_per_database=15, dev_per_database=10, rows_per_table=25,
)


#: The width the retriever tests were written against.
_EMBEDDER = HashedNgramEmbedder(dim=192)


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
        retriever = DemonstrationRetriever(self._pool(), _EMBEDDER, mode="pattern-aware")
        hits = retriever.retrieve("Show singers born in 1948 or 1949", k=1)
        assert "either" in hits[0].example.question

    def test_question_only_mode(self):
        retriever = DemonstrationRetriever(self._pool(), _EMBEDDER, mode="question-only")
        hits = retriever.retrieve("How many accounts are there?", k=1)
        assert "How many" in hits[0].example.question

    def test_random_mode_is_seeded(self):
        first = DemonstrationRetriever(self._pool(), _EMBEDDER, mode="random", seed=1)
        second = DemonstrationRetriever(self._pool(), _EMBEDDER, mode="random", seed=1)
        assert [h.example.question for h in first.retrieve("q", k=2)] == [
            h.example.question for h in second.retrieve("q", k=2)
        ]

    def test_k_zero(self):
        retriever = DemonstrationRetriever(self._pool(), _EMBEDDER)
        assert retriever.retrieve("anything", k=0) == []

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            DemonstrationRetriever(self._pool(), _EMBEDDER, mode="bogus")

    def test_scores_descending(self):
        retriever = DemonstrationRetriever(self._pool(), _EMBEDDER)
        hits = retriever.retrieve("How many clients are there?", k=3)
        scores = [hit.score for hit in hits]
        assert scores == sorted(scores, reverse=True)

    def test_unparseable_rows_are_selected_but_give_no_template(self):
        pool = self._pool() + [
            Text2SQLExample("How many clients are there at all?", "SELEC nonsense", "db")
        ]
        retriever = DemonstrationRetriever(pool, _EMBEDDER, mode="question-only")
        question = "How many clients are there at all?"
        assert retriever.retrieve(question, k=1)[0].example is pool[-1]
        rows = [hit.row for hit in retriever.retrieve(question, k=4)]
        assert rows[0] == 3 and retriever.index.entries[3].template is None
        templates = retriever.templates_for(question, k=4)
        assert [entry.question for entry in templates.entries] == [
            pool[row].question for row in rows[1:]
        ]

    def test_an_index_of_another_width_is_rejected(self):
        parser = CodeSParser("codes-1b")
        retriever = DemonstrationRetriever(self._pool(), _EMBEDDER)
        assert _EMBEDDER.dim != parser.embedder.dim
        question = "How many clients are there?"
        with pytest.raises(ValueError, match="width"):
            parser.generate(
                question,
                bank_database(),
                demonstrations=retriever.templates_for(question, k=2),
            )

    def test_fewshot_eval_parses_and_embeds_no_pool_text(self, monkeypatch):
        """Once the retriever is built, a 3-shot evaluation parses no
        pool SQL and embeds no pool question or pattern: each request
        searches rows of the pool's index as they are."""
        dataset = build_spider()
        parser = CodeSParser("codes-1b")
        retriever = DemonstrationRetriever(dataset.train, parser.embedder)
        parsed: list[str] = []
        embedded: list[str] = []
        parse = sqlgen_parser.parse_sql
        embed = HashedNgramEmbedder.embed

        def counting_parse(sql, *args, **kwargs):
            parsed.append(sql)
            return parse(sql, *args, **kwargs)

        def counting_embed(self, text):
            embedded.append(text)
            return embed(self, text)

        for module in list(sys.modules.values()):
            if getattr(module, "parse_sql", None) is parse:
                monkeypatch.setattr(module, "parse_sql", counting_parse)
        monkeypatch.setattr(HashedNgramEmbedder, "embed", counting_embed)
        evaluate_parser(
            parser, dataset,
            demonstrations_per_question=3, demonstration_retriever=retriever,
        )

        def texts(examples):
            questions = {example.question for example in examples}
            return questions | {extract_pattern(question) for question in questions}

        pool_sql = {example.sql for example in dataset.train}
        pool_only = texts(dataset.train) - texts(dataset.dev)
        # The gold and predicted SQL are parsed and the dev questions
        # embedded, so the counters are live.
        assert parsed and embedded
        assert [sql for sql in parsed if sql in pool_sql] == []
        assert [text for text in embedded if text in pool_only] == []


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
        cues = question_cues(question)
        assert cue_structure_prior(
            cues, profile_query(count_query)
        ) > cue_structure_prior(cues, profile_query(select_query))

    def test_no_count_cue_demotes_count(self):
        count_query = parse_sql("SELECT COUNT(*) FROM t")
        select_query = parse_sql("SELECT a FROM t")
        question = "Show the names of things"
        cues = question_cues(question)
        assert cue_structure_prior(
            cues, profile_query(select_query)
        ) > cue_structure_prior(cues, profile_query(count_query))

    def test_subquery_cue(self):
        sub = parse_sql("SELECT a FROM t WHERE b > ( SELECT AVG(b) FROM t )")
        plain = parse_sql("SELECT a FROM t WHERE b > 5")
        question = "items with b above the average"
        cues = question_cues(question)
        assert cue_structure_prior(
            cues, profile_query(sub)
        ) > cue_structure_prior(cues, profile_query(plain))

    def test_cues_extracted(self):
        cues = question_cues("How many items are there for each type?")
        assert "count" in cues
        assert "group" in cues

    def test_bounded(self):
        query = parse_sql("SELECT COUNT(*) FROM t")
        for question in ("", "how many for each or between letter average"):
            prior = cue_structure_prior(
                question_cues(question), profile_query(query)
            )
            assert 0.05 <= prior <= 0.95


def _fills(template, ctx):
    return list(iter_fills(FillPlan(template, SQLITE_EMITTER), ctx))


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
        candidates = _fills(template, ctx)
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
        candidates = _fills(template, ctx)
        sqls = [SQLITE_EMITTER.serialize(c.query) for c in candidates]
        assert any(
            "JOIN" in sql and "loan.account_id = account.account_id" in sql
            for sql in sqls
        )

    def test_numbers_fill_in_order(self):
        template = parse_sql("SELECT t.a FROM t WHERE t.b BETWEEN 1 AND 2")
        ctx, db = self._ctx("accounts with balance between 100 and 500")
        candidates = _fills(template, ctx)
        assert any(
            "BETWEEN 100 AND 500" in SQLITE_EMITTER.serialize(c.query)
            for c in candidates
        )

    def test_ungrounded_literals_tracked(self):
        template = parse_sql("SELECT t.a FROM t WHERE t.b > 99")
        ctx, db = self._ctx("show clients")  # no number in question
        candidates = _fills(template, ctx)
        assert candidates
        assert all(c.ungrounded_literals >= 1 for c in candidates)

    def test_grounded_candidates_have_zero(self):
        template = parse_sql("SELECT t.a FROM t WHERE t.b > 99")
        ctx, db = self._ctx("accounts with balance over 1000")
        candidates = _fills(template, ctx)
        assert any(c.ungrounded_literals == 0 for c in candidates)

    def test_candidates_execute(self):
        template = parse_sql("SELECT t.a FROM t ORDER BY t.b DESC LIMIT 1")
        ctx, db = self._ctx("client with the highest balance")
        for candidate in _fills(template, ctx):
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

    def test_a_beam_answer_executes_only_inside_its_stages(
        self, spider, fitted_parser, monkeypatch
    ):
        # Every execution a request spends is one the trace accounts
        # for: no re-run of the chosen SQL after the engine finishes.
        example = spider.dev[1]
        database = spider.database_of(example)
        executed = []
        is_executable = database.is_executable

        def counting(sql, *args, **kwargs):
            executed.append(sql)
            return is_executable(sql, *args, **kwargs)

        monkeypatch.setattr(database, "is_executable", counting)
        result = fitted_parser.generate(example.question, database)
        assert result.tier == "beam"
        assert result.executions_used >= 1
        assert len(executed) == result.executions_used
        assert executed[-1] == result.sql

    def test_bigger_tier_has_bigger_bank(self):
        small = CodeSParser("codes-1b")
        large = CodeSParser("codes-15b")
        assert large.skeleton_bank_size > small.skeleton_bank_size

    def test_skeleton_bank_is_mined_once_per_lm_and_capacity(self):
        """codes-7b and codes-15b share one LM but keep their own banks,
        each the head of a fresh mine; repeat parsers share the tuple."""
        mid = CodeSParser("codes-7b")
        large = CodeSParser("codes-15b")
        assert mid.lm is large.lm
        assert CodeSParser("codes-15b")._skeleton_bank is large._skeleton_bank
        assert mid._skeleton_bank is not large._skeleton_bank
        counts: Counter[str] = Counter()
        first: dict[str, object] = {}
        for sql in large.lm.seen_sql:
            try:
                query = parse_sql(sql)
            except SQLSyntaxError:
                continue
            counts[skeleton_of_query(query)] += 1
            first.setdefault(skeleton_of_query(query), query)
        fresh = [first[skeleton] for skeleton, _ in counts.most_common()]
        for parser in (mid, large):
            capacity = parser.config.skeleton_capacity
            assert parser._skeleton_bank == tuple(fresh[:capacity])
        assert mid.skeleton_bank_size == 400 < large.skeleton_bank_size
        with pytest.raises(dataclasses.FrozenInstanceError):
            large._skeleton_bank[0].limit = 1

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
