"""Tests for schema linking: features, classifier, filter, lexical scorer."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.linking import (
    FEATURE_DIM,
    SchemaFeatureExtractor,
    SchemaFilter,
    SchemaItemClassifier,
)
from repro.linking.classifier import LinkingExample, SchemaScores
from repro.linking.lexical import LexicalSchemaScorer
from repro.retrieval import MatchedValue

from tests.fixtures import bank_database, bank_schema

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Prints the training filter's table order for a three-table JOIN.
_KEPT_TABLES_PROBE = """
from repro.linking import SchemaFilter
from tests.fixtures import bank_schema
print(SchemaFilter(top_k1=2, top_k2=2).filter_training(
    "q", bank_schema(),
    "SELECT loan.status FROM loan"
    " JOIN account ON loan.account_id = account.account_id"
    " JOIN client ON account.client_id = client.client_id"
    " WHERE client.name = 'x'",
).kept_tables)
"""


def _training_examples():
    schema = bank_schema()
    rows = [
        ("How many clients are there?", "SELECT COUNT(*) FROM client"),
        ("List the name of clients in Jesenik",
         "SELECT name FROM client WHERE district = 'Jesenik'"),
        ("What is the balance of account 10?",
         "SELECT balance FROM account WHERE account_id = 10"),
        ("Count approved loans",
         "SELECT COUNT(*) FROM loan WHERE status = 'approved'"),
        ("Show the open date of accounts",
         "SELECT open_date FROM account"),
        ("Names of clients with accounts over 1000",
         "SELECT client.name FROM client JOIN account ON "
         "client.client_id = account.client_id WHERE account.balance > 1000"),
    ] * 3
    return [
        LinkingExample.from_sql(question, schema, sql) for question, sql in rows
    ]


class TestFeatures:
    def test_dimensions(self):
        schema = bank_schema()
        extractor = SchemaFeatureExtractor()
        table_feats = extractor.table_features("how many clients", schema.table("client"))
        assert table_feats.shape == (FEATURE_DIM,)
        col_feats = extractor.column_features(
            "how many clients", schema.table("client"),
            schema.table("client").column("name"),
        )
        assert col_feats.shape == (FEATURE_DIM,)

    def test_mentioned_table_scores_higher_overlap(self):
        schema = bank_schema()
        extractor = SchemaFeatureExtractor()
        client = extractor.table_features("list the clients", schema.table("client"))
        loan = extractor.table_features("list the clients", schema.table("loan"))
        assert client[0] > loan[0]

    def test_comment_feature_respects_toggle(self):
        schema = bank_schema()
        with_comments = SchemaFeatureExtractor(use_comments=True)
        without = SchemaFeatureExtractor(use_comments=False)
        column = schema.table("client").column("gender")
        question = "how many are M or F"
        feats_with = with_comments.column_features(
            question, schema.table("client"), column
        )
        feats_without = without.column_features(
            question, schema.table("client"), column
        )
        assert feats_with[3] > 0.0
        assert feats_without[3] == 0.0

    def test_value_hit_feature(self):
        schema = bank_schema()
        extractor = SchemaFeatureExtractor()
        match = MatchedValue("client", "district", "Jesenik", 1.0)
        feats = extractor.column_features(
            "clients in Jesenik", schema.table("client"),
            schema.table("client").column("district"), [match],
        )
        assert feats[9] == 1.0


class TestClassifier:
    def test_from_sql_labels(self):
        example = LinkingExample.from_sql(
            "names in Jesenik",
            bank_schema(),
            "SELECT name FROM client WHERE district = 'Jesenik'",
        )
        assert "client" in example.gold_tables
        assert "client.district" in example.gold_columns

    def test_from_sql_rejects_garbage(self):
        with pytest.raises(TrainingError):
            LinkingExample.from_sql("q", bank_schema(), "NOT SQL")

    def test_training_improves_auc(self):
        examples = _training_examples()
        classifier = SchemaItemClassifier(seed=0)
        untrained_scores = None
        classifier.fit(examples, epochs=40)
        table_auc, column_auc = classifier.evaluate_auc(examples)
        assert table_auc > 0.85
        assert column_auc > 0.8

    def test_score_schema_keys(self):
        classifier = SchemaItemClassifier(seed=0)
        classifier.fit(_training_examples(), epochs=5)
        scores = classifier.score_schema("how many clients", bank_schema())
        assert set(scores.tables) == {"client", "account", "loan"}
        assert "client.name" in scores.columns

    def test_fit_empty_raises(self):
        with pytest.raises(TrainingError):
            SchemaItemClassifier().fit([])


class TestSchemaScores:
    def _scores(self):
        return SchemaScores(
            tables={"a": 0.9, "b": 0.2, "c": 0.5},
            columns={"a.x": 0.8, "a.y": 0.3, "b.z": 0.9},
        )

    def test_top_tables(self):
        assert self._scores().top_tables(2) == ["a", "c"]

    def test_top_columns_scoped_to_table(self):
        assert self._scores().top_columns("a", 5) == ["x", "y"]

    def test_ties_break_deterministically(self):
        scores = SchemaScores(tables={"b": 0.5, "a": 0.5}, columns={})
        assert scores.top_tables(2) == ["a", "b"]


class TestSchemaFilter:
    def test_untrained_filter_truncates(self):
        schema = bank_schema()
        filtered = SchemaFilter(top_k1=2, top_k2=2).filter("anything", schema)
        assert len(filtered.schema.tables) == 2

    def test_trained_filter_ranks_relevant_table_first(self):
        classifier = SchemaItemClassifier(seed=0)
        classifier.fit(_training_examples(), epochs=40)
        schema = bank_schema()
        filtered = SchemaFilter(classifier, top_k1=1, top_k2=4).filter(
            "how many clients live in Jesenik", schema
        )
        assert filtered.kept_tables[0] == "client"

    def test_training_filter_keeps_used_and_pads(self):
        schema = bank_schema()
        filter_ = SchemaFilter(top_k1=2, top_k2=2)
        filtered = filter_.filter_training(
            "q", schema, "SELECT name FROM client WHERE district = 'Jesenik'"
        )
        assert "client" in filtered.kept_tables
        assert len(filtered.kept_tables) == 2  # padded with one unused table
        kept_cols = {c.lower() for c in filtered.kept_columns["client"]}
        assert {"name", "district"} <= kept_cols

    def test_training_filter_table_order_ignores_hash_seed(self):
        """Used tables come in schema order, not in the per-process hash
        order of the ``tables_used()`` set."""
        outputs = set()
        for seed in ("1", "2", "3", "4"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = os.pathsep.join(
                [str(REPO_ROOT / "src"), str(REPO_ROOT)]
            )
            proc = subprocess.run(
                [sys.executable, "-c", _KEPT_TABLES_PROBE],
                capture_output=True,
                text=True,
                env=env,
                cwd=REPO_ROOT,
                check=True,
            )
            outputs.add(proc.stdout)
        assert outputs == {"('client', 'account', 'loan')\n"}

    def test_key_columns_survive_filtering(self):
        schema = bank_schema()
        filtered = SchemaFilter(top_k1=3, top_k2=1).filter("anything", schema)
        client = filtered.schema.table("client")
        assert client.has_column("client_id")
        account = filtered.schema.table("account")
        assert account.has_column("client_id")

    def test_foreign_keys_projected(self):
        schema = bank_schema()
        filtered = SchemaFilter(top_k1=3, top_k2=10).filter("anything", schema)
        assert len(filtered.schema.foreign_keys) == 2

    def test_invalid_k_raises(self):
        with pytest.raises(ValueError):
            SchemaFilter(top_k1=0)


class TestLexicalScorer:
    def test_mentioned_items_rank_first(self):
        scorer = LexicalSchemaScorer()
        scores = scorer.score_schema(
            "what is the balance of accounts", bank_schema()
        )
        assert scores.top_tables(1) == ["account"]
        assert scores.top_columns("account", 1) == ["balance"]

    def test_value_match_boosts_column(self):
        scorer = LexicalSchemaScorer()
        match = MatchedValue("client", "district", "Jesenik", 1.0)
        with_value = scorer.score_schema("people in Jesenik", bank_schema(), [match])
        without = scorer.score_schema("people in Jesenik", bank_schema())
        assert with_value.columns["client.district"] > without.columns["client.district"]
