"""Tests for schema linking: features, classifier, filter, lexical scorer."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import CodeSParser
from repro.datasets import (
    SPIDER_VARIANTS,
    build_aminer_simplified,
    build_bank_financials,
    build_bird,
    build_spider,
    build_spider_variant,
)
from repro.errors import TrainingError
from repro.eval.harness import pair_samples
from repro.eval.metrics import roc_auc
from repro.linking import (
    FEATURE_DIM,
    SchemaFeatureExtractor,
    SchemaFilter,
    SchemaItemClassifier,
)
from repro.linking.classifier import LinkingExample, SchemaScores
from repro.linking.features import MemoizedSchemaFeatureExtractor
from repro.linking.lexical import LexicalSchemaScorer
from repro.retrieval import MatchedValue
from repro.text.embedder import HashedNgramEmbedder, MemoizedEmbedder

from tests.fixtures import bank_database, bank_schema

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Every dataset the package bundles (the CLI's ``--dataset`` choices).
BUNDLED_DATASETS = {
    "spider": build_spider,
    "bird": build_bird,
    **{
        name: (lambda name=name: build_spider_variant(name))
        for name in SPIDER_VARIANTS
    },
    "bank_financials": build_bank_financials,
    "aminer_simplified": build_aminer_simplified,
}

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


def _item_texts(schema, use_comments=True):
    """Every text a feature row embeds for ``schema``'s items."""
    texts = []
    for table in schema.tables:
        for item in (table, *table.columns):
            texts.append(item.name.replace("_", " "))
            if use_comments and item.comment:
                texts.append(item.comment)
    return texts


@pytest.mark.parametrize("name", sorted(BUNDLED_DATASETS))
class TestMemoizedFeatures:
    """The memoized extractor and embedder are bit-identical to the plain
    ones, on every bundled dataset's schemas and dev questions, with the
    memos shared across questions as serving and training share them."""

    def test_memoized_embedder_vectors_equal_base(self, name):
        dataset = BUNDLED_DATASETS[name]()
        base = HashedNgramEmbedder(dim=96)
        memo = MemoizedEmbedder(base)
        texts = [example.question for example in dataset.dev]
        for database in dataset.databases.values():
            texts.extend(_item_texts(database.schema))
        for text in texts + texts:
            vec = memo.embed(text)
            assert not vec.flags.writeable
            assert vec.tobytes() == base.embed(text).tobytes()

    def test_memoized_extractor_rows_equal_plain(self, name):
        dataset = BUNDLED_DATASETS[name]()
        plain = SchemaFeatureExtractor()
        memo = MemoizedSchemaFeatureExtractor(embedder=MemoizedEmbedder(plain.embedder))
        for example in dataset.dev:
            schema = dataset.database_of(example).schema
            for table in schema.tables:
                assert (
                    memo.table_features(example.question, table).tobytes()
                    == plain.table_features(example.question, table).tobytes()
                )
                for column in table.columns:
                    assert (
                        memo.column_features(example.question, table, column).tobytes()
                        == plain.column_features(example.question, table, column).tobytes()
                    )


def _plain_training_matrix(examples):
    """The classifier's training matrix through the plain extractor."""
    extractor = SchemaFeatureExtractor()
    rows, labels = [], []
    for example in examples:
        for table in example.schema.tables:
            rows.append(extractor.table_features(example.question, table))
            labels.append(float(table.name.lower() in example.gold_tables))
            for column in table.columns:
                rows.append(extractor.column_features(
                    example.question, table, column, list(example.matched_values)
                ))
                key = f"{table.name.lower()}.{column.name.lower()}"
                labels.append(float(key in example.gold_columns))
    return np.stack(rows), np.array(labels)


def _spider_linking_examples(per_database):
    """``per_database`` training examples of each Spider train schema,
    grouped by database and round-robin across databases."""
    dataset = build_spider()
    groups = {}
    for example in dataset.train:
        group = groups.setdefault(example.db_id, [])
        if len(group) < per_database:
            schema = dataset.database_of(example).schema
            group.append(LinkingExample.from_sql(
                example.question, schema, example.sql,
                matched_values=(MatchedValue(
                    schema.tables[0].name, schema.tables[0].columns[0].name,
                    "x", 0.5,
                ),),
            ))
    grouped = [example for group in groups.values() for example in group]
    interleaved = [
        group[index] for index in range(per_database) for group in groups.values()
    ]
    return grouped, interleaved


class TestClassifierFit:
    @pytest.mark.parametrize("order", ["grouped", "interleaved"])
    def test_fit_equals_training_on_the_plain_matrix(self, order):
        grouped, interleaved = _spider_linking_examples(per_database=4)
        examples = grouped if order == "grouped" else interleaved
        assert len({id(example.schema) for example in examples}) > 1
        classifier = SchemaItemClassifier(seed=3)
        classifier.fit(examples, epochs=5, seed=3)
        reference = SchemaItemClassifier(seed=3)
        features, labels = _plain_training_matrix(examples)
        reference.model.fit(features, labels, epochs=5, lr=0.01, seed=3)
        fitted = classifier.model.state_dict()
        expected = reference.model.state_dict()
        assert fitted.keys() == expected.keys()
        for key in expected:
            assert fitted[key].tobytes() == expected[key].tobytes()

    def test_fit_embeds_each_text_once_per_schema_run(self, monkeypatch):
        """Parser fit embeds each question and item text at most once per
        contiguous run of samples on one database, plus the SFT index's
        question and pattern vectors."""
        dataset = build_spider()
        samples = pair_samples(dataset)
        parser = CodeSParser("codes-1b")
        bound = 0
        for database, run in itertools.groupby(samples, key=lambda pair: pair[1]):
            texts = set(_item_texts(database.schema, parser.options.include_comments))
            texts.update(example.question for example, _ in run)
            bound += len(texts)
        embedded = []
        embed = HashedNgramEmbedder.embed

        def counting_embed(self, text):
            embedded.append(text)
            return embed(self, text)

        monkeypatch.setattr(HashedNgramEmbedder, "embed", counting_embed)
        parser.fit(samples)
        index_embeds = 2 * len(parser._index)
        assert len(embedded) <= index_embeds + bound

    def test_evaluate_auc_equals_the_plain_path_with_fewer_embeds(
        self, monkeypatch
    ):
        """AUCs over Spider dev are bit-identical to scoring every example
        through the plain extractor, and each text is embedded at most
        once per contiguous run of examples on one schema."""
        dataset = build_spider()
        examples = [
            LinkingExample.from_sql(
                example.question, dataset.database_of(example).schema, example.sql
            )
            for example in dataset.dev
        ]
        classifier = SchemaItemClassifier(seed=0)
        classifier.fit(_spider_linking_examples(per_database=2)[0], epochs=3)
        bound = 0
        for schema, run in itertools.groupby(examples, key=lambda e: id(e.schema)):
            run = list(run)
            texts = set(_item_texts(run[0].schema))
            texts.update(example.question for example in run)
            bound += len(texts)
        embedded = []
        embed = HashedNgramEmbedder.embed

        def counting_embed(self, text):
            embedded.append(text)
            return embed(self, text)

        monkeypatch.setattr(HashedNgramEmbedder, "embed", counting_embed)
        aucs = classifier.evaluate_auc(examples)
        memoized_embeds = len(embedded)
        embedded.clear()
        labels, scores = ([], []), ([], [])
        for example in examples:
            plain = classifier.score_schema(example.question, example.schema)
            for side, (items, gold) in enumerate((
                (plain.tables, example.gold_tables),
                (plain.columns, example.gold_columns),
            )):
                for key, score in items.items():
                    labels[side].append(int(key in gold))
                    scores[side].append(score)
        plain_aucs = tuple(map(roc_auc, labels, scores))
        assert aucs == plain_aucs
        assert memoized_embeds <= bound < len(embedded) / 4


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
