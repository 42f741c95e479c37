"""The schema-item classifier (§6.1).

A compact MLP predicts, per table and per column, the probability that
the item is needed to answer the question.  Labels for training come
straight from the gold SQL (the tables/columns it references), exactly
as in RESDSQL [36] which the paper follows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.db.schema import Schema
from repro.errors import SQLSyntaxError, TrainingError
from repro.eval.metrics import roc_auc
from repro.linking.features import (
    FEATURE_DIM,
    MemoizedSchemaFeatureExtractor,
    SchemaFeatureExtractor,
)
from repro.nn.mlp import MLPClassifier
from repro.retrieval.value_retriever import MatchedValue
from repro.sqlgen.parser import parse_sql
from repro.text.embedder import MemoizedEmbedder


@dataclass(frozen=True)
class LinkingExample:
    """One supervised schema-linking example."""

    question: str
    schema: Schema
    gold_tables: frozenset[str]
    gold_columns: frozenset[str]
    matched_values: tuple[MatchedValue, ...] = ()

    @classmethod
    def from_sql(
        cls,
        question: str,
        schema: Schema,
        sql: str,
        matched_values: tuple[MatchedValue, ...] = (),
    ) -> "LinkingExample":
        """Derive gold table/column labels from the gold SQL query."""
        from repro.sqlgen.transform import qualify_columns

        try:
            query = qualify_columns(parse_sql(sql))
        except SQLSyntaxError as exc:
            raise TrainingError(f"gold SQL unparseable: {sql!r}") from exc
        return cls(
            question=question,
            schema=schema,
            gold_tables=frozenset(query.tables_used()),
            gold_columns=frozenset(query.columns_used()),
            matched_values=matched_values,
        )


@dataclass(frozen=True)
class SchemaScores:
    """Relevance scores for every table and column of one schema."""

    tables: dict[str, float]
    columns: dict[str, float]

    def top_tables(self, k: int) -> list[str]:
        ranked = sorted(self.tables.items(), key=lambda item: (-item[1], item[0]))
        return [name for name, _ in ranked[:k]]

    def top_columns(self, table_name: str, k: int) -> list[str]:
        prefix = table_name.lower() + "."
        ranked = sorted(
            (
                (key.split(".", 1)[1], score)
                for key, score in self.columns.items()
                if key.startswith(prefix)
            ),
            key=lambda item: (-item[1], item[0]),
        )
        return [name for name, _ in ranked[:k]]


class SchemaItemClassifier:
    """MLP over schema-linking features, one shared model for tables+columns."""

    def __init__(
        self,
        extractor: SchemaFeatureExtractor | None = None,
        hidden_dim: int = 16,
        seed: int = 0,
    ):
        self.extractor = extractor or SchemaFeatureExtractor()
        self.model = MLPClassifier(FEATURE_DIM, hidden_dim=hidden_dim, seed=seed)
        self.trained = False

    def with_extractor(
        self, extractor: SchemaFeatureExtractor
    ) -> "SchemaItemClassifier":
        """A scoring view of this classifier using another feature extractor.

        The view shares the trained MLP (``model`` is the same object),
        so serving paths can swap in a memoizing extractor without
        retraining or copying weights.  ``trained`` is snapshotted at
        view creation — build views after fitting (the engine's
        link-assets cache is cleared on ``CodeSParser.fit`` for exactly
        this reason).
        """
        view = SchemaItemClassifier.__new__(SchemaItemClassifier)
        view.extractor = extractor
        view.model = self.model
        view.trained = self.trained
        return view

    # -- training -----------------------------------------------------------

    def _per_schema_run(self, examples: list[LinkingExample]):
        """(extractor, example) pairs: a fresh memoized extractor over
        this classifier's embedder for each contiguous run of examples
        on one schema, so each text is embedded once per run and the
        memo never holds more than one schema's texts."""
        schema = None
        for example in examples:
            if example.schema is not schema:
                schema = example.schema
                extractor = MemoizedSchemaFeatureExtractor(
                    embedder=MemoizedEmbedder(self.extractor.embedder),
                    use_comments=self.extractor.use_comments,
                )
            yield extractor, example

    def _build_training_matrix(
        self, examples: list[LinkingExample]
    ) -> tuple[np.ndarray, np.ndarray]:
        """One feature row and label per (example, schema item), in order.

        Every question meets every item of its schema, so the plain
        extractor would embed each question once per item and each item
        name once per question.  Rows are built instead through the
        serving path's memoized extractor and embedder, whose features
        are bit-identical, one memo per schema run
        (:meth:`_per_schema_run`).  Row order, and with it the seeded
        training, is unchanged.
        """
        rows: list[np.ndarray] = []
        labels: list[float] = []
        for extractor, example in self._per_schema_run(examples):
            matched = list(example.matched_values)
            for table in example.schema.tables:
                rows.append(extractor.table_features(example.question, table))
                labels.append(float(table.name.lower() in example.gold_tables))
                for column in table.columns:
                    rows.append(
                        extractor.column_features(
                            example.question, table, column, matched
                        )
                    )
                    key = f"{table.name.lower()}.{column.name.lower()}"
                    labels.append(float(key in example.gold_columns))
        if not rows:
            raise TrainingError("no schema items found in the training examples")
        return np.stack(rows), np.array(labels)

    def fit(
        self,
        examples: list[LinkingExample],
        epochs: int = 40,
        lr: float = 0.01,
        seed: int = 0,
    ) -> list[float]:
        """Train on supervised examples; returns the loss curve."""
        features, labels = self._build_training_matrix(examples)
        history = self.model.fit(features, labels, epochs=epochs, lr=lr, seed=seed)
        self.trained = True
        return history

    # -- inference ----------------------------------------------------------

    def score_schema(
        self,
        question: str,
        schema: Schema,
        matched_values: list[MatchedValue] | None = None,
    ) -> SchemaScores:
        """Relevance scores for every table and column."""
        table_rows: list[np.ndarray] = []
        column_rows: list[np.ndarray] = []
        table_names: list[str] = []
        column_keys: list[str] = []
        matched = list(matched_values or ())
        for table in schema.tables:
            table_rows.append(self.extractor.table_features(question, table))
            table_names.append(table.name.lower())
            for column in table.columns:
                column_rows.append(
                    self.extractor.column_features(question, table, column, matched)
                )
                column_keys.append(f"{table.name.lower()}.{column.name.lower()}")
        table_scores = self.model.predict_proba(np.stack(table_rows))
        column_scores = self.model.predict_proba(np.stack(column_rows))
        return SchemaScores(
            tables=dict(zip(table_names, table_scores.tolist())),
            columns=dict(zip(column_keys, column_scores.tolist())),
        )

    # -- evaluation ---------------------------------------------------------

    def evaluate_auc(self, examples: list[LinkingExample]) -> tuple[float, float]:
        """(table AUC, column AUC) on held-out examples — Table 3's metric.

        Scores through a view over each schema run's memoized extractor,
        as training does: bit-identical scores, each text embedded once
        per run.
        """
        table_labels: list[int] = []
        table_scores: list[float] = []
        column_labels: list[int] = []
        column_scores: list[float] = []
        for extractor, example in self._per_schema_run(examples):
            scores = self.with_extractor(extractor).score_schema(
                example.question, example.schema, list(example.matched_values)
            )
            for name, score in scores.tables.items():
                table_labels.append(int(name in example.gold_tables))
                table_scores.append(score)
            for key, score in scores.columns.items():
                column_labels.append(int(key in example.gold_columns))
                column_scores.append(score)
        return (
            roc_auc(table_labels, table_scores),
            roc_auc(column_labels, column_scores),
        )
