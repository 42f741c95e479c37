"""Features for the schema-item classifier.

Each (question, schema item) pair maps to a fixed-size vector of
lexical and semantic signals.  Comments enter the features exactly as
the paper prescribes for ambiguous schemas (§6.3): when a column name
like ``a2`` says nothing, its comment ("district name") still overlaps
with the question.
"""

from __future__ import annotations

import numpy as np

from repro.db.schema import Column, Table
from repro.memo import Memo
from repro.retrieval.lcs import lcs_match_degree
from repro.retrieval.value_retriever import MatchedValue
from repro.sqlgen.ast import ColumnRef
from repro.text.embedder import HashedNgramEmbedder
from repro.text.similarity import jaccard_similarity, token_overlap
from repro.text.tokenize import sentence_tokens, stemmed_tokens

#: Size of the feature vector produced per schema item.
FEATURE_DIM = 11

#: Entries kept in each of a :class:`MemoizedSchemaFeatureExtractor`'s memos.
MEMO_CAPACITY = 8192


def _readable(name: str) -> str:
    return name.replace("_", " ")


def _stemmed_token_set(text: str) -> frozenset[str]:
    return frozenset(stemmed_tokens(text))


class SchemaFeatureExtractor:
    """Turns (question, table/column) pairs into feature vectors."""

    def __init__(self, embedder: HashedNgramEmbedder | None = None,
                 use_comments: bool = True):
        self.embedder = embedder or HashedNgramEmbedder(dim=128)
        self.use_comments = use_comments

    # Token-level primitives are instance methods so a memoizing
    # subclass can cache them; the base versions delegate unchanged.

    def _overlap(self, query: str, target: str) -> float:
        return token_overlap(query, target)

    def _jaccard(self, query: str, target: str) -> float:
        return jaccard_similarity(query, target)

    def _sentence_token_set(self, text: str) -> frozenset[str]:
        return frozenset(sentence_tokens(text))

    def _name_features(self, question: str, name: str, comment: str) -> list[float]:
        readable = _readable(name)
        question_tokens = self._sentence_token_set(question)
        name_tokens = self._sentence_token_set(readable)
        exact_mention = float(
            bool(name_tokens) and name_tokens <= question_tokens
        )
        comment_text = comment if self.use_comments else ""
        return [
            self._overlap(question, readable),
            self._jaccard(question, readable),
            self.embedder.similarity(question, readable),
            self._overlap(question, comment_text) if comment_text else 0.0,
            self.embedder.similarity(question, comment_text) if comment_text else 0.0,
            exact_mention,
            lcs_match_degree(question.lower(), readable.lower()),
            min(len(readable), 20) / 20.0,
        ]

    def table_features(self, question: str, table: Table) -> np.ndarray:
        """Feature vector for one table."""
        base = self._name_features(question, table.name, table.comment)
        column_overlaps = [
            self._overlap(question, _readable(column.name))
            for column in table.columns
        ]
        best_column = max(column_overlaps) if column_overlaps else 0.0
        return np.array([*base, 1.0, best_column, 1.0], dtype=np.float64)

    def column_features(
        self,
        question: str,
        table: Table,
        column: Column,
        matched_values: list[MatchedValue] | None = None,
    ) -> np.ndarray:
        """Feature vector for one column (optionally value-aware)."""
        base = self._name_features(question, column.name, column.comment)
        value_hit = 0.0
        target = ColumnRef(table.name, column.name).key()
        for match in matched_values or ():
            if ColumnRef(match.table, match.column).key() == target:
                value_hit = max(value_hit, match.degree)
        return np.array([*base, 0.0, value_hit, 1.0], dtype=np.float64)


class MemoizedSchemaFeatureExtractor(SchemaFeatureExtractor):
    """A feature extractor caching tokenizations and name features.

    Schema linking recomputes the same token sets and name-feature rows
    many times: every scoring pass touches every schema item, the
    question's tokens enter every pairwise signal, and a schema's item
    names never change between questions.  Caching (a) token sets per
    text and (b) whole ``_name_features`` rows per ``(question, name,
    comment)`` makes the repeats free — and because set intersections
    over the cached frozensets run the exact computation the module
    functions run, every feature value is bit-identical to the base
    extractor's.

    Intended to be scoped per database (the engine's link-assets
    bundle), so item-side entries stay warm across every question
    served on that schema.  Each internal memo keeps the
    :data:`MEMO_CAPACITY` most recently used entries.
    """

    def __init__(
        self,
        embedder: HashedNgramEmbedder | None = None,
        use_comments: bool = True,
    ):
        super().__init__(embedder=embedder, use_comments=use_comments)
        self._stem_sets = Memo(MEMO_CAPACITY)
        self._sent_sets = Memo(MEMO_CAPACITY)
        self._rows = Memo(MEMO_CAPACITY)

    def _stem_set(self, text: str) -> frozenset[str]:
        return self._stem_sets.get(text, _stemmed_token_set, text)

    def _sentence_token_set(self, text: str) -> frozenset[str]:
        return self._sent_sets.get(text, super()._sentence_token_set, text)

    def _overlap(self, query: str, target: str) -> float:
        target_set = self._stem_set(target)
        if not target_set:
            return 0.0
        query_set = self._stem_set(query)
        return len(target_set & query_set) / len(target_set)

    def _jaccard(self, query: str, target: str) -> float:
        left_set = self._stem_set(query)
        right_set = self._stem_set(target)
        if not left_set and not right_set:
            return 1.0
        if not left_set or not right_set:
            return 0.0
        return len(left_set & right_set) / len(left_set | right_set)

    def _name_features(self, question: str, name: str, comment: str) -> list[float]:
        return self._rows.get(
            (question, name, comment),
            super()._name_features,
            question,
            name,
            comment,
        )
