"""Coarse-to-fine value retriever (§6.2).

Stage 1 (coarse): a BM25 index over every distinct text value in the
database pulls a few hundred candidates for the question.
Stage 2 (fine): the longest-common-substring match degree re-ranks the
candidates and keeps only confident matches.

The retriever also supports an ``exhaustive`` mode that skips BM25 and
runs LCS against every value — the quadratic baseline the paper
explicitly rejects, kept here for the speed benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import re

from repro.db.backends.sqlite import Database
from repro.retrieval.bm25 import BM25Index
from repro.retrieval.lcs import lcs_match_degree, longest_common_substring


@dataclass(frozen=True)
class MatchedValue:
    """A database value matched against the question."""

    table: str
    column: str
    value: str
    degree: float

    def render(self) -> str:
        """Prompt rendering, e.g. ``district.a2 = 'Jesenik'``."""
        escaped = self.value.replace("'", "''")
        return f"{self.table}.{self.column} = '{escaped}'"


class ValueRetriever:
    """Retrieve question-relevant database values, coarse-to-fine."""

    def __init__(
        self,
        database: Database,
        coarse_k: int = 200,
        min_degree: float = 0.5,
        max_matches: int = 6,
    ):
        if coarse_k <= 0:
            raise ValueError(f"coarse_k must be positive, got {coarse_k}")
        self.database = database
        self.coarse_k = coarse_k
        self.min_degree = min_degree
        self.max_matches = max_matches
        self._index = BM25Index()
        self._values: list[tuple[str, str, str]] = []
        for position, (table, column, value) in enumerate(database.iter_text_values()):
            self._values.append((table, column, value))
            self._index.add(position, value)

    @property
    def indexed_value_count(self) -> int:
        return len(self._values)

    def retrieve(self, question: str) -> list[MatchedValue]:
        """Best-matching values for ``question`` via BM25 then LCS."""
        hits = self._index.search(question, top_k=self.coarse_k)
        candidates = ((self._values[hit.doc_id]) for hit in hits)
        return self._fine_rank(question, candidates)

    def retrieve_exhaustive(self, question: str) -> list[MatchedValue]:
        """LCS over every indexed value — the quadratic baseline."""
        return self._fine_rank(question, iter(self._values))

    def _fine_rank(self, question, candidates) -> list[MatchedValue]:
        matches: list[MatchedValue] = []
        seen: set[tuple[str, str, str]] = set()
        for table, column, value in candidates:
            key = (table, column, value)
            if key in seen:
                continue
            seen.add(key)
            degree = lcs_match_degree(question, value)
            if degree >= self.min_degree or self._entity_containment(question, value):
                matches.append(
                    MatchedValue(table=table, column=column, value=value, degree=degree)
                )
        matches.sort(key=lambda match: (-match.degree, -len(match.value)))
        return matches[:self.max_matches]

    @staticmethod
    def _entity_containment(question: str, value: str) -> bool:
        """True when the question mentions an entity the value contains.

        "clients in Graz" matches the stored value "City of Graz": the
        shared substring is a whole, capitalized (entity-like) question
        word.  This recovers values whose stored form wraps the user's
        mention, without opening the door to stopword-level noise.
        """
        shared = longest_common_substring(question, value).strip()
        if len(shared) < 3 or not shared[0].isupper():
            return False
        return bool(re.search(rf"\b{re.escape(shared)}\b", question))
