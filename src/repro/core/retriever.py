"""The Eq. 4 index and the question-pattern-aware retriever (§8.2).

Eq. 4 scores a candidate by the *maximum* of the raw-question
similarity and the entity-stripped question-*pattern* similarity, so
examples that share structure win even when their entities differ
("singers born in 1948 or 1949" matches "members from either 'United
States' or 'Canada'").  :class:`TemplateIndex` computes it for SFT
template retrieval and for demonstration selection alike.
"""

from __future__ import annotations

import copy
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.core.slotfill import PlannedTemplate
from repro.datasets.base import Text2SQLExample
from repro.errors import SQLSyntaxError
from repro.sqlgen.ast import Query
from repro.sqlgen.parser import parse_sql
from repro.sqlgen.skeleton import skeleton_of_query
from repro.text.pattern import extract_pattern

if TYPE_CHECKING:
    from repro.text.embedder import HashedNgramEmbedder, MemoizedEmbedder


@dataclass(frozen=True)
class _IndexEntry:
    """One indexed question with its template.

    ``skeleton`` is the template's SQL skeleton key and ``plans`` holds
    its fill plans, compiled per dialect on first use.  A pool example
    whose SQL does not parse has neither template, skeleton nor plans.
    """

    question: str
    template: Query | None
    skeleton: str | None
    plans: PlannedTemplate | None = field(default=None, repr=False, compare=False)


def _query_vectors(question: str, embedder, use_pattern: bool):
    """``question``'s embedding and, with ``use_pattern``, its pattern's
    (None without): the query side of Eq. 4."""
    pattern_vec = embedder.embed(extract_pattern(question)) if use_pattern else None
    return embedder.embed(question), pattern_vec


class TemplateIndex:
    """Questions and templates over stacked question and pattern embeddings.

    Built from (question, SQL) pairs, parsing each SQL text once (an
    already parsed :class:`Query` is taken as the template); an entry
    whose SQL does not parse keeps its row but has no template.  One per
    SFT fit or checkpoint load, and one per training pool; a few-shot
    request searches a :meth:`subset` of its pool's index.  Row ``i`` of
    :attr:`question_matrix` / :attr:`pattern_matrix` embeds entry ``i``'s
    question / question pattern.
    """

    def __init__(
        self,
        pairs: Iterable[tuple[str, str | Query]],
        embedder: "HashedNgramEmbedder | MemoizedEmbedder",
    ):
        pairs = list(pairs)
        self.dim = embedder.dim
        self.question_matrix = np.zeros((len(pairs), embedder.dim))
        self.pattern_matrix = np.zeros((len(pairs), embedder.dim))
        entries = []
        for row, (question, sql) in enumerate(pairs):
            self.question_matrix[row] = embedder.embed(question)
            self.pattern_matrix[row] = embedder.embed(extract_pattern(question))
            if isinstance(sql, Query):
                template = sql
            else:
                try:
                    template = parse_sql(sql)
                except SQLSyntaxError:
                    template = None
            if template is None:
                entries.append(_IndexEntry(question, None, None))
            else:
                entries.append(_IndexEntry(
                    question, template, skeleton_of_query(template),
                    PlannedTemplate(template),
                ))
        self.entries = tuple(entries)
        # A dot product of d terms, summed in any order, is off by at
        # most gamma_d = d*u/(1 - d*u) times the sum of |x_i*y_i|, which
        # is at most 1 for unit vectors (and < 2 with their rounding).
        # The screened and the exact similarity are each that close to
        # the true one, hence to each other within 2 * 2 * gamma_d.
        unit = 2.0**-53 * embedder.dim
        self.slack = 4 * unit / (1 - unit)

    def subset(self, rows: Iterable[int]) -> "TemplateIndex":
        """The given rows that have a template, in the given order, with
        their questions, templates, skeleton keys and vectors as they are."""
        kept = [row for row in rows if self.entries[row].template is not None]
        if kept == list(range(len(self.entries))):
            return self  # every row, in order: share the matrices
        index = copy.copy(self)
        index.question_matrix = self.question_matrix[kept]
        index.pattern_matrix = self.pattern_matrix[kept]
        index.entries = tuple(self.entries[row] for row in kept)
        return index

    def __len__(self) -> int:
        return len(self.entries)

    def screen(
        self, question_vec: np.ndarray, pattern_vec: np.ndarray | None
    ) -> tuple[np.ndarray, list[int]]:
        """Every row's screened Eq. 4 similarity, ``max(Q@q, P@p)`` (``Q@q``
        when ``pattern_vec`` is None), and the rows best first under a
        stable sort (ties in row order)."""
        screen = self.question_matrix @ question_vec
        if pattern_vec is not None:
            screen = np.maximum(screen, self.pattern_matrix @ pattern_vec)
        return screen, np.argsort(-screen, kind="stable").tolist()

    def search(
        self,
        question: str,
        embedder: "HashedNgramEmbedder | MemoizedEmbedder",
        use_pattern: bool,
        top_n: int,
    ) -> list[tuple[_IndexEntry, float]]:
        """The first ``top_n`` entries by Eq. 4 similarity to ``question``,
        best first (ties in index order), keeping at most two per
        skeleton, since near-duplicate templates waste beam slots.

        ``embedder`` embeds the question and, with ``use_pattern``, its
        pattern (without, entries rank by question similarity alone); an
        embedder of another width than the index's raises ``ValueError``.
        The :meth:`screen` orders every entry; only a prefix of that order
        gets the exact per-entry similarity the ranking uses.  The
        prefix doubles until the walk has ``top_n`` entries and the next
        screened value, plus :attr:`slack`, falls below the last pick's
        exact similarity: every entry left out then sorts after the last
        pick, so the walk is the one over every entry scored exactly.
        """
        if embedder.dim != self.dim:
            raise ValueError(
                f"template index of width {self.dim} searched with an "
                f"embedder of width {embedder.dim}"
            )
        if not self.entries:
            return []
        question_vec, pattern_vec = _query_vectors(question, embedder, use_pattern)
        screen, order = self.screen(question_vec, pattern_vec)
        exact: dict[int, float] = {}
        size = min(len(order), max(1, 2 * top_n))
        while True:
            for row in order[len(exact):size]:
                sim = float(self.question_matrix[row] @ question_vec)
                if pattern_vec is not None:
                    sim = max(sim, float(self.pattern_matrix[row] @ pattern_vec))
                exact[row] = sim
            picked: list[tuple[_IndexEntry, float]] = []
            per_skeleton: Counter[str] = Counter()
            ranked = sorted(exact.items(), key=lambda item: (-item[1], item[0]))
            for row, sim in ranked:
                entry = self.entries[row]
                if per_skeleton[entry.skeleton] >= 2:
                    continue
                per_skeleton[entry.skeleton] += 1
                picked.append((entry, sim))
                if len(picked) >= top_n:
                    break
            if size == len(order) or (
                len(picked) >= top_n
                and screen[order[size]] + self.slack < picked[-1][1]
            ):
                return picked
            size = min(len(order), 2 * size)


@dataclass(frozen=True)
class ScoredDemonstration:
    """One retrieved demonstration with its similarity score and pool row."""

    example: Text2SQLExample
    score: float
    row: int


class DemonstrationRetriever:
    """Selects the K most useful demonstrations from a training pool.

    The pool's :class:`TemplateIndex` is built once, with the parser's
    embedder, and ``mode`` selects the ablation arm over it:

    - ``"pattern-aware"`` — max(question sim, pattern sim) (the paper's
      retriever);
    - ``"question-only"`` — raw question similarity only
      (the "-w/o pattern similarity" arm of Table 9);
    - ``"random"`` — uniform selection
      (the "-w/o demonstration retriever" arm).

    The ranked modes take the head of the index's screen order, not the
    exact per-entry order :meth:`TemplateIndex.search` refines it to:
    that is the order Tables 4, 9 and 10 were measured with.
    """

    MODES = ("pattern-aware", "question-only", "random")

    def __init__(
        self,
        pool: list[Text2SQLExample],
        embedder: "HashedNgramEmbedder",
        mode: str = "pattern-aware",
        seed: int = 0,
    ):
        if mode not in self.MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {self.MODES}")
        self.pool = list(pool)
        self.embedder = embedder
        self.mode = mode
        self._rng = random.Random(seed)
        self.index = TemplateIndex(((e.question, e.sql) for e in self.pool), embedder)

    def retrieve(self, question: str, k: int = 3) -> list[ScoredDemonstration]:
        """Top-``k`` demonstrations for ``question`` (best first)."""
        if k <= 0 or not self.pool:
            return []
        if self.mode == "random":
            rows = self._rng.sample(range(len(self.pool)), min(k, len(self.pool)))
            return [ScoredDemonstration(self.pool[row], 0.0, row) for row in rows]
        screen, order = self.index.screen(
            *_query_vectors(question, self.embedder, self.mode == "pattern-aware")
        )
        return [
            ScoredDemonstration(self.pool[row], float(screen[row]), row)
            for row in order[:k]
        ]

    def templates_for(self, question: str, k: int = 3) -> TemplateIndex:
        """The template index of ``question``'s top-``k`` demonstrations:
        the selected rows that have a template, in selection order."""
        return self.index.subset(hit.row for hit in self.retrieve(question, k))
