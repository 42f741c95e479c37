"""What slot filling reads about one request, computed once per request.

:class:`InstantiationContext` holds the target question and database
and memoizes the request-invariant facts every fill reads: the ranked
tables, each table's column pools rendered as fill choices per dialect,
the retrieved values, the question's numbers and string spans with
their rendered literals, and the question-wording cues (comparison,
order direction, aggregate, top-k, first letter) that condition a
template's operators.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Optional, TypeVar

from repro.db.schema import Schema
from repro.linking.classifier import SchemaScores
from repro.retrieval.value_retriever import MatchedValue
from repro.sqlgen.ast import ColumnRef, JoinEdge, Literal, identifier_key
from repro.sqlgen.dialects import DialectEmitter

_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?")
_QUOTED_RE = re.compile(r"'([^']*)'|\"([^\"]*)\"")
_TOPK_RE = re.compile(r"\btop (\d+)\b|\bthe (\d+) \b|\b(\d+) most\b", re.IGNORECASE)
_LETTER_RE = re.compile(
    r"\b(?:letter|beginning with|starts? with(?: the letter)?)\s+([A-Za-z])\b"
)
_CAPITALIZED_SPAN_RE = re.compile(r"(?<!^)(?<![.?!]\s)\b([A-Z][a-z]+(?: [A-Z][a-z]+)*)\b")

_Cue = TypeVar("_Cue")

_NUMERIC_TYPES = ("INTEGER", "REAL")
_TEXT_TYPES = ("TEXT", "DATE")

_GREATER_CUES = re.compile(
    r"\b(more than|greater|above|over|exceed\w*|higher|bigger|larger)\b", re.IGNORECASE
)
_GEQ_CUES = re.compile(r"\b(at least|no less than|or more)\b", re.IGNORECASE)
_LESS_CUES = re.compile(
    r"\b(less than|below|under|fewer|smaller|lower)\b", re.IGNORECASE
)
_DESC_PHRASES = re.compile(
    r"\b(largest to smallest|highest to lowest|biggest to smallest|"
    r"descending|decreasing)\b",
    re.IGNORECASE,
)
_ASC_PHRASES = re.compile(
    r"\b(smallest to largest|lowest to highest|ascending|increasing)\b",
    re.IGNORECASE,
)
_DESC_CUES = re.compile(
    r"\b(highest|largest|greatest|most|biggest|top)\b", re.IGNORECASE
)
_ASC_CUES = re.compile(r"\b(lowest|smallest|least|fewest)\b", re.IGNORECASE)
_AGG_CUES = (
    (re.compile(r"\b(average|mean)\b", re.IGNORECASE), "avg"),
    (re.compile(r"\b(maximum|highest|largest|greatest|biggest)\b", re.IGNORECASE), "max"),
    (re.compile(r"\b(minimum|lowest|smallest|least)\b", re.IGNORECASE), "min"),
    (re.compile(r"\b(total|sum|overall)\b", re.IGNORECASE), "sum"),
)


def question_comparison_op(question: str, default: str) -> str:
    """Comparison operator implied by the question's wording."""
    if _GEQ_CUES.search(question):
        return ">="
    if _GREATER_CUES.search(question):
        return ">"
    if _LESS_CUES.search(question):
        return "<"
    return default


def question_order_direction(question: str, default: bool) -> bool:
    """True for DESC, judged from superlative cues.

    Explicit multi-word order phrases ("smallest to largest") are
    checked before single superlatives, whose words they contain.
    """
    if _ASC_PHRASES.search(question):
        return False
    if _DESC_PHRASES.search(question):
        return True
    if _DESC_CUES.search(question):
        return True
    if _ASC_CUES.search(question):
        return False
    return default


def question_aggregate(question: str, default: str) -> str:
    """Aggregation function implied by the question (avg/max/min/sum)."""
    for pattern, func in _AGG_CUES:
        if pattern.search(question):
            return func
    return default


@dataclass
class InstantiationContext:
    """Everything slot filling needs about the target question/database.

    One context serves one request.  The request-invariant facts every
    fill reads (ranked tables, column pools rendered per dialect,
    question literals and wording cues) are computed on first use and
    memoized on the context, so they live exactly as long as the
    request does.
    """

    question: str
    schema: Schema
    scores: SchemaScores
    matched_values: list[MatchedValue] = field(default_factory=list)
    use_types: bool = True
    slot_depth: int = 3
    representative: Optional[Callable[[str, str], list]] = None
    _cues: dict[tuple[Callable, object], object] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _pools: dict[DialectEmitter, dict] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _strings: dict[tuple, "tuple[str, object] | None"] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @cached_property
    def ranked_tables(self) -> tuple[str, ...]:
        ranked = self.scores.top_tables(len(self.schema.tables))
        return tuple(name for name in ranked if self.schema.has_table(name))

    def join(self, left_tables: list[str], right_table: str) -> JoinEdge | None:
        """The edge joining ``right_table`` to the first of ``left_tables``
        a foreign key links it to (or, without key metadata, that shares
        a column name with it)."""
        schema = self.schema
        for left_table in left_tables:
            fkey = schema.join_edge(left_table, right_table)
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
        right = schema.table(right_table)
        for left_table in left_tables:
            for column in schema.table(left_table).columns:
                if right.has_column(column.name):
                    return JoinEdge(
                        table=right_table,
                        left=ColumnRef(left_table, column.name),
                        right=ColumnRef(right_table, column.name),
                    )
        return None

    def table_assignments(self, template_tables: list[str]) -> list[dict[str, str]]:
        """Target tables for the (lower-cased) ``template_tables``, best
        first: the top-ranked tables for one table, joinable pairs (plus
        the next free tables) for more."""
        ranked = self.ranked_tables
        if not ranked:
            return []
        depth = max(1, self.slot_depth)
        if len(template_tables) == 1:
            return [{template_tables[0]: table} for table in ranked[:depth]]
        # Multi-table templates: prefer pairs connected by a join path.
        assignments: list[dict[str, str]] = []
        pool = ranked[: depth + 2]
        for first in pool:
            for second in pool:
                if first == second:
                    continue
                has_fk = self.schema.join_edge(first, second) is not None
                if self.schema.foreign_keys and not has_fk:
                    continue
                mapping = {template_tables[0]: first, template_tables[1]: second}
                for extra in template_tables[2:]:
                    candidates = [t for t in pool if t not in mapping.values()]
                    if not candidates:
                        break
                    mapping[extra] = candidates[0]
                if len(mapping) == len(template_tables):
                    assignments.append(mapping)
                if len(assignments) >= depth * 2:
                    return assignments
        if not assignments and not self.schema.foreign_keys:
            # Without key metadata fall back to the naive top pairing.
            if len(pool) >= len(template_tables):
                assignments.append(dict(zip(template_tables, pool)))
        return assignments

    def pools(self, emitter: DialectEmitter) -> dict:
        """The column pools (and retrieved values) made for ``emitter``."""
        pools = self._pools.get(emitter)
        if pools is None:
            pools = self._pools[emitter] = {}
        return pools

    def column_pool(
        self, emitter: DialectEmitter, table_name: str, kind: str, keyless: bool
    ) -> tuple["_Col", ...]:
        """``table_name``'s columns as fill choices, best-ranked first,
        each column's key and ``emitter`` text made once per request.

        ``kind`` is ``"numeric"``, ``"text"`` or ``"any"``; the type
        filter is skipped when column types are ablated away.
        ``keyless`` then drops primary-key and ``*_id`` columns from a
        pool of two or more, unless that leaves none.
        """
        pools = self.pools(emitter)
        pool = pools.get((table_name, kind, keyless))
        if pool is None:
            ranked = pools.get((table_name,))
            if ranked is None:
                table, table_key = self.schema.table(table_name), identifier_key(table_name)
                ranked = pools[table_name,] = tuple(
                    (column, _Col(
                        f"{table_key}.{identifier_key(column.name)}",
                        emitter.render_column(ColumnRef(table_name, column.name)),
                        column.name,
                    ))
                    for column in map(
                        table.column, self.scores.top_columns(table_name, len(table.columns))
                    )
                )
            if self.use_types and kind in ("numeric", "text"):
                types = _NUMERIC_TYPES if kind == "numeric" else _TEXT_TYPES
                ranked = [pair for pair in ranked if pair[0].type.upper() in types]
            if keyless and len(ranked) > 1:
                ranked = [
                    pair for pair in ranked
                    if not pair[0].is_primary
                    and not identifier_key(pair[0].name).endswith("_id")
                ] or ranked
            pool = pools[table_name, kind, keyless] = tuple(col for _, col in ranked)
        return pool

    def values(self, emitter: DialectEmitter) -> tuple["_Value", ...]:
        """The retrieved values as fill choices, rendered for ``emitter``."""
        pools = self.pools(emitter)
        values = pools.get(())
        if values is None:
            values = pools[()] = tuple(
                _Value(
                    _Col(
                        ColumnRef(m.table, m.column).key(),
                        emitter.render_column(ColumnRef(m.table, m.column)),
                        m.column,
                    ),
                    identifier_key(m.table),
                    m.degree,
                    _literal(Literal(m.value)),
                )
                for m in self.matched_values
            )
        return values

    def repaired_literal(self, table: str, column: str, surface) -> tuple[str, object]:
        """(text, value) of the question span ``surface`` aligned with
        ``column``'s stored format."""
        key = ("repaired", table, column, surface)
        if key not in self._strings:
            value = surface
            if self.representative is not None and surface:
                value = _repaired(surface, self._stored(table, column))
            self._strings[key] = _literal(Literal(value))
        return self._strings[key]

    def stored_literal(self, table: str, column: str) -> "tuple[str, object] | None":
        """(text, value) of ``column``'s first representative string, if any."""
        key = ("stored", table, column)
        if key not in self._strings:
            stored = self._stored(table, column) if self.representative else []
            self._strings[key] = _literal(Literal(stored[0])) if stored else None
        return self._strings[key]

    def _stored(self, table: str, column: str) -> list[str]:
        return [v for v in self.representative(table, column) if isinstance(v, str)]

    @cached_property
    def question_numbers(self) -> tuple[float | int, ...]:
        """Numbers mentioned in the question, in mention order."""
        return tuple(
            float(raw) if "." in raw else int(raw)
            for raw in _NUMBER_RE.findall(self.question)
        )

    @cached_property
    def number_literals(self) -> tuple[tuple[str, float | int], ...]:
        """(text, value) of each number in the question, in mention order."""
        return tuple(_literal(Literal(n)) for n in self.question_numbers)

    @cached_property
    def question_strings(self) -> tuple[str, ...]:
        """Literal string candidates in mention order (quoted, then entities)."""
        strings: list[str] = []
        for quoted in _QUOTED_RE.finditer(self.question):
            strings.append(quoted.group(1) or quoted.group(2))
        for span in _CAPITALIZED_SPAN_RE.finditer(self.question):
            text = span.group(1)
            if text not in strings:
                strings.append(text)
        return tuple(strings)

    def question_cue(self, cue: Callable[[str, _Cue], _Cue], default: _Cue) -> _Cue:
        """``cue(question, default)``, read once per request per (cue, default).

        ``cue`` is one of the module's wording readers
        (:func:`question_order_direction`, :func:`question_aggregate`,
        :func:`question_comparison_op`).
        """
        key = (cue, default)
        if key not in self._cues:
            self._cues[key] = cue(self.question, default)
        return self._cues[key]

    @cached_property
    def question_top_k(self) -> int | None:
        """The row count a "top 3"/"the 5 ..."/"3 most" question asks for."""
        match = _TOPK_RE.search(self.question)
        return int(next(g for g in match.groups() if g)) if match else None

    @cached_property
    def question_letter(self) -> str | None:
        """The upper-cased letter a "starts with the letter x" question names."""
        match = _LETTER_RE.search(self.question)
        return match.group(1).upper() if match else None


def _repaired(surface: str, stored: list[str]) -> str:
    """Align a question-surface value with the column's stored format.

    The prompt's representative values (§6.3) show the model how the
    column actually stores data; when a stored value *contains* the
    question's mention ("Graz" -> "City of Graz", "F" -> "Female"), the
    stored form is copied.  Semantic re-expressions with no surface
    overlap ("approved" -> "granted") cannot be repaired — the
    sparse-retrieval weakness the paper reports on Dr.Spider's
    DBcontent-equivalence split.
    """
    from repro.retrieval.lcs import longest_common_substring

    if surface in stored:
        return surface
    best, best_containment = None, 0.0
    for value in stored:
        containment = len(longest_common_substring(surface, value)) / len(surface)
        if containment > best_containment:
            best, best_containment = value, containment
    return best if best is not None and best_containment >= 0.8 else surface


class _Col(NamedTuple):
    """A target column as a fill choice: its key, its dialect text, its name."""

    key: str
    text: str
    name: str


class _Value(NamedTuple):
    """A retrieved value as a fill choice."""

    column: _Col
    table_key: str
    degree: float
    literal: tuple[str, object]


def _literal(literal: Literal) -> tuple[str, object]:
    """(SQL text, value) of ``literal``."""
    return literal.render(), literal.value
