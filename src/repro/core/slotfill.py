"""Skeleton instantiation: map a template query onto a target schema.

Given a template SQL AST (from a retrieved demonstration, an SFT
training example, or the model's pre-training skeleton bank), this
module produces concrete candidate queries for the *target* database:

- template tables map to the highest-scoring target tables (schema
  linking scores from the classifier or the lexical scorer);
- template columns map to type-compatible columns of the assigned
  table, ranked by column score;
- string literals bind to retrieved database values (stored surface
  form!), quoted question spans, or capitalized entity spans;
- numeric literals bind to the numbers mentioned in the question;
- join conditions are rebuilt from foreign keys (or name-equality when
  key metadata is ablated away).

Each knob failure mode is a real error mode of the system: a missing
foreign key loses the join path, a missed value match produces a
predicate with the wrong surface form, a mis-ranked column selects the
wrong projection.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Optional, TypeVar

from repro.db.schema import Column, Schema
from repro.linking.classifier import SchemaScores
from repro.retrieval.value_retriever import MatchedValue
from repro.sqlgen.ast import (
    Aggregation,
    BetweenCondition,
    BinaryCondition,
    ColumnRef,
    CompoundCondition,
    Condition,
    Expression,
    InCondition,
    JoinEdge,
    LikeCondition,
    Literal,
    NullCondition,
    OrderItem,
    Query,
    SelectItem,
    identifier_key,
)
from repro.sqlgen.dialects.sqlite import SQLITE_EMITTER

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
    fill reads (ranked tables, ranked column pools, question literals
    and wording cues) are computed on first use and memoized on the
    context, so they live exactly as long as the request does.
    """

    question: str
    schema: Schema
    scores: SchemaScores
    matched_values: list[MatchedValue] = field(default_factory=list)
    use_types: bool = True
    slot_depth: int = 3
    representative: Optional[Callable[[str, str], list]] = None
    _column_pools: dict[tuple[str, str], tuple[Column, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _cues: dict[tuple[Callable, object], object] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @cached_property
    def ranked_tables(self) -> tuple[str, ...]:
        ranked = self.scores.top_tables(len(self.schema.tables))
        return tuple(name for name in ranked if self.schema.has_table(name))

    def column_pool(self, table_name: str, kind: str) -> tuple[Column, ...]:
        """``table_name``'s columns, best-ranked first, filtered by ``kind``.

        ``kind`` is ``"numeric"``, ``"text"`` or ``"any"``; the type
        filter is skipped when column types are ablated away.
        """
        if not self.use_types or kind not in ("numeric", "text"):
            kind = "any"
        key = (identifier_key(table_name), kind)
        pool = self._column_pools.get(key)
        if pool is None:
            if kind == "any":
                table = self.schema.table(table_name)
                ranked = self.scores.top_columns(table_name, len(table.columns))
                pool = tuple(table.column(name) for name in ranked)
            else:
                types = _NUMERIC_TYPES if kind == "numeric" else _TEXT_TYPES
                pool = tuple(
                    column
                    for column in self.column_pool(table_name, "any")
                    if column.type.upper() in types
                )
            self._column_pools[key] = pool
        return pool

    @cached_property
    def question_numbers(self) -> tuple[float | int, ...]:
        """Numbers mentioned in the question, in mention order."""
        return tuple(
            float(raw) if "." in raw else int(raw)
            for raw in _NUMBER_RE.findall(self.question)
        )

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


class _Filler:
    """Fills one template under one (table assignment, variant) choice."""

    def __init__(
        self,
        ctx: InstantiationContext,
        table_map: dict[str, str],
        variant: int,
    ):
        self.ctx = ctx
        self.table_map = table_map
        self.variant = variant
        self._column_cache: dict[tuple[str, str], ColumnRef | None] = {}
        self._numbers = list(ctx.question_numbers)
        self._strings = list(ctx.question_strings)
        self._available_values = list(ctx.matched_values)
        self._used_columns: set[str] = set()
        #: Literal slots that had to fall back to template/DB defaults
        #: because nothing in the question grounded them.
        self.ungrounded = 0
        #: Whether some select slot picked by ``variant`` had a column
        #: left past its pick, i.e. ``variant + 1`` would choose another.
        self.variant_matters = False

    # -- table / column mapping ----------------------------------------------

    def _target_table(self, template_table: str) -> str | None:
        if template_table:
            return self.table_map.get(template_table.lower())
        # Unqualified columns belong to the template's only table.
        if len(self.table_map) == 1:
            return next(iter(self.table_map.values()))
        return None

    def map_column(
        self, template_col: ColumnRef, kind: str = "any", role: str = ""
    ) -> ColumnRef | None:
        """Assign a target column to a template column slot.

        The cache is keyed by the template column alone so the same
        template column always maps to the same target column, no
        matter where it re-appears (SELECT vs WHERE vs ORDER BY).
        """
        cache_key = (template_col.key(), "")
        if cache_key in self._column_cache:
            return self._column_cache[cache_key]
        table_name = self._target_table(template_col.table)
        if table_name is None:
            self._column_cache[cache_key] = None
            return None
        candidates = self.ctx.column_pool(table_name, kind)
        # Projection/grouping/aggregation slots should avoid raw key columns.
        if role in ("select", "group", "agg", "order") and len(candidates) > 1:
            non_keys = [
                c for c in candidates
                if not c.is_primary and not c.name.lower().endswith("_id")
            ]
            if non_keys:
                candidates = non_keys
        if not candidates:
            return None
        # Spread distinct template slots across distinct target columns.
        fresh = [c for c in candidates if f"{table_name}.{c.name.lower()}" not in
                 self._used_columns]
        pool = fresh or candidates
        index = 0
        if role == "select":
            index = min(self.variant, len(pool) - 1)
            self.variant_matters |= index < len(pool) - 1
        chosen = pool[index]
        ref = ColumnRef(table=table_name, column=chosen.name)
        self._used_columns.add(f"{table_name}.{chosen.name.lower()}")
        self._column_cache[cache_key] = ref
        return ref

    # -- literal binding -------------------------------------------------------

    def next_number(self, fallback: Literal) -> Literal:
        if self._numbers:
            return Literal(self._numbers.pop(0))
        self.ungrounded += 1
        return fallback

    def _pop_matched_value(self, table: str, column: str) -> MatchedValue | None:
        target = ColumnRef(table, column).key()
        table_key = identifier_key(table)
        same_column = [
            m for m in self._available_values
            if ColumnRef(m.table, m.column).key() == target
        ]
        pool = same_column or [
            m for m in self._available_values if identifier_key(m.table) == table_key
        ]
        if not pool:
            return None
        best = max(pool, key=lambda m: m.degree)
        self._available_values.remove(best)
        return best

    def bind_text_predicate(
        self, template_col: ColumnRef, fallback: Literal
    ) -> tuple[ColumnRef | None, Literal]:
        """Choose (column, value) for an equality predicate on text.

        Retrieved values pin both the column and the stored surface
        form; without them the question's spans fill the value slot.
        """
        table_name = self._target_table(template_col.table)
        if table_name is None:
            return None, fallback
        # A matched value in the assigned table is the strongest signal.
        preferred_col = self.map_column(template_col, kind="text", role="filter")
        match = self._pop_matched_value(
            table_name, preferred_col.column if preferred_col else ""
        )
        if match is not None:
            return (
                ColumnRef(table=match.table, column=match.column),
                Literal(match.value),
            )
        if preferred_col is None:
            return None, fallback
        if self._strings:
            surface = self._strings.pop(0)
            repaired = self._repair_value_format(
                surface, table_name, preferred_col.column
            )
            return preferred_col, Literal(repaired)
        self.ungrounded += 1
        if self.ctx.representative is not None:
            values = self.ctx.representative(table_name, preferred_col.column)
            values = [v for v in values if isinstance(v, str)]
            if values:
                return preferred_col, Literal(values[0])
        return preferred_col, fallback

    def _repair_value_format(self, surface: str, table: str, column: str) -> str:
        """Align a question-surface value with the column's stored format.

        The prompt's representative values (§6.3) show the model how the
        column actually stores data; when a stored value *contains* the
        question's mention ("Graz" -> "City of Graz", "F" -> "Female"),
        the stored form is copied.  Semantic re-expressions with no
        surface overlap ("approved" -> "granted") cannot be repaired —
        the sparse-retrieval weakness the paper reports on Dr.Spider's
        DBcontent-equivalence split.
        """
        from repro.retrieval.lcs import longest_common_substring

        if self.ctx.representative is None or not surface:
            return surface
        stored_values = [
            value
            for value in self.ctx.representative(table, column)
            if isinstance(value, str)
        ]
        if surface in stored_values:
            return surface
        best = None
        best_containment = 0.0
        for value in stored_values:
            shared = longest_common_substring(surface, value)
            containment = len(shared) / len(surface)
            if containment > best_containment:
                best_containment = containment
                best = value
        if best is not None and best_containment >= 0.8:
            return best
        return surface

    # -- query construction ------------------------------------------------

    def fill(self, template: Query) -> Query | None:
        select_items = []
        for item in template.select_items:
            expr = self._fill_select_expr(item.expr)
            if expr is None:
                return None
            select_items.append(SelectItem(expr=expr))
        from_table = self._target_table(template.from_table) or self._target_table("")
        if from_table is None:
            return None

        joins: list[JoinEdge] = []
        joined_tables = [from_table]
        for edge in template.joins:
            right_table = self._target_table(edge.table)
            if right_table is None or right_table in joined_tables:
                return None
            join = self._build_join(joined_tables, right_table)
            if join is None:
                return None
            joins.append(join)
            joined_tables.append(right_table)

        where = None
        if template.where is not None:
            where = self._fill_condition(template.where)
            if where is None:
                return None
        group_by = []
        for col in template.group_by:
            mapped = self.map_column(col, kind="any", role="group")
            if mapped is None:
                return None
            group_by.append(mapped)
        having = None
        if template.having is not None:
            having = self._fill_condition(template.having)
            if having is None:
                return None
        order_by = []
        for item in template.order_by:
            expr = self._fill_order_expr(item.expr)
            if expr is None:
                return None
            descending = self.ctx.question_cue(
                question_order_direction, item.descending
            )
            order_by.append(OrderItem(expr=expr, descending=descending))

        limit = template.limit
        if limit is not None and self.ctx.question_top_k is not None:
            limit = self.ctx.question_top_k

        # GROUP BY must group by the non-aggregated projection when the
        # template does — keep them aligned.
        if group_by and select_items:
            plain = [
                item.expr for item in select_items
                if isinstance(item.expr, ColumnRef) and item.expr.column != "*"
            ]
            if plain and len(group_by) == 1:
                group_by = [plain[0]]

        return Query(
            select_items=tuple(select_items),
            from_table=from_table,
            joins=tuple(joins),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            distinct=template.distinct,
        )

    def _build_join(self, left_tables: list[str], right_table: str) -> JoinEdge | None:
        for left_table in left_tables:
            fkey = self.ctx.schema.join_edge(left_table, right_table)
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
        right = self.ctx.schema.table(right_table)
        for left_table in left_tables:
            left = self.ctx.schema.table(left_table)
            for column in left.columns:
                if right.has_column(column.name):
                    return JoinEdge(
                        table=right_table,
                        left=ColumnRef(left_table, column.name),
                        right=ColumnRef(right_table, column.name),
                    )
        return None

    def _fill_select_expr(self, expr: Expression) -> Expression | None:
        if isinstance(expr, ColumnRef):
            if expr.column == "*":
                return ColumnRef(table="", column="*")
            return self.map_column(expr, kind="any", role="select")
        if isinstance(expr, Aggregation):
            if expr.arg.column == "*":
                return Aggregation(expr.func, ColumnRef("", "*"), expr.distinct)
            func = expr.func
            if func in ("avg", "max", "min", "sum"):
                # Condition the aggregate on the question's wording.
                func = self.ctx.question_cue(question_aggregate, func)
            kind = "numeric" if func in ("sum", "avg", "max", "min") else "any"
            arg = self.map_column(expr.arg, kind=kind, role="agg")
            if arg is None and kind == "numeric":
                arg = self.map_column(expr.arg, kind="any", role="agg")
            if arg is None:
                return None
            return Aggregation(func, arg, expr.distinct)
        if isinstance(expr, Literal):
            return expr
        return None

    def _fill_order_expr(self, expr: Expression) -> Expression | None:
        if isinstance(expr, ColumnRef):
            return self.map_column(expr, kind="numeric", role="order") or self.map_column(
                expr, kind="any", role="order"
            )
        if isinstance(expr, Aggregation):
            return self._fill_select_expr(expr)
        return None

    def _fill_condition(self, cond: Condition) -> Condition | None:
        if isinstance(cond, CompoundCondition):
            filled = []
            for sub in cond.conditions:
                result = self._fill_condition(sub)
                if result is None:
                    return None
                filled.append(result)
            return CompoundCondition(op=cond.op, conditions=tuple(filled))
        if isinstance(cond, BinaryCondition):
            return self._fill_binary(cond)
        if isinstance(cond, InCondition):
            return self._fill_in(cond)
        if isinstance(cond, BetweenCondition):
            column = self.map_column(cond.expr, kind="numeric", role="filter")
            if column is None:
                return None
            low = self.next_number(cond.low)
            high = self.next_number(cond.high)
            if isinstance(low.value, (int, float)) and isinstance(
                high.value, (int, float)
            ) and low.value > high.value:
                low, high = high, low
            return BetweenCondition(expr=column, low=low, high=high)
        if isinstance(cond, LikeCondition):
            column = self.map_column(cond.expr, kind="text", role="filter")
            if column is None:
                return None
            pattern = cond.pattern
            letter = self.ctx.question_letter
            if letter is not None:
                pattern = Literal(f"{letter}%")
            else:
                self.ungrounded += 1
            return LikeCondition(expr=column, pattern=pattern, negated=cond.negated)
        if isinstance(cond, NullCondition):
            column = self.map_column(cond.expr, kind="any", role="filter")
            if column is None:
                return None
            return NullCondition(expr=column, negated=cond.negated)
        return None

    def _fill_binary(self, cond: BinaryCondition) -> Condition | None:
        if isinstance(cond.right, Query):
            # Scalar subquery: map the inner query with the same filler.
            if not isinstance(cond.left, ColumnRef):
                return None
            left = self.map_column(cond.left, kind="numeric", role="filter")
            inner = self.fill(cond.right)
            if left is None or inner is None:
                return None
            return BinaryCondition(left=left, op=cond.op, right=inner)
        if isinstance(cond.left, Aggregation):
            agg = self._fill_select_expr(cond.left)
            if agg is None:
                return None
            right = cond.right
            op = cond.op
            if isinstance(right, Literal) and isinstance(right.value, (int, float)):
                right = self.next_number(right)
                if op in (">", "<", ">=", "<="):
                    op = self.ctx.question_cue(question_comparison_op, op)
            return BinaryCondition(left=agg, op=op, right=right)
        if not isinstance(cond.left, ColumnRef):
            return None
        if isinstance(cond.right, Literal):
            if isinstance(cond.right.value, str):
                column, literal = self.bind_text_predicate(cond.left, cond.right)
                if column is None:
                    return None
                return BinaryCondition(left=column, op=cond.op, right=literal)
            column = self.map_column(cond.left, kind="numeric", role="filter")
            if column is None:
                return None
            op = cond.op
            if op in (">", "<", ">=", "<="):
                op = self.ctx.question_cue(question_comparison_op, op)
            return BinaryCondition(
                left=column, op=op, right=self.next_number(cond.right)
            )
        if isinstance(cond.right, ColumnRef):
            left = self.map_column(cond.left, kind="any", role="filter")
            right = self.map_column(cond.right, kind="any", role="filter")
            if left is None or right is None:
                return None
            return BinaryCondition(left=left, op=cond.op, right=right)
        return None

    def _fill_in(self, cond: InCondition) -> Condition | None:
        if cond.subquery is not None:
            column = self.map_column(cond.expr, kind="any", role="filter")
            inner = self.fill(cond.subquery)
            if column is None or inner is None:
                return None
            return InCondition(
                expr=column, subquery=inner, negated=cond.negated
            )
        values: list[Literal] = []
        column: ColumnRef | None = None
        for value in cond.values:
            if isinstance(value.value, str):
                bound_col, literal = self.bind_text_predicate(cond.expr, value)
                column = column or bound_col
                values.append(literal)
            else:
                values.append(self.next_number(value))
                column = column or self.map_column(
                    cond.expr, kind="numeric", role="filter"
                )
        if column is None:
            return None
        return InCondition(expr=column, values=tuple(values), negated=cond.negated)


def _template_tables(template: Query) -> list[str]:
    """Distinct template tables in appearance order."""
    tables = [template.from_table.lower()]
    for edge in template.joins:
        if edge.table.lower() not in tables:
            tables.append(edge.table.lower())
    return tables


def _table_assignments(
    ctx: InstantiationContext, template_tables: list[str]
) -> list[dict[str, str]]:
    ranked = ctx.ranked_tables
    if not ranked:
        return []
    depth = max(1, ctx.slot_depth)
    if len(template_tables) == 1:
        return [
            {template_tables[0]: table} for table in ranked[:depth]
        ]
    # Multi-table templates: prefer pairs connected by a join path.
    assignments: list[dict[str, str]] = []
    pool = ranked[: depth + 2]
    for first in pool:
        for second in pool:
            if first == second:
                continue
            has_fk = ctx.schema.join_edge(first, second) is not None
            if ctx.schema.foreign_keys and not has_fk:
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
    if not assignments and not ctx.schema.foreign_keys:
        # Without key metadata fall back to the naive top pairing.
        if len(pool) >= len(template_tables):
            assignments.append(dict(zip(template_tables, pool)))
    return assignments


@dataclass(frozen=True)
class FilledCandidate:
    """One instantiated candidate, its SQL, and its grounding diagnostics."""

    query: Query
    sql: str
    ungrounded_literals: int


def iter_fills(
    template: Query,
    ctx: InstantiationContext,
    serialize: Callable[[Query], str] = SQLITE_EMITTER.serialize,
) -> Iterator[FilledCandidate]:
    """The candidate instantiations of ``template``, one fill at a time.

    Yields up to ``slot_depth * assignments`` candidates, deduplicated
    case-insensitively on their SQL, best-ranked table assignments
    first, each assignment's fills as :func:`assignment_fills` makes
    them.  Each fill happens only when the next candidate is asked for,
    so a caller that stops early skips the rest of the work.
    ``serialize`` renders each fill exactly once (pass the backend
    emitter's ``serialize`` to get SQL in its dialect).
    """
    seen: set[str] = set()
    for table_map in _table_assignments(ctx, _template_tables(template)):
        for candidate in assignment_fills(template, table_map, ctx, serialize):
            key = candidate.sql.lower()
            if key not in seen:
                seen.add(key)
                yield candidate


def assignment_fills(
    template: Query,
    table_map: dict[str, str],
    ctx: InstantiationContext,
    serialize: Callable[[Query], str],
) -> Iterator[FilledCandidate]:
    """``template``'s fills under one table assignment: ``variant`` 0,
    1, ... in turn, not deduplicated.

    Every fill uses exactly the tables ``table_map`` assigns: FROM and
    each join map through it (a join may not repeat a table), subqueries
    map through the same filler, and compound arms are dropped.

    Variant early exit: ``variant`` only picks a select slot's column,
    so once a fill (finished or abandoned) read no select pool with a
    column left past its pick, every later variant would make the same
    choices in the same order and give the same query or the same
    ``None``.  Those variants are skipped; the yielded sequence is the
    one filling every variant would give, less repeats.
    """
    for variant in range(max(1, ctx.slot_depth)):
        filler = _Filler(ctx, table_map, variant)
        filled = filler.fill(template)
        if filled is not None:
            yield FilledCandidate(
                query=filled,
                sql=serialize(filled),
                ungrounded_literals=filler.ungrounded,
            )
        if not filler.variant_matters:
            break


def instantiate_template(
    template: Query,
    ctx: InstantiationContext,
    serialize: Callable[[Query], str] = SQLITE_EMITTER.serialize,
) -> list[FilledCandidate]:
    """All candidate instantiations of ``template``: ``list(iter_fills(...))``."""
    return list(iter_fills(template, ctx, serialize))
