"""Typed AST for the SQL subset used throughout the project.

The subset mirrors what Spider/BIRD-style benchmarks exercise:
single-table and multi-join SELECT queries with aggregation, filtering,
grouping, ordering, limits, IN/NOT IN (lists and subqueries), BETWEEN,
LIKE, NULL tests and UNION/INTERSECT/EXCEPT compounds.
"""

from __future__ import annotations

from decimal import Decimal
from dataclasses import dataclass
from typing import Iterator, Optional, Union


def identifier_key(name: str) -> str:
    """Case-insensitive identity of a single SQL identifier.

    The one sanctioned spelling of identifier comparison: everything
    outside :mod:`repro.sqlgen` / :mod:`repro.analysis` must route
    identifier equality through this helper or :meth:`ColumnRef.key`
    (enforced by staticcheck rule ARCH003, run by ``repro check``).
    """
    return name.lower()


def normalize_number(value: Union[int, float]) -> str:
    """Render a number the way SQLite's text affinity would.

    Integral floats collapse to their integer spelling (``3.0`` → ``3``,
    ``-0.0`` → ``0``) and non-integral floats expand to plain decimal
    notation (``1e-05`` → ``0.00001``) because the sqlgen lexer — like
    the literal grammar this project emits — has no exponent form.
    """
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        return str(int(value))
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError(f"non-finite literal cannot be rendered: {value!r}")
        if value.is_integer():
            return str(int(value))
        return format(Decimal(repr(value)), "f")
    return str(value)


@dataclass(frozen=True)
class ColumnRef:
    """A reference to ``table.column``; ``table`` may be empty."""

    table: str
    column: str

    def key(self) -> str:
        """Lower-cased ``table.column`` identity."""
        return f"{identifier_key(self.table)}.{identifier_key(self.column)}"

    def __str__(self) -> str:
        if self.column == "*":
            return "*" if not self.table else f"{self.table}.*"
        if not self.table:
            return self.column
        return f"{self.table}.{self.column}"


@dataclass(frozen=True)
class Literal:
    """A string / numeric / NULL literal."""

    value: Union[str, int, float, None]

    def render(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return normalize_number(self.value)


@dataclass(frozen=True)
class Aggregation:
    """``FUNC([DISTINCT] arg)`` — arg is a column ref or ``*``."""

    func: str
    arg: ColumnRef
    distinct: bool = False

    def render(self) -> str:
        inner = str(self.arg)
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.func.upper()}({inner})"


Expression = Union[ColumnRef, Literal, Aggregation]


def render_expression(expr: Expression) -> str:
    """Render any expression node to SQL text."""
    if isinstance(expr, ColumnRef):
        return str(expr)
    if isinstance(expr, (Literal, Aggregation)):
        return expr.render()
    raise TypeError(f"not an expression node: {expr!r}")


@dataclass(frozen=True)
class SelectItem:
    """One projection in the SELECT list."""

    expr: Expression
    alias: str = ""


@dataclass(frozen=True)
class JoinEdge:
    """``JOIN <right table> ON left = right`` equality edge."""

    table: str
    left: ColumnRef
    right: ColumnRef


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key with direction."""

    expr: Expression
    descending: bool = False


# ---------------------------------------------------------------------------
# Conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinaryCondition:
    """``expr OP value`` where OP is a comparison operator.

    ``right`` may also be a :class:`Query` (scalar subquery comparison).
    """

    left: Expression
    op: str
    right: Union[Expression, "Query"]


@dataclass(frozen=True)
class InCondition:
    """``expr [NOT] IN (values | subquery)``."""

    expr: Expression
    values: tuple[Literal, ...] = ()
    subquery: Optional["Query"] = None
    negated: bool = False


@dataclass(frozen=True)
class BetweenCondition:
    """``expr BETWEEN low AND high``."""

    expr: Expression
    low: Literal
    high: Literal


@dataclass(frozen=True)
class LikeCondition:
    """``expr [NOT] LIKE pattern``."""

    expr: Expression
    pattern: Literal
    negated: bool = False


@dataclass(frozen=True)
class NullCondition:
    """``expr IS [NOT] NULL``."""

    expr: Expression
    negated: bool = False


@dataclass(frozen=True)
class CompoundCondition:
    """AND / OR over two or more sub-conditions."""

    op: str  # "AND" | "OR"
    conditions: tuple["Condition", ...]


Condition = Union[
    BinaryCondition,
    InCondition,
    BetweenCondition,
    LikeCondition,
    NullCondition,
    CompoundCondition,
]


# ---------------------------------------------------------------------------
# Query
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    """A SELECT query, possibly compounded with a set operation."""

    select_items: tuple[SelectItem, ...]
    from_table: str
    joins: tuple[JoinEdge, ...] = ()
    where: Optional[Condition] = None
    group_by: tuple[ColumnRef, ...] = ()
    having: Optional[Condition] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    distinct: bool = False
    compound_op: str = ""  # "", "UNION", "INTERSECT", "EXCEPT"
    compound_query: Optional["Query"] = None

    # -- structural helpers -------------------------------------------------

    def tables_used(self) -> set[str]:
        """All table names referenced by this query tree (lower-cased)."""
        tables = {self.from_table.lower()}
        tables.update(edge.table.lower() for edge in self.joins)
        for sub in self._subqueries():
            tables.update(sub.tables_used())
        if self.compound_query is not None:
            tables.update(self.compound_query.tables_used())
        return tables

    def columns_used(self) -> set[str]:
        """All ``table.column`` keys referenced anywhere in the tree."""
        columns: set[str] = set()

        def visit_expr(expr: Expression) -> None:
            if isinstance(expr, ColumnRef) and expr.column != "*":
                columns.add(expr.key())
            elif isinstance(expr, Aggregation) and expr.arg.column != "*":
                columns.add(expr.arg.key())

        for item in self.select_items:
            visit_expr(item.expr)
        for edge in self.joins:
            columns.add(edge.left.key())
            columns.add(edge.right.key())
        for cond in self._conditions():
            columns.update(_condition_columns(cond))
        for col in self.group_by:
            columns.add(col.key())
        for item in self.order_by:
            visit_expr(item.expr)
        for sub in self._subqueries():
            columns.update(sub.columns_used())
        if self.compound_query is not None:
            columns.update(self.compound_query.columns_used())
        return columns

    def literals_used(self) -> list[Literal]:
        """All literals in WHERE/HAVING predicates, in document order."""
        literals: list[Literal] = []
        for cond in self._conditions():
            literals.extend(_condition_literals(cond))
        for sub in self._subqueries():
            literals.extend(sub.literals_used())
        if self.compound_query is not None:
            literals.extend(self.compound_query.literals_used())
        return literals

    def local_tables(self) -> tuple[str, ...]:
        """Tables visible in this query level's own FROM/JOIN scope.

        Document order, original casing, no recursion into subqueries or
        compound arms — this is the name-resolution scope a semantic
        analyzer uses for the query's own column references.
        """
        return (self.from_table, *(edge.table for edge in self.joins))

    def subqueries(self) -> Iterator["Query"]:
        """Immediate subqueries of this level (IN / comparison RHS)."""
        yield from self._subqueries()

    def compound_chain(self) -> Iterator["Query"]:
        """This query followed by each compound arm, left to right."""
        current: Query | None = self
        while current is not None:
            yield current
            current = current.compound_query

    def _conditions(self) -> Iterator[Condition]:
        if self.where is not None:
            yield self.where
        if self.having is not None:
            yield self.having

    def _subqueries(self) -> Iterator["Query"]:
        for cond in self._conditions():
            yield from _condition_subqueries(cond)


def _condition_columns(cond: Condition) -> set[str]:
    columns: set[str] = set()

    def add_expr(expr: Expression) -> None:
        if isinstance(expr, ColumnRef) and expr.column != "*":
            columns.add(expr.key())
        elif isinstance(expr, Aggregation) and expr.arg.column != "*":
            columns.add(expr.arg.key())

    if isinstance(cond, BinaryCondition):
        add_expr(cond.left)
        if isinstance(cond.right, (ColumnRef, Literal, Aggregation)):
            add_expr(cond.right)
    elif isinstance(cond, (InCondition, LikeCondition, NullCondition, BetweenCondition)):
        add_expr(cond.expr)
    elif isinstance(cond, CompoundCondition):
        for sub in cond.conditions:
            columns.update(_condition_columns(sub))
    return columns


def _condition_literals(cond: Condition) -> list[Literal]:
    if isinstance(cond, BinaryCondition):
        return [cond.right] if isinstance(cond.right, Literal) else []
    if isinstance(cond, InCondition):
        return list(cond.values)
    if isinstance(cond, BetweenCondition):
        return [cond.low, cond.high]
    if isinstance(cond, LikeCondition):
        return [cond.pattern]
    if isinstance(cond, NullCondition):
        return []
    if isinstance(cond, CompoundCondition):
        out: list[Literal] = []
        for sub in cond.conditions:
            out.extend(_condition_literals(sub))
        return out
    raise TypeError(f"not a condition node: {cond!r}")


def _condition_subqueries(cond: Condition) -> Iterator[Query]:
    if isinstance(cond, BinaryCondition) and isinstance(cond.right, Query):
        yield cond.right
    elif isinstance(cond, InCondition) and cond.subquery is not None:
        yield cond.subquery
    elif isinstance(cond, CompoundCondition):
        for sub in cond.conditions:
            yield from _condition_subqueries(sub)
