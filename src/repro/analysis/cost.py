"""Static cost estimation for SQL candidates.

Ranks queries by estimated execution cost *without executing them*,
using the cardinality evidence a :class:`~repro.analysis.catalog.SchemaCatalog`
collects when built from a live database: per-table row counts and
per-column distinct-value estimates from the same representative-value
probe the prompt builder uses (§6.3).  The model is a textbook
System-R-style estimate — scan cost plus join fan-out discounted by
join-key cardinality, predicate selectivities, and an ``n·log n`` term
for sorts and grouping — deliberately simple: its only job is to order
*equivalent* candidates so the beam executes the cheapest spelling
first, so relative order matters and absolute numbers do not.
"""

from __future__ import annotations

import math
from typing import Callable, Union

from repro.analysis.catalog import CatalogColumn, SchemaCatalog
from repro.errors import SQLSyntaxError
from repro.sqlgen.ast import (
    Aggregation,
    BetweenCondition,
    BinaryCondition,
    ColumnRef,
    CompoundCondition,
    Condition,
    InCondition,
    LikeCondition,
    Literal,
    NullCondition,
    Query,
)
from repro.sqlgen.dialects import parse_dialect_sql

#: Returned for SQL the estimator cannot parse — worse than any real
#: estimate so unparseable candidates sort last within their tier.
UNPARSEABLE_COST = 1e12

#: Fallbacks when the catalog has no evidence for a table/column.
_DEFAULT_ROWS = 1000.0
_DEFAULT_DISTINCT = 20.0

#: Classic selectivity guesses for predicates without value statistics.
_RANGE_SELECTIVITY = 1 / 3
_LIKE_SELECTIVITY = 1 / 4
_NULL_SELECTIVITY = 1 / 10


class CostEstimator:
    """Estimate relative execution cost from catalog statistics."""

    def __init__(self, catalog: SchemaCatalog, dialect: str = "sqlite"):
        self.catalog = catalog
        self.dialect = dialect

    # -- statistics ----------------------------------------------------------

    def _rows(self, table: str) -> float:
        count = self.catalog.table_rows.get(table.lower())
        if count is None:
            return _DEFAULT_ROWS
        return float(max(count, 1))

    def _distinct(self, column: CatalogColumn | None, rows: float) -> float:
        if column is None:
            return min(_DEFAULT_DISTINCT, rows)
        estimate = self.catalog.distinct_estimate(column)
        if estimate is None:
            return min(_DEFAULT_DISTINCT, rows)
        return float(max(min(estimate, rows), 1))

    def _column_of(self, ref: ColumnRef, scope: tuple[str, ...]) -> CatalogColumn | None:
        if ref.column == "*":
            return None
        if ref.table:
            return self.catalog.column(ref.table, ref.column)
        for table in scope:
            found = self.catalog.column(table, ref.column)
            if found is not None:
                return found
        return None

    # -- selectivity ---------------------------------------------------------

    def _selectivity(self, cond: Condition, scope: tuple[str, ...]) -> float:
        if isinstance(cond, BinaryCondition):
            if isinstance(cond.right, Query):
                return _RANGE_SELECTIVITY
            if isinstance(cond.left, (ColumnRef, Aggregation)):
                ref = cond.left.arg if isinstance(cond.left, Aggregation) else cond.left
                column = self._column_of(ref, scope)
                rows = self._rows(column.table) if column is not None else _DEFAULT_ROWS
                if cond.op == "=":
                    return 1.0 / self._distinct(column, rows)
                if cond.op == "!=":
                    return 1.0 - 1.0 / self._distinct(column, rows)
            return _RANGE_SELECTIVITY
        if isinstance(cond, InCondition):
            if cond.subquery is not None:
                selectivity = _RANGE_SELECTIVITY
            else:
                ref = cond.expr if isinstance(cond.expr, ColumnRef) else None
                column = self._column_of(ref, scope) if ref is not None else None
                rows = self._rows(column.table) if column is not None else _DEFAULT_ROWS
                selectivity = min(len(cond.values) / self._distinct(column, rows), 1.0)
            return 1.0 - selectivity if cond.negated else selectivity
        if isinstance(cond, BetweenCondition):
            return _RANGE_SELECTIVITY
        if isinstance(cond, LikeCondition):
            return 1.0 - _LIKE_SELECTIVITY if cond.negated else _LIKE_SELECTIVITY
        if isinstance(cond, NullCondition):
            return 1.0 - _NULL_SELECTIVITY if cond.negated else _NULL_SELECTIVITY
        if isinstance(cond, CompoundCondition):
            parts = [self._selectivity(sub, scope) for sub in cond.conditions]
            if cond.op.upper() == "AND":
                product = 1.0
                for part in parts:
                    product *= part
                return product
            return min(sum(parts), 1.0)
        return 1.0

    def _subquery_cost(self, cond: Condition) -> float:
        cost = 0.0
        if isinstance(cond, BinaryCondition) and isinstance(cond.right, Query):
            cost += self._estimate_simple_chain(cond.right)
        elif isinstance(cond, InCondition) and cond.subquery is not None:
            cost += self._estimate_simple_chain(cond.subquery)
        elif isinstance(cond, CompoundCondition):
            for sub in cond.conditions:
                cost += self._subquery_cost(sub)
        return cost

    # -- estimation ----------------------------------------------------------

    def _estimate_simple(self, query: Query) -> float:
        scope = query.local_tables()
        rows = self._rows(query.from_table)
        cost = rows  # base scan
        for edge in query.joins:
            right_rows = self._rows(edge.table)
            cost += right_rows  # scan/probe of the joined table
            key_column = self._column_of(edge.right, scope) or self._column_of(
                edge.left, scope
            )
            fanout = self._distinct(key_column, right_rows)
            rows = rows * right_rows / fanout
            cost += rows  # intermediate result materialization
        selectivity = 1.0
        if query.where is not None:
            selectivity = self._selectivity(query.where, scope)
            cost += self._subquery_cost(query.where)
        out_rows = max(rows * selectivity, 1.0)
        if query.group_by or query.order_by or query.distinct:
            cost += out_rows * math.log2(out_rows + 1)
        if query.having is not None:
            cost += self._subquery_cost(query.having)
        return cost

    def _estimate_simple_chain(self, query: Query) -> float:
        return sum(self._estimate_simple(arm) for arm in query.compound_chain())

    def estimate(self, query: Query) -> float:
        """Estimated cost of executing ``query`` (relative units)."""
        return self._estimate_simple_chain(query)

    def estimate_sql(
        self,
        sql: Union[str, Query],
        parse: Callable[[str, str], Query] = parse_dialect_sql,
    ) -> float:
        """Estimated cost of raw SQL (in this estimator's dialect);
        unparseable text sorts last.  ``parse`` stands in for
        :func:`parse_dialect_sql` as in
        :meth:`~repro.analysis.analyzer.SemanticAnalyzer.analyze_sql`."""
        if isinstance(sql, Query):
            return self.estimate(sql)
        try:
            return self.estimate(parse(sql, self.dialect))
        except SQLSyntaxError:
            return UNPARSEABLE_COST
