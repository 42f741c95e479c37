"""Schema-aware semantic analysis of SQL ASTs.

:class:`SemanticAnalyzer` walks a :class:`repro.sqlgen.ast.Query`
against a :class:`~repro.analysis.catalog.SchemaCatalog` and emits
structured :class:`~repro.analysis.diagnostics.Diagnostic` findings —
the static pre-execution gate that catches hallucinated schema
references, aggregate misuse, and type-incompatible comparisons before
any execution round-trip is spent (the error classes Rajkumar et al.
show dominate LLM text-to-SQL failures).

Scope model: each query level resolves column references against its
own FROM/JOIN tables (:meth:`Query.local_tables`); subqueries
additionally see their enclosing scopes (correlated references), and
compound arms each resolve independently.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.analysis.catalog import CatalogColumn, SchemaCatalog
from repro.analysis.diagnostics import (
    AGGREGATE_IN_WHERE,
    AMBIGUOUS_COLUMN,
    DIALECT_CASE_FOLD,
    HAVING_SCOPE,
    JOIN_NO_FK,
    ORDER_BY_SCOPE,
    PARSE_ERROR,
    RULE_SEVERITIES,
    SET_OP_ARITY,
    TABLE_NOT_IN_SCOPE,
    TYPE_MISMATCH,
    UNGROUPED_COLUMN,
    UNKNOWN_COLUMN,
    UNKNOWN_TABLE,
    Diagnostic,
)
from repro.errors import SQLSyntaxError
from repro.sqlgen.ast import (
    Aggregation,
    BetweenCondition,
    BinaryCondition,
    ColumnRef,
    CompoundCondition,
    Condition,
    Expression,
    InCondition,
    LikeCondition,
    Literal,
    NullCondition,
    Query,
)
from repro.sqlgen.dialects import parse_dialect_sql
from repro.sqlgen.parser import parse_sql
from repro.sqlgen.spans import identifier_span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (db -> analysis)
    from repro.db.backends.base import BackendCapabilities

#: Aggregate functions that require a numeric argument.
_NUMERIC_AGGREGATES = frozenset({"sum", "avg"})


class SemanticAnalyzer:
    """Lints SQL queries against one database's schema catalog.

    ``capabilities`` (any object shaped like
    :class:`repro.db.backends.base.BackendCapabilities`) makes the
    analyzer dialect-aware: ``analyze_sql`` parses in the backend's
    dialect, and capability-gated rules fire — e.g. a warning for
    letter-bearing LIKE patterns on backends whose LIKE is
    case-sensitive, where SQLite's case-folded match set silently
    diverges.  Without it the analyzer behaves exactly as before
    (SQLite dialect, no capability rules).
    """

    def __init__(
        self,
        catalog: SchemaCatalog,
        capabilities: "BackendCapabilities | None" = None,
    ):
        self.catalog = catalog
        self.capabilities = capabilities

    @property
    def dialect(self) -> str:
        return getattr(self.capabilities, "dialect", "sqlite")

    # -- public API ----------------------------------------------------------

    def analyze_sql(
        self, sql: str, parse: Callable[[str, str], Query] = parse_dialect_sql
    ) -> list[Diagnostic]:
        """Parse and analyze ``sql``; spans point into the given text.

        SQL outside the parseable subset yields a single warning-tier
        ``parse-error`` diagnostic: it may be perfectly valid SQLite,
        the analyzer just cannot vouch for it.  ``parse`` stands in for
        :func:`parse_dialect_sql` (a caller sharing one parse per SQL);
        it must return the same tree or raise the same error.
        """
        try:
            query = parse(sql, self.dialect)
        except SQLSyntaxError as exc:
            return [
                Diagnostic(
                    code=PARSE_ERROR,
                    severity=RULE_SEVERITIES[PARSE_ERROR],
                    message=f"SQL outside the analyzable subset: {exc}",
                )
            ]
        return self.analyze(query, sql)

    def analyze(self, query: Query, sql: str = "") -> list[Diagnostic]:
        """All diagnostics for ``query`` (deduplicated, document order)."""
        diags: list[Diagnostic] = []
        self._check_tree(query, sql, diags, outer=())
        return list(dict.fromkeys(diags))

    # -- tree / compound handling --------------------------------------------

    def _check_tree(
        self, query: Query, sql: str, diags: list[Diagnostic], outer: tuple[str, ...]
    ) -> int | None:
        arities = [
            self._check_arm(arm, sql, diags, outer)
            for arm in query.compound_chain()
        ]
        known = {arity for arity in arities if arity is not None}
        if len(known) > 1:
            op = query.compound_op or "set operation"
            self._emit(
                diags, SET_OP_ARITY, sql, query.from_table,
                f"{op} arms project different column counts: "
                f"{sorted(known)}",
            )
        return arities[0]

    # -- one simple SELECT ----------------------------------------------------

    def _check_arm(
        self, query: Query, sql: str, diags: list[Diagnostic], outer: tuple[str, ...]
    ) -> int | None:
        local = query.local_tables()
        for table in local:
            if not self.catalog.has_table(table):
                self._emit(
                    diags, UNKNOWN_TABLE, sql, table,
                    f"unknown table {table!r}",
                )
        scope = tuple(t for t in local if self.catalog.has_table(t))
        scope_known = len(scope) == len(local)
        aliases = {
            item.alias.lower() for item in query.select_items if item.alias
        }

        # SELECT list ---------------------------------------------------------
        arity: int | None = 0
        projected_keys: set[str] = set()
        select_has_aggregate = False
        for item in query.select_items:
            expr = item.expr
            if isinstance(expr, Aggregation):
                select_has_aggregate = True
                self._check_aggregation(expr, scope, outer, sql, diags)
                if arity is not None:
                    arity += 1
            elif isinstance(expr, ColumnRef):
                if expr.column == "*":
                    star_width = self._star_arity(expr, scope, scope_known)
                    arity = (
                        None
                        if arity is None or star_width is None
                        else arity + star_width
                    )
                    if expr.table:
                        self._resolve(expr, scope, outer, sql, diags)
                else:
                    resolved = self._resolve(expr, scope, outer, sql, diags)
                    if resolved is not None:
                        projected_keys.add(resolved.key())
                    if arity is not None:
                        arity += 1
            else:
                if arity is not None:
                    arity += 1

        # GROUP BY / aggregate misuse ------------------------------------------
        group_keys: set[str] = set()
        for col in query.group_by:
            resolved = self._resolve(col, scope, outer, sql, diags)
            group_keys.add(resolved.key() if resolved else col.column.lower())
        if query.group_by:
            for item in query.select_items:
                expr = item.expr
                if not isinstance(expr, ColumnRef):
                    continue
                if expr.column == "*":
                    self._emit(
                        diags, UNGROUPED_COLUMN, sql, str(expr) or "*",
                        "SELECT * under GROUP BY projects non-grouped columns",
                    )
                    continue
                if not self._in_group(expr, group_keys, scope, outer):
                    self._emit(
                        diags, UNGROUPED_COLUMN, sql, str(expr),
                        f"column {expr} is projected but neither grouped "
                        f"nor aggregated",
                    )

        # WHERE ----------------------------------------------------------------
        if query.where is not None:
            self._check_condition(
                query.where, "where", scope, outer, group_keys, sql, diags
            )

        # HAVING ---------------------------------------------------------------
        if query.having is not None:
            if not query.group_by:
                self._emit(
                    diags, HAVING_SCOPE, sql, query.from_table,
                    "HAVING without GROUP BY",
                )
            self._check_condition(
                query.having, "having", scope, outer, group_keys, sql, diags
            )

        # ORDER BY -------------------------------------------------------------
        for item in query.order_by:
            expr = item.expr
            if isinstance(expr, Aggregation):
                self._check_aggregation(expr, scope, outer, sql, diags)
                continue
            if not isinstance(expr, ColumnRef) or expr.column == "*":
                continue
            if not expr.table and expr.column.lower() in aliases:
                continue  # references a SELECT alias
            resolved = self._resolve(expr, scope, outer, sql, diags)
            if (
                query.group_by
                and resolved is not None
                and resolved.key() not in group_keys
                and resolved.key() not in projected_keys
                and not select_has_aggregate
            ):
                self._emit(
                    diags, ORDER_BY_SCOPE, sql, str(expr),
                    f"ORDER BY {expr} is neither grouped nor projected "
                    f"in this grouped query",
                )

        # JOIN edges -----------------------------------------------------------
        for edge in query.joins:
            left = self._resolve(edge.left, scope, outer, sql, diags)
            right = self._resolve(edge.right, scope, outer, sql, diags)
            if left is None or right is None:
                continue
            if left.is_numeric != right.is_numeric:
                self._emit(
                    diags, TYPE_MISMATCH, sql, str(edge.left),
                    f"join compares {_describe(left)} with {_describe(right)}",
                )
            if self.catalog.fk_pairs and not self.catalog.has_fk_edge(
                left.key(), right.key()
            ):
                self._emit(
                    diags, JOIN_NO_FK, sql, str(edge.left),
                    f"join {edge.left} = {edge.right} follows no declared "
                    f"PK/FK edge",
                )
        return arity

    # -- conditions -----------------------------------------------------------

    def _check_condition(
        self,
        cond: Condition,
        clause: str,
        scope: tuple[str, ...],
        outer: tuple[str, ...],
        group_keys: set[str],
        sql: str,
        diags: list[Diagnostic],
    ) -> None:
        if isinstance(cond, CompoundCondition):
            for sub in cond.conditions:
                self._check_condition(
                    sub, clause, scope, outer, group_keys, sql, diags
                )
            return

        exprs: list[Expression] = []
        if isinstance(cond, BinaryCondition):
            exprs.append(cond.left)
            if isinstance(cond.right, (ColumnRef, Literal, Aggregation)):
                exprs.append(cond.right)
        elif isinstance(
            cond, (InCondition, BetweenCondition, LikeCondition, NullCondition)
        ):
            exprs.append(cond.expr)

        for expr in exprs:
            if isinstance(expr, Aggregation):
                if clause == "where":
                    self._emit(
                        diags, AGGREGATE_IN_WHERE, sql, expr.func,
                        f"aggregate {expr.render()} is not allowed in WHERE; "
                        f"use HAVING",
                    )
                self._check_aggregation(expr, scope, outer, sql, diags)

        resolved = self._resolve_predicate_column(cond, scope, outer, sql, diags)

        if clause == "having" and resolved is not None:
            if resolved.key() not in group_keys:
                self._emit(
                    diags, HAVING_SCOPE, sql, resolved.key(),
                    f"HAVING references {resolved.table}.{resolved.name}, "
                    f"which is neither grouped nor aggregated",
                )

        # type compatibility ---------------------------------------------------
        if isinstance(cond, BinaryCondition):
            right = cond.right
            if resolved is not None and isinstance(right, Literal):
                self._check_literal(resolved, right.value, sql, diags)
            elif resolved is not None and isinstance(right, ColumnRef):
                other = self._resolve(right, scope, outer, sql, diags)
                if other is not None and resolved.is_numeric != other.is_numeric:
                    self._emit(
                        diags, TYPE_MISMATCH, sql, str(cond.left),
                        f"comparison mixes {_describe(resolved)} with "
                        f"{_describe(other)}",
                    )
            elif isinstance(right, ColumnRef):
                self._resolve(right, scope, outer, sql, diags)
            elif isinstance(right, Query):
                self._check_tree(right, sql, diags, outer=scope + outer)
        elif isinstance(cond, InCondition):
            if resolved is not None:
                for value in cond.values:
                    self._check_literal(resolved, value.value, sql, diags)
            if cond.subquery is not None:
                self._check_tree(cond.subquery, sql, diags, outer=scope + outer)
        elif isinstance(cond, BetweenCondition) and resolved is not None:
            self._check_literal(resolved, cond.low.value, sql, diags)
            self._check_literal(resolved, cond.high.value, sql, diags)
        elif isinstance(cond, LikeCondition):
            self._check_like_case(cond, sql, diags)

    def _check_like_case(
        self, cond: LikeCondition, sql: str, diags: list[Diagnostic]
    ) -> None:
        """Capability-gated: LIKE on a case-sensitive backend.

        Gold queries are written against SQLite, whose LIKE folds ASCII
        case; a backend that matches case-sensitively will silently
        drop rows for any pattern containing letters.
        """
        if self.capabilities is None:
            return
        if not getattr(self.capabilities, "like_case_sensitive", False):
            return
        pattern = cond.pattern.value
        if isinstance(pattern, str) and any(ch.isalpha() for ch in pattern):
            self._emit(
                diags, DIALECT_CASE_FOLD, sql, pattern,
                f"LIKE pattern {pattern!r} contains letters but the "
                f"{self.dialect!r} backend matches case-sensitively "
                f"(SQLite folds ASCII case)",
            )

    def _resolve_predicate_column(
        self,
        cond: Condition,
        scope: tuple[str, ...],
        outer: tuple[str, ...],
        sql: str,
        diags: list[Diagnostic],
    ) -> CatalogColumn | None:
        """Resolve the column a predicate constrains, if it is one."""
        expr: Expression | None = None
        if isinstance(cond, BinaryCondition):
            expr = cond.left
        elif isinstance(
            cond, (InCondition, BetweenCondition, LikeCondition, NullCondition)
        ):
            expr = cond.expr
        if isinstance(expr, ColumnRef):
            return self._resolve(expr, scope, outer, sql, diags)
        return None

    # -- expression-level checks ----------------------------------------------

    def _check_aggregation(
        self,
        agg: Aggregation,
        scope: tuple[str, ...],
        outer: tuple[str, ...],
        sql: str,
        diags: list[Diagnostic],
    ) -> None:
        if agg.arg.column == "*":
            if agg.func.lower() not in ("count",):
                self._emit(
                    diags, TYPE_MISMATCH, sql, agg.func,
                    f"{agg.func.upper()}(*) is only meaningful for COUNT",
                )
            return
        resolved = self._resolve(agg.arg, scope, outer, sql, diags)
        if (
            resolved is not None
            and agg.func.lower() in _NUMERIC_AGGREGATES
            and not resolved.is_numeric
        ):
            self._emit(
                diags, TYPE_MISMATCH, sql, str(agg.arg),
                f"{agg.func.upper()} over {_describe(resolved)}",
            )

    def _check_literal(
        self,
        column: CatalogColumn,
        value: object,
        sql: str,
        diags: list[Diagnostic],
    ) -> None:
        if value is None:
            return
        if isinstance(value, bool):
            return
        if isinstance(value, (int, float)):
            if not column.is_numeric:
                self._emit(
                    diags, TYPE_MISMATCH, sql, str(value),
                    f"numeric literal {value!r} compared against "
                    f"{_describe(column)}",
                )
            return
        if isinstance(value, str) and column.is_numeric:
            if not _numeric_string(value):
                self._emit(
                    diags, TYPE_MISMATCH, sql, column.name,
                    f"text literal {value!r} compared against "
                    f"{_describe(column)}",
                )

    # -- name resolution -------------------------------------------------------

    def _resolve(
        self,
        col: ColumnRef,
        scope: tuple[str, ...],
        outer: tuple[str, ...],
        sql: str,
        diags: list[Diagnostic],
    ) -> CatalogColumn | None:
        if col.column == "*" and not col.table:
            return None
        if col.table:
            if not self.catalog.has_table(col.table):
                self._emit(
                    diags, UNKNOWN_TABLE, sql, col.table,
                    f"unknown table {col.table!r}",
                )
                return None
            scope_names = {t.lower() for t in scope}
            outer_names = {t.lower() for t in outer}
            if col.table.lower() not in scope_names | outer_names:
                self._emit(
                    diags, TABLE_NOT_IN_SCOPE, sql, str(col),
                    f"{col} references table {col.table!r}, which is not in "
                    f"the FROM clause",
                )
            if col.column == "*":
                return None
            resolved = self.catalog.column(col.table, col.column)
            if resolved is None:
                self._emit(
                    diags, UNKNOWN_COLUMN, sql, str(col),
                    f"table {col.table!r} has no column {col.column!r}",
                )
            return resolved
        matches = self.catalog.tables_with_column(col.column, scope)
        searched: tuple[str, ...] = scope
        if not matches and outer:
            matches = self.catalog.tables_with_column(col.column, outer)
            searched = scope + outer
        if not matches:
            where = ", ".join(searched) if searched else "(empty scope)"
            self._emit(
                diags, UNKNOWN_COLUMN, sql, col.column,
                f"no table in scope ({where}) has a column {col.column!r}",
            )
            return None
        if len(matches) > 1:
            self._emit(
                diags, AMBIGUOUS_COLUMN, sql, col.column,
                f"unqualified column {col.column!r} exists in "
                f"{', '.join(sorted(matches))}; qualify it",
            )
            return None
        return self.catalog.column(matches[0], col.column)

    def _in_group(
        self,
        col: ColumnRef,
        group_keys: set[str],
        scope: tuple[str, ...],
        outer: tuple[str, ...],
    ) -> bool:
        resolved = self._resolve(col, scope, outer, sql="", diags=[])
        if resolved is not None:
            return resolved.key() in group_keys
        return col.column.lower() in group_keys

    def _star_arity(
        self, expr: ColumnRef, scope: tuple[str, ...], scope_known: bool
    ) -> int | None:
        if expr.table:
            if not self.catalog.has_table(expr.table):
                return None
            return len(self.catalog.columns_of(expr.table))
        if not scope_known:
            return None
        return sum(len(self.catalog.columns_of(table)) for table in scope)

    # -- emission --------------------------------------------------------------

    def _emit(
        self,
        diags: list[Diagnostic],
        code: str,
        sql: str,
        identifier: str,
        message: str,
    ) -> None:
        span = identifier_span(sql, identifier) if sql and identifier else None
        diags.append(
            Diagnostic(
                code=code,
                severity=RULE_SEVERITIES[code],
                message=message,
                span=span,
            )
        )


def _describe(column: CatalogColumn) -> str:
    kind = "numeric" if column.is_numeric else f"non-numeric {column.type}"
    return f"{kind} column {column.table}.{column.name}"


def _numeric_string(value: str) -> bool:
    try:
        float(value)
    except ValueError:
        return False
    return True
