"""In-memory columnar execution backend speaking the ANSI dialect.

A second, fully offline :class:`~repro.db.backends.base.ExecutionBackend`
with deliberately different surface syntax from SQLite: double-quoted
identifiers, ``FETCH FIRST n ROWS ONLY`` row limits and ``<>``
inequality (see :class:`repro.sqlgen.dialects.ansi.ANSIEmitter`).  It
stores table content column-major and interprets the sqlgen AST
directly, matching SQLite's *observable* semantics — three-valued
logic, NULL-last aggregation, affinity coercion of literals, ASCII
case-insensitive LIKE — so the cross-dialect conformance suite can
result-compare it against the reference backend on every bundled gold
set.

The executor exists for two reasons: it proves the backend protocol is
real (nothing above ``db/`` knows which engine runs a query), and it is
the permanent conformance counterweight that keeps future backends
honest about dialect quirks.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Any, Optional, Union

from repro.errors import ExecutionError, SQLSyntaxError
from repro.db.backends.base import BackendCapabilities, Row, ValueAccess
from repro.db.schema import Schema, Table
from repro.reliability.deadline import Deadline
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
    identifier_key,
    normalize_number,
)
from repro.sqlgen.dialects import parse_dialect_sql
from repro.sqlgen.lexer import TokenKind, tokenize_sql

#: Capabilities of the columnar backend (the "ansi" dialect).
COLUMNAR_CAPABILITIES = BackendCapabilities(
    dialect="ansi",
    identifier_quote='"',
    limit_style="fetch_first",
    inequality="<>",
    string_concat="||",
    true_division=True,
    date_function="extract",
    like_case_sensitive=False,
)

#: Poll an active deadline every this many row visits.
_DEADLINE_POLL_OPS = 1024

#: Functions evaluated over a whole group.
_AGGREGATE_FUNCS = frozenset({"count", "sum", "avg", "min", "max"})

#: Single-argument scalar functions the executor evaluates row-wise.
_SCALAR_FUNCS = frozenset({"abs", "round", "length", "upper", "lower"})

#: One row environment: ``table.column`` key -> cell value.
_Env = dict[str, Any]


class ColumnarBackend(ValueAccess):
    """Column-major in-memory backend executing the sqlgen AST."""

    name: str = "columnar"
    dialect: str = "ansi"
    capabilities: BackendCapabilities = COLUMNAR_CAPABILITIES

    def __init__(
        self,
        schema: Schema,
        rows: dict[str, list[Row]] | None = None,
        capabilities: BackendCapabilities | None = None,
    ):
        self.schema = schema
        if capabilities is not None:
            self.capabilities = capabilities
            self.dialect = capabilities.dialect
        # Column-major storage: table key -> column key -> value list.
        self._columns: dict[str, dict[str, list[Any]]] = {}
        self._nrows: dict[str, int] = {}
        rows = rows or {}
        for table in schema.tables:
            table_key = identifier_key(table.name)
            content = rows.get(table.name)
            if content is None:
                # Accept snapshots keyed under any casing of the name.
                for key, value in rows.items():
                    if identifier_key(key) == table_key:
                        content = value
                        break
            content = content or []
            store: dict[str, list[Any]] = {
                identifier_key(column.name): [] for column in table.columns
            }
            for row in content:
                if len(row) != len(table.columns):
                    raise ExecutionError(
                        f"row width {len(row)} != {len(table.columns)} "
                        f"columns in table {table.name!r}"
                    )
                for column, value in zip(table.columns, row):
                    store[identifier_key(column.name)].append(value)
            self._columns[table_key] = store
            self._nrows[table_key] = len(content)

    @classmethod
    def from_database(cls, database: Any) -> "ColumnarBackend":
        """Snapshot a reference backend's schema and content."""
        return cls(database.schema, database.all_rows())

    def with_capabilities(self, **overrides: Any) -> "ColumnarBackend":
        """Copy of this backend with tweaked capability flags (for tests)."""
        caps = dataclasses.replace(self.capabilities, **overrides)
        clone = ColumnarBackend(self.schema, capabilities=caps)
        clone._columns = self._columns
        clone._nrows = self._nrows
        return clone

    # -- execution ----------------------------------------------------------

    def execute(
        self, sql: str, max_rows: int = 100_000, deadline: Deadline | None = None
    ) -> list[Row]:
        """Run ``sql`` (in this backend's dialect) and return its rows.

        Raises :class:`ExecutionError` for syntax errors, unknown schema
        elements, or unsupported constructs, and
        :class:`~repro.errors.DeadlineExceededError` once ``deadline``
        expires (polled during row iteration).
        """
        if deadline is not None:
            deadline.check("execution")
        try:
            literal_row = _parse_literal_select(sql)
            if literal_row is not None:
                return [literal_row][:max_rows]
            query = parse_dialect_sql(sql, self.dialect)
        except SQLSyntaxError as exc:
            raise ExecutionError(f"{type(exc).__name__}: {exc}") from exc
        rows = _Evaluator(self, deadline).run(query)
        return rows[:max_rows]

    def close(self) -> None:
        self._columns = {}
        self._nrows = {}

    # -- value access -------------------------------------------------------

    def _table_store(self, table_name: str) -> tuple[Table, dict[str, list[Any]], int]:
        table = self.schema.table(table_name)
        key = identifier_key(table.name)
        return table, self._columns[key], self._nrows[key]

    def row_count(self, table_name: str) -> int:
        _, _, nrows = self._table_store(table_name)
        return nrows

    def distinct_values(
        self, table_name: str, column_name: str, limit: int = 10_000
    ) -> list[Any]:
        """Distinct non-null values in storage order, up to ``limit``."""
        table, store, _ = self._table_store(table_name)
        column = table.column(column_name)
        values = store[identifier_key(column.name)]
        out: list[Any] = []
        seen: dict[Any, None] = {}
        for value in values:
            if value is None or value in seen:
                continue
            seen[value] = None
            out.append(value)
            if len(out) >= int(limit):
                break
        return out

    def table_rows(self, table_name: str) -> list[Row]:
        """All rows of a table, reassembled row-major."""
        table, store, nrows = self._table_store(table_name)
        columns = [store[identifier_key(column.name)] for column in table.columns]
        return [tuple(column[i] for column in columns) for i in range(nrows)]


# ---------------------------------------------------------------------------
# SELECT-without-FROM (sentinel queries)
# ---------------------------------------------------------------------------


def _parse_literal_select(sql: str) -> Optional[Row]:
    """Recognize ``SELECT <literal>[, <literal>...]`` with no FROM clause.

    The degradation ladder's sentinel (``SELECT 1``) is outside the core
    grammar, which requires a FROM clause; every real engine accepts it,
    so this backend does too.  Lexical errors propagate as
    :class:`SQLSyntaxError` for the caller to classify.
    """
    tokens = tokenize_sql(sql)
    # Keyword-token comparison via the lexer's own case folding — not
    # an identifier comparison.
    if not tokens or tokens[0].lower() != "select":  # staticcheck: disable=ARCH003
        return None
    values: list[Any] = []
    i = 1
    while i < len(tokens):
        token = tokens[i]
        if token.kind is TokenKind.NUMBER:
            values.append(float(token.value) if "." in token.value else int(token.value))
        elif token.kind is TokenKind.STRING:
            values.append(token.value[1:-1].replace("''", "'"))
        elif token.kind is TokenKind.KEYWORD and token.lower() == "null":  # staticcheck: disable=ARCH003
            values.append(None)
        else:
            return None
        i += 1
        nxt = tokens[i]
        if nxt.kind is TokenKind.EOF:
            return tuple(values)
        if not (nxt.kind is TokenKind.PUNCT and nxt.value == ","):
            return None
        i += 1
    return None


# ---------------------------------------------------------------------------
# SQLite-compatible value semantics
# ---------------------------------------------------------------------------


def _type_rank(value: Any) -> int:
    if isinstance(value, bool) or isinstance(value, (int, float)):
        return 0
    if isinstance(value, str):
        return 1
    return 2


def _compare(a: Any, b: Any) -> Optional[int]:
    """SQLite ordering: NULL propagates, numbers < text < blob."""
    if a is None or b is None:
        return None
    rank_a, rank_b = _type_rank(a), _type_rank(b)
    if rank_a != rank_b:
        return -1 if rank_a < rank_b else 1
    if rank_a == 0:
        fa, fb = float(a), float(b)
        return (fa > fb) - (fa < fb)
    return (a > b) - (a < b)


def _value_key(value: Any) -> tuple:
    """Canonical grouping/distinct key consistent with :func:`_compare`."""
    if value is None:
        return (-1,)
    rank = _type_rank(value)
    if rank == 0:
        return (0, float(value))
    return (rank, value)


def _sort_key(value: Any) -> tuple:
    """ORDER BY key: NULLs first, then numbers, then text, then blobs."""
    return _value_key(value)


def _row_key(row: Row) -> tuple:
    return tuple(_value_key(value) for value in row)


def _parse_numeric_text(text: str) -> Optional[Union[int, float]]:
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return None


def _coerce_to_affinity(value: Any, storage_type: str) -> Any:
    """Apply SQLite column affinity to a bare literal before comparison."""
    if value is None:
        return None
    if storage_type in ("INTEGER", "REAL"):
        if isinstance(value, str):
            number = _parse_numeric_text(value)
            return value if number is None else number
        return value
    if isinstance(value, bool) or isinstance(value, (int, float)):
        return normalize_number(value)
    return value


def _like_to_regex(pattern: str) -> str:
    out: list[str] = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return "".join(out)


def _as_text(value: Any) -> Optional[str]:
    if value is None:
        return None
    if isinstance(value, str):
        return value
    if isinstance(value, bool) or isinstance(value, (int, float)):
        return normalize_number(value)
    return str(value)


def _as_number(value: Any) -> Optional[Union[int, float]]:
    """SQLite numeric coercion: text parses its numeric prefix, else 0."""
    if value is None:
        return None
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return value
    number = _parse_numeric_text(str(value))
    return 0 if number is None else number


# ---------------------------------------------------------------------------
# Evaluation contexts
# ---------------------------------------------------------------------------


class _RowCtx:
    """One ungrouped row."""

    __slots__ = ("env",)

    def __init__(self, env: _Env):
        self.env = env

    members: Optional[list[_Env]] = None


class _GroupCtx:
    """One group of rows (GROUP BY bucket, or the whole-table group)."""

    __slots__ = ("env", "members")

    def __init__(self, members: list[_Env]):
        self.members = members
        self.env = members[0] if members else {}


_Ctx = Union[_RowCtx, _GroupCtx]


class _Evaluator:
    """Interprets one parsed query tree against the columnar store."""

    def __init__(self, backend: ColumnarBackend, deadline: Deadline | None):
        self.backend = backend
        self.schema = backend.schema
        self.deadline = deadline
        self._ops = 0
        # Uncorrelated subqueries evaluate once per statement.
        self._subquery_memo: dict[int, list[Row]] = {}

    # -- bookkeeping ---------------------------------------------------------

    def _tick(self) -> None:
        self._ops += 1
        if self.deadline is not None and self._ops % _DEADLINE_POLL_OPS == 0:
            self.deadline.check("execution")

    # -- entry ---------------------------------------------------------------

    def run(self, query: Query) -> list[Row]:
        if query.compound_query is None:
            return [row for _, row in self._simple(query)]
        arms = list(query.compound_chain())
        combined = [row for _, row in self._simple(arms[0], skip_order_limit=True)]
        for index in range(1, len(arms)):
            arm = arms[index]
            rows = [row for _, row in self._simple(arm, skip_order_limit=True)]
            if rows and combined and len(rows[0]) != len(combined[0]):
                raise ExecutionError(
                    "SELECTs to the left and right of "
                    f"{arms[index - 1].compound_op or 'the set operation'} do not "
                    "have the same number of result columns"
                )
            combined = _apply_set_op(
                arms[index - 1].compound_op.upper(), combined, rows
            )
        last = arms[-1]
        if last.order_by:
            combined = self._order_compound(arms[0], last, combined)
        if last.limit is not None:
            combined = combined[: last.limit]
        return combined

    # -- simple (non-compound) SELECT ---------------------------------------

    def _simple(
        self, query: Query, skip_order_limit: bool = False
    ) -> list[tuple[_Ctx, Row]]:
        scope = self._validate_scope(query)
        envs = self._scan(query, scope)
        if query.where is not None:
            envs = [
                env
                for env in envs
                if self._condition(query.where, _RowCtx(env), query, scope) is True
            ]
        has_aggregate = _query_has_aggregate(query)
        ctxs: list[_Ctx]
        if query.group_by:
            keys = [self._resolve(col, query, scope) for col in query.group_by]
            groups: dict[tuple, list[_Env]] = {}
            for env in envs:
                self._tick()
                group_key = tuple(_value_key(env.get(key)) for key in keys)
                groups.setdefault(group_key, []).append(env)
            ctxs = [_GroupCtx(members) for members in groups.values()]
        elif has_aggregate:
            ctxs = [_GroupCtx(envs)]
        else:
            ctxs = [_RowCtx(env) for env in envs]
        if query.having is not None:
            ctxs = [
                ctx
                for ctx in ctxs
                if self._condition(query.having, ctx, query, scope) is True
            ]
        projected = [(ctx, self._project(query, ctx, scope)) for ctx in ctxs]
        if query.distinct:
            deduped: list[tuple[_Ctx, Row]] = []
            seen: dict[tuple, None] = {}
            for ctx, row in projected:
                key = _row_key(row)
                if key in seen:
                    continue
                seen[key] = None
                deduped.append((ctx, row))
            projected = deduped
        if skip_order_limit:
            return projected
        if query.order_by:
            projected = self._order_simple(query, scope, projected)
        if query.limit is not None:
            projected = projected[: query.limit]
        return projected

    def _validate_scope(self, query: Query) -> list[Table]:
        tables: list[Table] = []
        for name in query.local_tables():
            if not self.schema.has_table(name):
                raise ExecutionError(f"no such table: {name}")
            tables.append(self.schema.table(name))
        return tables

    def _scan(self, query: Query, scope: list[Table]) -> list[_Env]:
        envs = self._table_envs(scope[0])
        for edge, table in zip(query.joins, scope[1:]):
            left_key = self._resolve(edge.left, query, scope)
            right_key = self._resolve(edge.right, query, scope)
            joined: list[_Env] = []
            right_envs = self._table_envs(table)
            for env in envs:
                for right_env in right_envs:
                    self._tick()
                    merged = {**env, **right_env}
                    if _compare(merged.get(left_key), merged.get(right_key)) == 0:
                        joined.append(merged)
            envs = joined
        return envs

    def _table_envs(self, table: Table) -> list[_Env]:
        table_key = identifier_key(table.name)
        store = self.backend._columns[table_key]
        nrows = self.backend._nrows[table_key]
        column_keys = [
            (f"{table_key}.{identifier_key(column.name)}", identifier_key(column.name))
            for column in table.columns
        ]
        envs: list[_Env] = []
        for i in range(nrows):
            self._tick()
            env: _Env = {}
            for qualified, bare in column_keys:
                env[qualified] = store[bare][i]
            envs.append(env)
        return envs

    # -- name resolution -----------------------------------------------------

    def _resolve(self, ref: ColumnRef, query: Query, scope: list[Table]) -> str:
        """Resolve a column reference to its ``table.column`` env key."""
        column_key = identifier_key(ref.column)
        if ref.table:
            table_key = identifier_key(ref.table)
            for table in scope:
                if identifier_key(table.name) == table_key:
                    if not table.has_column(ref.column):
                        raise ExecutionError(f"no such column: {ref}")
                    return f"{table_key}.{column_key}"
            raise ExecutionError(f"no such column: {ref}")
        matches = [
            table
            for table in scope
            if table.has_column(ref.column)
        ]
        if not matches:
            raise ExecutionError(f"no such column: {ref.column}")
        if len(matches) > 1:
            raise ExecutionError(f"ambiguous column name: {ref.column}")
        return f"{identifier_key(matches[0].name)}.{column_key}"

    def _declared_type(self, ref: ColumnRef, query: Query, scope: list[Table]) -> str:
        key = self._resolve(ref, query, scope)
        table_key, _, column_key = key.partition(".")
        for table in scope:
            if identifier_key(table.name) == table_key:
                return table.column(column_key).storage_type
        return "TEXT"

    # -- expressions ---------------------------------------------------------

    def _expr(self, expr: Expression, ctx: _Ctx, query: Query, scope: list[Table]) -> Any:
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, ColumnRef):
            if expr.column == "*":
                raise ExecutionError("'*' is only valid inside COUNT or a SELECT list")
            return ctx.env.get(self._resolve(expr, query, scope))
        if isinstance(expr, Aggregation):
            func = expr.func.lower()
            if func in _AGGREGATE_FUNCS:
                if not isinstance(ctx, _GroupCtx):
                    raise ExecutionError(f"misuse of aggregate: {func}()")
                return self._aggregate(expr, ctx, query, scope)
            if func in _SCALAR_FUNCS:
                value = self._expr(expr.arg, ctx, query, scope)
                return _scalar_func(func, value)
            raise ExecutionError(f"unsupported function: {func}")
        raise ExecutionError(f"unsupported expression: {expr!r}")

    def _aggregate(
        self, agg: Aggregation, ctx: _GroupCtx, query: Query, scope: list[Table]
    ) -> Any:
        func = agg.func.lower()
        if agg.arg.column == "*":
            if func != "count":
                raise ExecutionError(f"misuse of '*' argument in {func}()")
            return len(ctx.members)
        key = self._resolve(agg.arg, query, scope)
        values = [env.get(key) for env in ctx.members]
        values = [value for value in values if value is not None]
        if agg.distinct:
            uniq: list[Any] = []
            seen: dict[tuple, None] = {}
            for value in values:
                value_key = _value_key(value)
                if value_key in seen:
                    continue
                seen[value_key] = None
                uniq.append(value)
            values = uniq
        if func == "count":
            return len(values)
        if not values:
            return None
        if func == "sum":
            numbers = [_as_number(value) for value in values]
            total = sum(numbers)
            if all(isinstance(number, int) for number in numbers):
                return int(total)
            return float(total)
        if func == "avg":
            numbers = [_as_number(value) for value in values]
            return float(sum(numbers)) / len(numbers)
        best = values[0]
        for value in values[1:]:
            order = _compare(value, best)
            if order is None:
                continue
            if (func == "min" and order < 0) or (func == "max" and order > 0):
                best = value
        return best

    # -- conditions ----------------------------------------------------------

    def _condition(
        self, cond: Condition, ctx: _Ctx, query: Query, scope: list[Table]
    ) -> Optional[bool]:
        """Three-valued condition evaluation (True / False / None)."""
        if isinstance(cond, CompoundCondition):
            results = [
                self._condition(sub, ctx, query, scope) for sub in cond.conditions
            ]
            if cond.op.upper() == "AND":
                if any(result is False for result in results):
                    return False
                if any(result is None for result in results):
                    return None
                return True
            if any(result is True for result in results):
                return True
            if any(result is None for result in results):
                return None
            return False
        if isinstance(cond, BinaryCondition):
            left = self._expr(cond.left, ctx, query, scope)
            if isinstance(cond.right, Query):
                right = self._scalar_subquery(cond.right)
            else:
                right = self._expr(cond.right, ctx, query, scope)
                right = self._coerce_pair(cond.left, cond.right, right, query, scope)
                left = self._coerce_reverse(cond.left, cond.right, left, query, scope)
            order = _compare(left, right)
            if order is None:
                return None
            op = cond.op
            if op == "=":
                return order == 0
            if op in ("!=", "<>"):
                return order != 0
            if op == "<":
                return order < 0
            if op == "<=":
                return order <= 0
            if op == ">":
                return order > 0
            if op == ">=":
                return order >= 0
            raise ExecutionError(f"unsupported operator: {op}")
        if isinstance(cond, InCondition):
            value = self._expr(cond.expr, ctx, query, scope)
            if cond.subquery is not None:
                members = [row[0] for row in self._subquery_rows(cond.subquery)]
            else:
                members = [
                    self._coerce_pair(cond.expr, literal, literal.value, query, scope)
                    for literal in cond.values
                ]
            if value is None:
                return None
            matched = any(_compare(value, member) == 0 for member in members)
            if matched:
                return not cond.negated
            if any(member is None for member in members):
                return None
            return cond.negated
        if isinstance(cond, BetweenCondition):
            value = self._expr(cond.expr, ctx, query, scope)
            low = self._coerce_pair(cond.expr, cond.low, cond.low.value, query, scope)
            high = self._coerce_pair(cond.expr, cond.high, cond.high.value, query, scope)
            low_order = _compare(value, low)
            high_order = _compare(value, high)
            if low_order is None or high_order is None:
                return None
            return low_order >= 0 and high_order <= 0
        if isinstance(cond, LikeCondition):
            value = _as_text(self._expr(cond.expr, ctx, query, scope))
            if value is None or cond.pattern.value is None:
                return None
            pattern = _as_text(cond.pattern.value) or ""
            flags = 0 if self.backend.capabilities.like_case_sensitive else re.IGNORECASE
            matched = re.fullmatch(_like_to_regex(pattern), value, flags) is not None
            return matched != cond.negated
        if isinstance(cond, NullCondition):
            value = self._expr(cond.expr, ctx, query, scope)
            return (value is None) != cond.negated
        raise ExecutionError(f"unsupported condition: {cond!r}")

    def _coerce_pair(
        self,
        left: Expression,
        right: Expression,
        right_value: Any,
        query: Query,
        scope: list[Table],
    ) -> Any:
        """Apply the left column's affinity to a bare right-hand literal."""
        if isinstance(left, ColumnRef) and left.column != "*" and isinstance(right, Literal):
            return _coerce_to_affinity(
                right_value, self._declared_type(left, query, scope)
            )
        return right_value

    def _coerce_reverse(
        self,
        left: Expression,
        right: Expression,
        left_value: Any,
        query: Query,
        scope: list[Table],
    ) -> Any:
        """Apply the right column's affinity to a bare left-hand literal."""
        if isinstance(left, Literal) and isinstance(right, ColumnRef) and right.column != "*":
            return _coerce_to_affinity(
                left_value, self._declared_type(right, query, scope)
            )
        return left_value

    # -- subqueries ----------------------------------------------------------

    def _subquery_rows(self, query: Query) -> list[Row]:
        memo_key = id(query)
        if memo_key not in self._subquery_memo:
            rows = _Evaluator(self.backend, self.deadline).run(query)
            if rows and len(rows[0]) != 1:
                raise ExecutionError(
                    f"sub-select returns {len(rows[0])} columns - expected 1"
                )
            self._subquery_memo[memo_key] = rows
        return self._subquery_memo[memo_key]

    def _scalar_subquery(self, query: Query) -> Any:
        rows = self._subquery_rows(query)
        return rows[0][0] if rows else None

    # -- projection / ordering ----------------------------------------------

    def _project(self, query: Query, ctx: _Ctx, scope: list[Table]) -> Row:
        values: list[Any] = []
        for item in query.select_items:
            expr = item.expr
            if isinstance(expr, ColumnRef) and expr.column == "*":
                values.extend(self._expand_star(expr, ctx, scope))
                continue
            values.append(self._expr(expr, ctx, query, scope))
        return tuple(values)

    def _expand_star(self, ref: ColumnRef, ctx: _Ctx, scope: list[Table]) -> list[Any]:
        tables = scope
        if ref.table:
            table_key = identifier_key(ref.table)
            tables = [
                table for table in scope if identifier_key(table.name) == table_key
            ]
            if not tables:
                raise ExecutionError(f"no such table: {ref.table}")
        out: list[Any] = []
        for table in tables:
            table_key = identifier_key(table.name)
            for column in table.columns:
                out.append(ctx.env.get(f"{table_key}.{identifier_key(column.name)}"))
        return out

    def _order_simple(
        self, query: Query, scope: list[Table], projected: list[tuple[_Ctx, Row]]
    ) -> list[tuple[_Ctx, Row]]:
        ordered = list(projected)
        for item in reversed(query.order_by):
            expr = item.expr
            if isinstance(expr, Literal) and isinstance(expr.value, int):
                position = expr.value - 1

                def key(pair: tuple[_Ctx, Row], position: int = position) -> tuple:
                    row = pair[1]
                    if not 0 <= position < len(row):
                        raise ExecutionError(
                            f"ORDER BY term out of range: {position + 1}"
                        )
                    return _sort_key(row[position])

            else:

                def key(pair: tuple[_Ctx, Row], expr: Expression = expr) -> tuple:
                    return _sort_key(self._expr(expr, pair[0], query, scope))

            ordered.sort(key=key, reverse=item.descending)
        return ordered

    def _order_compound(
        self, first: Query, last: Query, rows: list[Row]
    ) -> list[Row]:
        ordered = list(rows)
        for item in reversed(last.order_by):
            position = self._output_position(first, item.expr)
            ordered.sort(
                key=lambda row, position=position: _sort_key(row[position]),
                reverse=item.descending,
            )
        return ordered

    def _output_position(self, first: Query, expr: Expression) -> int:
        """Map a compound ORDER BY expression to an output column index."""
        if isinstance(expr, Literal) and isinstance(expr.value, int):
            return expr.value - 1
        for position, item in enumerate(first.select_items):
            if item.expr == expr:
                return position
            if (
                isinstance(expr, ColumnRef)
                and not expr.table
                and expr.column != "*"
            ):
                if item.alias and identifier_key(item.alias) == identifier_key(expr.column):
                    return position
                if (
                    isinstance(item.expr, ColumnRef)
                    and identifier_key(item.expr.column) == identifier_key(expr.column)
                ):
                    return position
        raise ExecutionError(
            "ORDER BY term does not match any column in the result set"
        )


def _query_has_aggregate(query: Query) -> bool:
    def is_aggregate(expr: Expression) -> bool:
        return (
            isinstance(expr, Aggregation) and expr.func.lower() in _AGGREGATE_FUNCS
        )

    if any(is_aggregate(item.expr) for item in query.select_items):
        return True
    if any(is_aggregate(item.expr) for item in query.order_by):
        return True

    def condition_has_aggregate(cond: Optional[Condition]) -> bool:
        if cond is None:
            return False
        if isinstance(cond, CompoundCondition):
            return any(condition_has_aggregate(sub) for sub in cond.conditions)
        if isinstance(cond, BinaryCondition):
            return is_aggregate(cond.left) or (
                not isinstance(cond.right, Query) and is_aggregate(cond.right)
            )
        if isinstance(cond, (InCondition, BetweenCondition, LikeCondition, NullCondition)):
            return is_aggregate(cond.expr)
        return False

    return condition_has_aggregate(query.having)


def _scalar_func(func: str, value: Any) -> Any:
    if value is None:
        return None
    if func == "abs":
        number = _as_number(value)
        return abs(number)
    if func == "round":
        number = float(_as_number(value))
        rounded = int(number + 0.5) if number >= 0 else -int(-number + 0.5)
        return float(rounded)
    if func == "length":
        text = _as_text(value)
        return len(text) if text is not None else None
    if func == "upper":
        text = _as_text(value)
        return text.upper() if text is not None else None
    if func == "lower":
        text = _as_text(value)
        return text.lower() if text is not None else None
    raise ExecutionError(f"unsupported function: {func}")


def _apply_set_op(op: str, left: list[Row], right: list[Row]) -> list[Row]:
    right_keys = {_row_key(row): None for row in right}
    out: list[Row] = []
    seen: dict[tuple, None] = {}

    def emit(row: Row) -> None:
        key = _row_key(row)
        if key in seen:
            return
        seen[key] = None
        out.append(row)

    if op == "UNION":
        for row in left:
            emit(row)
        for row in right:
            emit(row)
    elif op == "INTERSECT":
        for row in left:
            if _row_key(row) in right_keys:
                emit(row)
    elif op == "EXCEPT":
        for row in left:
            if _row_key(row) not in right_keys:
                emit(row)
    else:
        raise ExecutionError(f"unsupported compound operator: {op or '<none>'}")
    return out
