"""Static query-equivalence engine: canonicalizer and prover.

Execution is the hot-path cost of this repro — the beam executes up to
four candidates per question (§8) and EX evaluation executes both the
prediction and the gold query (§9).  Candidate sets are riddled with
surface-variant duplicates that execute identically (Rajkumar et al.),
so this module provides the static dual of :mod:`repro.analysis.analyzer`:
where the analyzer rejects queries that are *wrong*, the canonicalizer
recognizes queries that are the *same*.

Soundness contract
------------------
:func:`canonicalize` applies only rewrites that provably preserve the
executed result under SQLite semantics (including three-valued NULL
logic), so two queries with equal canonical forms execute identically.
Rewrites that preserve the result *multiset* but may permute row order
(GROUP BY → DISTINCT, set-operation arm sorting) are gated on the
query being order-insensitive (no ORDER BY, no LIMIT) at that level.
:func:`prove_equivalent` returns ``EQUIVALENT`` only for rewrite-closed
equalities; everything it cannot prove is ``UNKNOWN`` (or ``DISTINCT``
when the output shapes provably differ).  The verdict is audited
against real execution on every bundled gold set by
``tests/test_equivalence.py``.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional, Union

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
    JoinEdge,
    LikeCondition,
    Literal,
    NullCondition,
    OrderItem,
    Query,
    SelectItem,
    identifier_key,
    normalize_number,
    render_expression,
)
from repro.sqlgen.dialects import parse_dialect_sql
from repro.sqlgen.parser import parse_sql
from repro.sqlgen.dialects.sqlite import SQLITE_EMITTER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.catalog import SchemaCatalog

#: Mirror image of each comparison operator under operand swap.
_MIRRORED_OPS = {
    "=": "=",
    "!=": "!=",
    "<": ">",
    ">": "<",
    "<=": ">=",
    ">=": "<=",
}

#: Aggregates for which DISTINCT is a no-op (duplicates cannot change
#: the extremum).  COUNT/SUM/AVG DISTINCT are semantically load-bearing.
_DISTINCT_NOOP_FUNCS = frozenset({"min", "max"})

#: Set operations whose arms commute (EXCEPT does not).
_COMMUTATIVE_SET_OPS = frozenset({"UNION", "INTERSECT"})


class Verdict(enum.Enum):
    """Outcome of :func:`prove_equivalent`.

    Only ``EQUIVALENT`` is load-bearing: callers skip executions on its
    strength, so it must be sound.  ``DISTINCT`` marks a provable
    output-shape difference (projection arity or referenced relation
    set) and is advisory — consumers treat it exactly like ``UNKNOWN``
    and fall back to execution.
    """

    EQUIVALENT = "equivalent"
    DISTINCT = "distinct"
    UNKNOWN = "unknown"


EQUIVALENT = Verdict.EQUIVALENT
DISTINCT = Verdict.DISTINCT
UNKNOWN = Verdict.UNKNOWN


# ---------------------------------------------------------------------------
# Expression / condition canonicalization
# ---------------------------------------------------------------------------


def _canonical_literal(lit: Literal) -> Literal:
    """Normalize numeric payloads so ``3.0`` and ``3`` share identity.

    Sound because SQLite's numeric affinity makes integral REALs and
    INTEGERs compare and join identically, and Python's result
    comparison (`results_match`) already treats ``3.0 == 3``.
    """
    value = lit.value
    if isinstance(value, float) and not isinstance(value, bool) and value.is_integer():
        return Literal(int(value))
    return lit


def _canonical_column(col: ColumnRef) -> ColumnRef:
    return ColumnRef(
        table=identifier_key(col.table) if col.table else "",
        column=col.column if col.column == "*" else identifier_key(col.column),
    )


def _canonical_expression(expr: Expression) -> Expression:
    if isinstance(expr, ColumnRef):
        return _canonical_column(expr)
    if isinstance(expr, Aggregation):
        func = identifier_key(expr.func)
        distinct = expr.distinct and func not in _DISTINCT_NOOP_FUNCS
        return Aggregation(func=func, arg=_canonical_column(expr.arg), distinct=distinct)
    if isinstance(expr, Literal):
        return _canonical_literal(expr)
    raise TypeError(f"not an expression node: {expr!r}")


def _operand_rank(expr: Union[Expression, Query]) -> tuple[int, str]:
    """Orientation key: schema references before literals, then text."""
    if isinstance(expr, Literal):
        return (1, expr.render())
    return (0, render_expression(expr))


def _canonical_binary(cond: BinaryCondition) -> Condition:
    left = _canonical_expression(cond.left)
    op = "!=" if cond.op == "<>" else cond.op
    right: Union[Expression, Query]
    if isinstance(cond.right, Query):
        right = canonicalize(cond.right)
        return BinaryCondition(left=left, op=op, right=right)
    right = _canonical_expression(cond.right)
    # Orient the comparison: schema reference before literal (``5 < x``
    # becomes ``x > 5``), ties broken textually so ``a = b`` and
    # ``b = a`` share one spelling.  ``x OP y`` and ``y MIRROR(OP) x``
    # are the same predicate for every operand pair, NULLs included.
    if _operand_rank(left) > _operand_rank(right):
        left, right = right, left
        op = _MIRRORED_OPS[op]
    return BinaryCondition(left=left, op=op, right=right)


def _literal_sort_key(lit: Literal) -> tuple[int, str]:
    if lit.value is None:
        return (0, "")
    if isinstance(lit.value, str):
        return (2, lit.render())
    return (1, lit.render())


def _canonical_in(cond: InCondition) -> Condition:
    expr = _canonical_expression(cond.expr)
    if cond.subquery is not None:
        return InCondition(
            expr=expr,
            subquery=canonicalize(cond.subquery),
            negated=cond.negated,
        )
    # ``x IN (a, b, a)`` is the disjunction ``x=a OR x=b`` — duplicate
    # removal and reordering preserve it under three-valued logic.
    seen: dict[str, Literal] = {}
    for value in cond.values:
        lit = _canonical_literal(value)
        seen.setdefault(lit.render(), lit)
    values = tuple(sorted(seen.values(), key=_literal_sort_key))
    if len(values) == 1:
        # ``x IN (v)`` is exactly ``x = v`` (both NULL when either side
        # is NULL); the negated form is exactly ``x != v``.
        op = "!=" if cond.negated else "="
        return _canonical_binary(BinaryCondition(left=expr, op=op, right=values[0]))
    return InCondition(expr=expr, values=values, negated=cond.negated)


def _canonical_condition(cond: Condition) -> Condition:
    if isinstance(cond, BinaryCondition):
        return _canonical_binary(cond)
    if isinstance(cond, InCondition):
        return _canonical_in(cond)
    if isinstance(cond, BetweenCondition):
        # ``x BETWEEN lo AND hi`` is defined as ``x >= lo AND x <= hi``,
        # NULL semantics included — rewrite into the range conjunction so
        # both spellings canonicalize identically.
        expr = _canonical_expression(cond.expr)
        return _canonical_condition(
            CompoundCondition(
                op="AND",
                conditions=(
                    BinaryCondition(expr, ">=", _canonical_literal(cond.low)),
                    BinaryCondition(expr, "<=", _canonical_literal(cond.high)),
                ),
            )
        )
    if isinstance(cond, LikeCondition):
        return LikeCondition(
            expr=_canonical_expression(cond.expr),
            pattern=cond.pattern,
            negated=cond.negated,
        )
    if isinstance(cond, NullCondition):
        return NullCondition(expr=_canonical_expression(cond.expr), negated=cond.negated)
    if isinstance(cond, CompoundCondition):
        op = cond.op.upper()
        flattened: list[Condition] = []
        for sub in cond.conditions:
            canon = _canonical_condition(sub)
            if isinstance(canon, CompoundCondition) and canon.op == op:
                flattened.extend(canon.conditions)  # associativity
            else:
                flattened.append(canon)
        # Commutativity + idempotence: sort by rendered text, drop exact
        # duplicates (``p AND p = p`` holds in three-valued logic too).
        unique: dict[str, Condition] = {}
        for sub in flattened:
            key = SQLITE_EMITTER.serialize_condition(sub, parenthesize=True)
            unique.setdefault(key, sub)
        ordered = [unique[key] for key in sorted(unique)]
        if len(ordered) == 1:
            return ordered[0]
        return CompoundCondition(op=op, conditions=tuple(ordered))
    raise TypeError(f"not a condition node: {cond!r}")


# ---------------------------------------------------------------------------
# Query canonicalization
# ---------------------------------------------------------------------------


def _erase_aliases(query: Query) -> Query:
    """Drop output aliases that only name columns, substituting ORDER BY uses.

    A SELECT alias affects output column *names*, never values, so
    dropping an unreferenced alias is result-preserving.  A bare ORDER
    BY identifier matching an alias resolves to that output column in
    SQLite (output names take precedence there), so substituting the
    aliased expression is exact.  Aliases referenced bare anywhere else
    (WHERE/HAVING/GROUP BY, where SQLite's resolution rules are murkier)
    are conservatively kept.
    """
    aliased = {
        identifier_key(item.alias): item.expr
        for item in query.select_items
        if item.alias
    }
    if not aliased:
        return query

    blockers: set[str] = set()

    def visit_expr(expr: Union[Expression, Query]) -> None:
        if isinstance(expr, ColumnRef) and not expr.table and expr.column != "*":
            blockers.add(identifier_key(expr.column))
        elif isinstance(expr, Aggregation):
            visit_expr(expr.arg)

    def visit_cond(cond: Condition) -> None:
        if isinstance(cond, BinaryCondition):
            visit_expr(cond.left)
            if not isinstance(cond.right, Query):
                visit_expr(cond.right)
        elif isinstance(cond, (InCondition, BetweenCondition, LikeCondition, NullCondition)):
            visit_expr(cond.expr)
        elif isinstance(cond, CompoundCondition):
            for sub in cond.conditions:
                visit_cond(sub)

    for cond in (query.where, query.having):
        if cond is not None:
            visit_cond(cond)
    for col in query.group_by:
        visit_expr(col)

    order_by = tuple(
        OrderItem(
            expr=aliased[identifier_key(item.expr.column)],
            descending=item.descending,
        )
        if (
            isinstance(item.expr, ColumnRef)
            and not item.expr.table
            and item.expr.column != "*"
            and identifier_key(item.expr.column) in aliased
            and identifier_key(item.expr.column) not in blockers
        )
        else item
        for item in query.order_by
    )
    select_items = tuple(
        SelectItem(expr=item.expr, alias="")
        if item.alias and identifier_key(item.alias) not in blockers
        else item
        for item in query.select_items
    )
    return Query(
        select_items=select_items,
        from_table=query.from_table,
        joins=query.joins,
        where=query.where,
        group_by=query.group_by,
        having=query.having,
        order_by=order_by,
        limit=query.limit,
        distinct=query.distinct,
        compound_op=query.compound_op,
        compound_query=query.compound_query,
    )


def _canonical_simple(query: Query) -> Query:
    """Canonicalize one SELECT level (no compound handling)."""
    query = _erase_aliases(query)

    select_items = tuple(
        SelectItem(expr=_canonical_expression(item.expr), alias=item.alias)
        for item in query.select_items
    )
    joins = tuple(
        # Equality commutes, so orient every join edge deterministically.
        JoinEdge(table=identifier_key(edge.table), left=left, right=right)
        if left.key() <= right.key()
        else JoinEdge(table=identifier_key(edge.table), left=right, right=left)
        for edge in query.joins
        for left, right in [
            (_canonical_column(edge.left), _canonical_column(edge.right))
        ]
    )
    where = _canonical_condition(query.where) if query.where is not None else None
    having = _canonical_condition(query.having) if query.having is not None else None
    group_by = tuple(_canonical_column(col) for col in query.group_by)

    # ORDER BY: a later key whose expression already appeared can never
    # break a tie (equal primary keys imply the duplicate is equal too),
    # so it is dead and dropped.  Key order itself is significant.
    order_by: list[OrderItem] = []
    seen_keys: set[str] = set()
    for item in query.order_by:
        expr = _canonical_expression(item.expr)
        rendered = render_expression(expr)
        if rendered in seen_keys:
            continue
        seen_keys.add(rendered)
        order_by.append(OrderItem(expr=expr, descending=item.descending))

    distinct = query.distinct
    # SELECT DISTINCT over an aggregate-only, ungrouped projection is a
    # no-op: the result is a single row.
    if distinct and not group_by and select_items and all(
        isinstance(item.expr, Aggregation) for item in select_items
    ):
        distinct = False

    order_sensitive = bool(order_by) or query.limit is not None
    if group_by and not order_sensitive:
        # Group keys are a set; duplicates are redundant and order only
        # affects (unspecified) output order, which nothing downstream
        # may rely on once ORDER BY/LIMIT are absent.
        group_by = tuple(
            sorted({col.key(): col for col in group_by}.values(), key=ColumnRef.key)
        )
        # ``SELECT a, b FROM t GROUP BY a, b`` with no HAVING and no
        # aggregates anywhere is exactly ``SELECT DISTINCT a, b FROM t``.
        plain_cols = [
            item.expr for item in select_items if isinstance(item.expr, ColumnRef)
        ]
        if (
            having is None
            and len(plain_cols) == len(select_items)
            and all(col.column != "*" for col in plain_cols)
            and {col.key() for col in plain_cols} == {col.key() for col in group_by}
        ):
            group_by = ()
            distinct = True

    return Query(
        select_items=select_items,
        from_table=identifier_key(query.from_table),
        joins=joins,
        where=where,
        group_by=group_by,
        having=having,
        order_by=tuple(order_by),
        limit=query.limit,
        distinct=distinct,
        compound_op="",
        compound_query=None,
    )


def canonicalize(query: Query) -> Query:
    """Rewrite ``query`` into its canonical, execution-equivalent form.

    Idempotent: ``canonicalize(canonicalize(q)) == canonicalize(q)``.
    The result serializes to valid SQL of the same subset.
    """
    arms = [_canonical_simple(arm) for arm in query.compound_chain()]
    ops = [arm.compound_op.upper() for arm in query.compound_chain()][:-1]

    if len(arms) > 1 and all(op == ops[0] for op in ops):
        op = ops[0]
        order_sensitive = any(
            arm.order_by or arm.limit is not None for arm in arms
        )
        if op in _COMMUTATIVE_SET_OPS and not order_sensitive:
            # UNION/INTERSECT are commutative, associative and
            # idempotent set operations (both emit distinct rows), so
            # arms sort and exact duplicates collapse.
            unique = {SQLITE_EMITTER.serialize(arm): arm for arm in arms}
            arms = [unique[key] for key in sorted(unique)]
            if len(arms) == 1:
                # ``q UNION q`` (or INTERSECT) is the distinct rows of q.
                lone = arms[0]
                return _canonical_simple(
                    Query(
                        select_items=lone.select_items,
                        from_table=lone.from_table,
                        joins=lone.joins,
                        where=lone.where,
                        group_by=lone.group_by,
                        having=lone.having,
                        order_by=lone.order_by,
                        limit=lone.limit,
                        distinct=True,
                    )
                )

    result = arms[-1]
    for arm, op in zip(reversed(arms[:-1]), reversed(ops)):
        result = Query(
            select_items=arm.select_items,
            from_table=arm.from_table,
            joins=arm.joins,
            where=arm.where,
            group_by=arm.group_by,
            having=arm.having,
            order_by=arm.order_by,
            limit=arm.limit,
            distinct=arm.distinct,
            compound_op=op,
            compound_query=result,
        )
    return result


def canonical_key(query: Query) -> str:
    """Stable text identity of a query's canonical form."""
    return SQLITE_EMITTER.serialize(canonicalize(query))


def canonical_key_sql(sql: str, dialect: str = "sqlite") -> str:
    """Canonical key for raw SQL text written in ``dialect``.

    The key itself is always rendered in the canonical SQLite dialect,
    so equivalent queries spelled in *different* dialects share one
    key.  Unparseable SQL (outside the sqlgen subset) falls back to
    whitespace normalization with original casing kept — string
    literals are case-sensitive, so the fallback must not merge texts
    that could execute differently.
    """
    try:
        return canonical_key(parse_dialect_sql(sql, dialect))
    except SQLSyntaxError:
        return " ".join(sql.split()).rstrip(";").rstrip()


# ---------------------------------------------------------------------------
# Equivalence prover
# ---------------------------------------------------------------------------


def _coerce(query: Union[str, Query], dialect: str = "sqlite") -> Optional[Query]:
    if isinstance(query, Query):
        return query
    try:
        return parse_dialect_sql(query, dialect)
    except SQLSyntaxError:
        return None


def _select_arity(query: Query, catalog: Optional["SchemaCatalog"]) -> Optional[int]:
    """Output column count, expanding stars via the catalog when known."""
    arity = 0
    for item in query.select_items:
        expr = item.expr
        if isinstance(expr, ColumnRef) and expr.column == "*":
            if catalog is None:
                return None
            tables = [expr.table] if expr.table else list(query.local_tables())
            for table in tables:
                if not catalog.has_table(table):
                    return None
                arity += len(catalog.columns_of(table))
        else:
            arity += 1
    return arity


def prove_equivalent(
    a: Union[str, Query],
    b: Union[str, Query],
    catalog: Optional["SchemaCatalog"] = None,
    dialect: str = "sqlite",
) -> Verdict:
    """Statically compare two queries written in ``dialect``.

    ``EQUIVALENT`` is sound: it is returned only when the two queries
    share a canonical form (or identical text), so executing either
    yields the other's result.  ``DISTINCT`` flags provable output-shape
    differences (projection arity under star expansion, referenced
    relation sets); everything else is ``UNKNOWN``.
    """
    if isinstance(a, str) and isinstance(b, str):
        if " ".join(a.split()).rstrip(";").rstrip() == " ".join(b.split()).rstrip(";").rstrip():
            return Verdict.EQUIVALENT
    qa, qb = _coerce(a, dialect), _coerce(b, dialect)
    if qa is None or qb is None:
        return Verdict.UNKNOWN
    ca, cb = canonicalize(qa), canonicalize(qb)
    if ca == cb:
        return Verdict.EQUIVALENT
    arity_a, arity_b = _select_arity(ca, catalog), _select_arity(cb, catalog)
    if arity_a is not None and arity_b is not None and arity_a != arity_b:
        return Verdict.DISTINCT
    if qa.tables_used() != qb.tables_used():
        return Verdict.DISTINCT
    return Verdict.UNKNOWN
