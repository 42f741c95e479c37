"""Base dialect emitter: parameterized rendering of the sqlgen AST.

A :class:`DialectEmitter` turns a :class:`~repro.sqlgen.ast.Query` into
SQL text for one concrete dialect.  The base class implements the full
grammar walk once; subclasses (or :meth:`DialectEmitter.from_capabilities`)
only set the knobs that differ between engines:

* ``identifier_quote`` — quote character wrapped around identifiers
  (``""`` emits bare identifiers, the SQLite canonical form).
* ``limit_style`` — how row limits are spelled: ``"limit"`` (``LIMIT n``),
  ``"fetch_first"`` (``FETCH FIRST n ROWS ONLY``) or ``"top"``
  (``SELECT TOP n ...``).
* ``inequality`` — the not-equal operator spelling (``!=`` vs ``<>``).

Each emitter also owns the *inverse* direction: :meth:`normalize_source`
rewrites dialect-specific surface syntax back into the canonical grammar
the sqlgen parser accepts, so ``parse_dialect_sql`` can round-trip text
written in any registered dialect.  Rewrites are token-based (via the
sqlgen lexer) so string literals containing keyword-lookalikes survive.
"""

from __future__ import annotations

from typing import Iterable, Optional

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
    Query,
)
from repro.sqlgen.lexer import SQLToken, TokenKind, tokenize_sql

#: Valid ``limit_style`` spellings, in registry order.
LIMIT_STYLES = ("limit", "fetch_first", "top")


class DialectEmitter:
    """Render the SQL AST to text for one dialect.

    The default knob values reproduce the historical canonical SQLite
    serializer byte-for-byte; see :class:`repro.sqlgen.dialects.sqlite.
    SQLiteEmitter`.
    """

    #: Registry name of the dialect this emitter produces.
    name: str = "sqlite"
    #: Quote character for identifiers ("" = emit bare identifiers).
    identifier_quote: str = ""
    #: One of :data:`LIMIT_STYLES`.
    limit_style: str = "limit"
    #: Spelling of the not-equal comparison operator.
    inequality: str = "!="

    # -- identifier / expression rendering ---------------------------------

    def quote(self, identifier: str) -> str:
        """Quote a single identifier per the dialect's convention."""
        if not self.identifier_quote or identifier == "*":
            return identifier
        quote = self.identifier_quote
        return f"{quote}{identifier}{quote}"

    def render_column(self, ref: ColumnRef) -> str:
        if ref.column == "*":
            return "*" if not ref.table else f"{self.quote(ref.table)}.*"
        if not ref.table:
            return self.quote(ref.column)
        return f"{self.quote(ref.table)}.{self.quote(ref.column)}"

    def render_expression(self, expr: Expression) -> str:
        if isinstance(expr, ColumnRef):
            return self.render_column(expr)
        if isinstance(expr, Aggregation):
            inner = self.render_column(expr.arg)
            if expr.distinct:
                inner = f"DISTINCT {inner}"
            return f"{expr.func.upper()}({inner})"
        if isinstance(expr, Literal):
            return expr.render()
        raise TypeError(f"not an expression node: {expr!r}")

    def render_operator(self, op: str) -> str:
        """Map the AST's canonical comparison spelling to the dialect's."""
        return self.inequality if op == "!=" else op

    def render_join(self, edge: JoinEdge) -> str:
        return (
            f"JOIN {self.quote(edge.table)} ON "
            f"{self.render_column(edge.left)} = {self.render_column(edge.right)}"
        )

    def render_limit(self, limit: int) -> tuple[str, str]:
        """A row limit as (head, tail): the text after ``SELECT
        [DISTINCT]`` and the text ending the query ("" where the
        dialect's style puts nothing)."""
        if self.limit_style == "limit":
            return "", f"LIMIT {limit}"
        if self.limit_style == "fetch_first":
            return "", f"FETCH FIRST {limit} ROWS ONLY"
        if self.limit_style == "top":
            return f"TOP {limit}", ""
        raise ValueError(f"unknown limit_style: {self.limit_style!r}")

    # -- query rendering ----------------------------------------------------

    def serialize(self, query: Query) -> str:
        """Serialize ``query`` to a single-line SQL string."""
        parts = [self._serialize_simple(query)]
        current = query
        while current.compound_query is not None:
            parts.append(current.compound_op.upper())
            parts.append(self._serialize_simple(current.compound_query))
            current = current.compound_query
        return " ".join(parts)

    def _serialize_simple(self, query: Query) -> str:
        pieces: list[str] = ["SELECT"]
        if query.distinct:
            pieces.append("DISTINCT")
        head, tail = ("", "") if query.limit is None else self.render_limit(query.limit)
        if head:
            pieces.append(head)
        select_parts = []
        for item in query.select_items:
            text = self.render_expression(item.expr)
            if item.alias:
                text = f"{text} AS {self.quote(item.alias)}"
            select_parts.append(text)
        pieces.append(", ".join(select_parts))
        pieces.append("FROM")
        pieces.append(self.quote(query.from_table))
        pieces.extend(self.render_join(edge) for edge in query.joins)
        if query.where is not None:
            pieces.append("WHERE")
            pieces.append(self.serialize_condition(query.where))
        if query.group_by:
            pieces.append("GROUP BY")
            pieces.append(", ".join(self.render_column(col) for col in query.group_by))
        if query.having is not None:
            pieces.append("HAVING")
            pieces.append(self.serialize_condition(query.having))
        if query.order_by:
            pieces.append("ORDER BY")
            order_parts = []
            for item in query.order_by:
                direction = " DESC" if item.descending else " ASC"
                order_parts.append(self.render_expression(item.expr) + direction)
            pieces.append(", ".join(order_parts))
        if tail:
            pieces.append(tail)
        return " ".join(pieces)

    def serialize_condition(self, cond: Condition, parenthesize: bool = False) -> str:
        """Serialize a condition tree."""
        if isinstance(cond, BinaryCondition):
            if isinstance(cond.right, Query):
                right = f"( {self.serialize(cond.right)} )"
            else:
                right = self.render_expression(cond.right)
            text = (
                f"{self.render_expression(cond.left)} "
                f"{self.render_operator(cond.op)} {right}"
            )
        elif isinstance(cond, InCondition):
            keyword = "NOT IN" if cond.negated else "IN"
            if cond.subquery is not None:
                inner = self.serialize(cond.subquery)
            else:
                inner = ", ".join(value.render() for value in cond.values)
            text = f"{self.render_expression(cond.expr)} {keyword} ( {inner} )"
        elif isinstance(cond, BetweenCondition):
            text = (
                f"{self.render_expression(cond.expr)} BETWEEN "
                f"{cond.low.render()} AND {cond.high.render()}"
            )
        elif isinstance(cond, LikeCondition):
            keyword = "NOT LIKE" if cond.negated else "LIKE"
            text = f"{self.render_expression(cond.expr)} {keyword} {cond.pattern.render()}"
        elif isinstance(cond, NullCondition):
            keyword = "IS NOT NULL" if cond.negated else "IS NULL"
            text = f"{self.render_expression(cond.expr)} {keyword}"
        elif isinstance(cond, CompoundCondition):
            joiner = f" {cond.op.upper()} "
            text = joiner.join(
                self.serialize_condition(
                    sub, parenthesize=isinstance(sub, CompoundCondition)
                )
                for sub in cond.conditions
            )
            if parenthesize:
                text = f"( {text} )"
            return text
        else:
            raise TypeError(f"not a condition node: {cond!r}")
        return text

    # -- parsing direction --------------------------------------------------

    def normalize_source(self, sql: str) -> str:
        """Rewrite dialect surface syntax into the canonical grammar.

        The base grammar already absorbs most dialect variation at the
        lexer/parser level (quoted identifiers are unwrapped, ``<>`` is
        normalized to ``!=``); only the row-limit clause needs an active
        rewrite here.
        """
        if self.limit_style == "fetch_first":
            return _rewrite_fetch_first(sql)
        if self.limit_style == "top":
            return _rewrite_top(sql)
        return sql

    # -- capability-driven construction -------------------------------------

    @classmethod
    def from_capabilities(cls, capabilities: object) -> "DialectEmitter":
        """Build an emitter from a backend's capability flags.

        ``capabilities`` is duck-typed (any object with ``dialect``,
        ``identifier_quote``, ``limit_style`` and ``inequality``
        attributes) so :mod:`repro.sqlgen` never imports the database
        layer.
        """
        emitter = cls()
        emitter.name = getattr(capabilities, "dialect", cls.name)
        emitter.identifier_quote = getattr(
            capabilities, "identifier_quote", cls.identifier_quote
        )
        emitter.limit_style = getattr(capabilities, "limit_style", cls.limit_style)
        emitter.inequality = getattr(capabilities, "inequality", cls.inequality)
        if emitter.limit_style not in LIMIT_STYLES:
            raise ValueError(f"unknown limit_style: {emitter.limit_style!r}")
        return emitter


# ---------------------------------------------------------------------------
# Token-based source rewrites
# ---------------------------------------------------------------------------

_COMPOUND_OPS = frozenset({"union", "intersect", "except"})


def _tokens_to_text(tokens: Iterable[SQLToken]) -> str:
    """Re-render a token stream as parseable (not pretty) SQL text."""
    return " ".join(tok.value for tok in tokens if tok.kind is not TokenKind.EOF)


def _rewrite_fetch_first(sql: str) -> str:
    """Rewrite ``FETCH FIRST n ROWS ONLY`` clauses to ``LIMIT n``."""
    tokens = tokenize_sql(sql)
    out: list[SQLToken] = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if (
            tok.kind is TokenKind.IDENTIFIER
            and tok.lower() == "fetch"
            and i + 4 < len(tokens)
            and tokens[i + 1].lower() == "first"
            and tokens[i + 2].kind is TokenKind.NUMBER
            and tokens[i + 3].lower() in ("row", "rows")
            and tokens[i + 4].lower() == "only"
        ):
            out.append(SQLToken(TokenKind.KEYWORD, "LIMIT", tok.position))
            out.append(tokens[i + 2])
            i += 5
            continue
        out.append(tok)
        i += 1
    return _tokens_to_text(out)


def _rewrite_top(sql: str) -> str:
    """Rewrite ``SELECT TOP n ...`` heads to trailing ``LIMIT n`` clauses.

    The limit floats to the end of the enclosing simple-query segment
    (before the next compound operator at the same nesting depth, or a
    closing paren / end of input for subqueries).
    """
    tokens = tokenize_sql(sql)
    out: list[SQLToken] = []
    # Stack of pending limits, one slot per open paren depth.
    pending: list[Optional[SQLToken]] = [None]

    def flush(position: int) -> None:
        limit = pending[-1]
        if limit is not None:
            out.append(SQLToken(TokenKind.KEYWORD, "LIMIT", position))
            out.append(limit)
            pending[-1] = None

    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.kind is TokenKind.EOF:
            flush(tok.position)
            i += 1
            continue
        if tok.kind is TokenKind.PUNCT and tok.value == "(":
            pending.append(None)
            out.append(tok)
            i += 1
            continue
        if tok.kind is TokenKind.PUNCT and tok.value == ")":
            flush(tok.position)
            if len(pending) > 1:
                pending.pop()
            out.append(tok)
            i += 1
            continue
        if tok.kind is TokenKind.KEYWORD and tok.lower() in _COMPOUND_OPS:
            flush(tok.position)
            out.append(tok)
            i += 1
            continue
        if (
            tok.kind is TokenKind.IDENTIFIER
            and tok.lower() == "top"
            and out
            and out[-1].kind is TokenKind.KEYWORD
            and out[-1].lower() in ("select", "distinct")
            and i + 1 < len(tokens)
            and tokens[i + 1].kind is TokenKind.NUMBER
        ):
            pending[-1] = tokens[i + 1]
            i += 2
            continue
        out.append(tok)
        i += 1
    return _tokens_to_text(out)
