"""Tests for the SQL toolkit: lexer, parser, serializer, skeletons."""

import pytest
from hypothesis import given, settings

from repro.errors import SQLSyntaxError
from repro.sqlgen import (
    ColumnRef,
    Literal,
    parse_sql,
    serialize,
    tokenize_sql,
)
from repro.sqlgen.ast import normalize_number
from repro.sqlgen.lexer import TokenKind
from repro.sqlgen.skeleton import extract_skeleton, try_extract_skeleton

from tests.strategies import bank_queries, queries


class TestLexer:
    def test_keywords_and_identifiers(self):
        tokens = tokenize_sql("SELECT name FROM users")
        kinds = [token.kind for token in tokens]
        assert kinds == [
            TokenKind.KEYWORD,
            TokenKind.IDENTIFIER,
            TokenKind.KEYWORD,
            TokenKind.IDENTIFIER,
            TokenKind.EOF,
        ]

    def test_string_with_escaped_quote(self):
        tokens = tokenize_sql("SELECT 'it''s'")
        assert tokens[1].kind is TokenKind.STRING
        assert tokens[1].value == "'it''s'"

    def test_quoted_identifier(self):
        tokens = tokenize_sql('SELECT "first name" FROM t')
        assert tokens[1].kind is TokenKind.IDENTIFIER
        assert tokens[1].value == "first name"

    def test_numbers(self):
        tokens = tokenize_sql("SELECT 3.14, 42")
        values = [t.value for t in tokens if t.kind is TokenKind.NUMBER]
        assert values == ["3.14", "42"]

    def test_line_comment_skipped(self):
        tokens = tokenize_sql("SELECT 1 -- trailing comment\n")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "1"]

    def test_unterminated_string_raises(self):
        with pytest.raises(SQLSyntaxError):
            tokenize_sql("SELECT 'oops")

    def test_stray_character_raises(self):
        with pytest.raises(SQLSyntaxError):
            tokenize_sql("SELECT @x")

    def test_operators(self):
        tokens = tokenize_sql("a <= b <> c != d")
        ops = [t.value for t in tokens if t.kind is TokenKind.OPERATOR]
        assert ops == ["<=", "<>", "!="]


class TestParser:
    def test_simple_select(self):
        query = parse_sql("SELECT name FROM singer")
        assert query.from_table == "singer"
        assert str(query.select_items[0].expr) == "name"

    def test_select_star(self):
        query = parse_sql("SELECT * FROM t")
        assert query.select_items[0].expr == ColumnRef(table="", column="*")

    def test_aliases_resolved(self):
        query = parse_sql(
            "SELECT T1.name FROM reviewer AS T1 JOIN rating AS T2 ON T1.rid = T2.rid"
        )
        assert query.select_items[0].expr == ColumnRef(table="reviewer", column="name")
        assert query.joins[0].table == "rating"
        assert query.joins[0].left == ColumnRef(table="reviewer", column="rid")

    def test_bare_alias(self):
        query = parse_sql("SELECT a.x FROM widgets a")
        assert query.select_items[0].expr == ColumnRef(table="widgets", column="x")

    def test_where_tree(self):
        query = parse_sql("SELECT x FROM t WHERE a = 1 AND b = 2 OR c = 3")
        # OR binds loosest: OR(AND(a,b), c)
        assert query.where.op == "OR"
        assert query.where.conditions[0].op == "AND"

    def test_in_subquery(self):
        query = parse_sql("SELECT x FROM t WHERE y IN (SELECT z FROM u)")
        assert query.where.subquery is not None
        assert query.where.subquery.from_table == "u"

    def test_not_in_list(self):
        query = parse_sql("SELECT x FROM t WHERE y NOT IN (1, 2, 3)")
        assert query.where.negated
        assert [lit.value for lit in query.where.values] == [1, 2, 3]

    def test_between(self):
        query = parse_sql("SELECT x FROM t WHERE y BETWEEN 1 AND 5")
        assert query.where.low == Literal(1)
        assert query.where.high == Literal(5)

    def test_is_not_null(self):
        query = parse_sql("SELECT x FROM t WHERE y IS NOT NULL")
        assert query.where.negated

    def test_group_having_order_limit(self):
        query = parse_sql(
            "SELECT city, COUNT(*) FROM shops GROUP BY city "
            "HAVING COUNT(*) > 2 ORDER BY COUNT(*) DESC LIMIT 5"
        )
        assert query.group_by[0].column == "city"
        assert query.having is not None
        assert query.order_by[0].descending
        assert query.limit == 5

    def test_union(self):
        query = parse_sql("SELECT a FROM t UNION SELECT b FROM u")
        assert query.compound_op == "UNION"
        assert query.compound_query.from_table == "u"

    def test_scalar_subquery_comparison(self):
        query = parse_sql("SELECT x FROM t WHERE y > (SELECT AVG(y) FROM t)")
        from repro.sqlgen.ast import Query as QueryNode
        assert isinstance(query.where.right, QueryNode)

    def test_negative_number(self):
        query = parse_sql("SELECT x FROM t WHERE y = -5")
        assert query.where.right == Literal(-5)

    def test_distinct_aggregation(self):
        query = parse_sql("SELECT COUNT(DISTINCT name) FROM t")
        assert query.select_items[0].expr.distinct

    def test_trailing_garbage_raises(self):
        with pytest.raises(SQLSyntaxError):
            parse_sql("SELECT x FROM t extra junk here ,")

    def test_missing_from_raises(self):
        with pytest.raises(SQLSyntaxError):
            parse_sql("SELECT x WHERE y = 1")

    def test_empty_string_raises(self):
        with pytest.raises(SQLSyntaxError):
            parse_sql("")

    def test_trailing_semicolon_ok(self):
        assert parse_sql("SELECT x FROM t;").from_table == "t"


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(queries())
    def test_parse_serialize_round_trip(self, query):
        assert parse_sql(serialize(query)) == query

    @settings(max_examples=60, deadline=None)
    @given(queries())
    def test_serialize_is_stable(self, query):
        once = serialize(query)
        assert serialize(parse_sql(once)) == once

    @settings(max_examples=100, deadline=None)
    @given(queries())
    def test_canonicalize_idempotent(self, query):
        from repro.analysis import canonical_key, canonicalize

        canonical = canonicalize(query)
        # canonicalization is a fixpoint and its output reparses to itself,
        # so canonical_key is stable under serialize -> parse round-trips.
        assert canonicalize(canonical) == canonical
        assert parse_sql(serialize(canonical)) == canonical
        assert canonical_key(parse_sql(serialize(query))) == canonical_key(query)

    @settings(max_examples=80, deadline=None)
    @given(bank_queries())
    def test_canonicalization_preserves_execution(self, query):
        from repro.analysis import canonicalize
        from repro.eval.execution import execution_match_outcome

        database = _bank_db()
        original = serialize(query)
        canonical = serialize(canonicalize(query))
        outcome = execution_match_outcome(database, canonical, original)
        assert outcome.failure is None, f"{original!r}: {outcome.detail}"
        assert outcome.matched, f"{original!r} != {canonical!r}"


_BANK_DB = None


def _bank_db():
    """Module-level singleton so hypothesis examples share one database."""
    global _BANK_DB
    if _BANK_DB is None:
        from tests.fixtures import bank_database

        _BANK_DB = bank_database()
    return _BANK_DB


class TestNumberNormalization:
    def test_negative_zero_is_zero(self):
        assert normalize_number(-0.0) == "0"
        assert Literal(-0.0).render() == "0"

    def test_integral_float_renders_as_int(self):
        assert normalize_number(3.0) == "3"
        assert normalize_number(-17.0) == "-17"

    def test_small_float_has_no_exponent(self):
        # repr(1e-05) is '1e-05'; the lexer has no exponent form, so the
        # rendered literal must expand to plain decimal notation.
        assert normalize_number(1e-05) == "0.00001"
        assert normalize_number(2.5e-03) == "0.0025"

    def test_plain_float_unchanged(self):
        assert normalize_number(2.5) == "2.5"

    def test_bool_renders_as_int(self):
        assert normalize_number(True) == "1"

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            normalize_number(float("inf"))
        with pytest.raises(ValueError):
            normalize_number(float("nan"))

    def test_rendered_float_reparses(self):
        sql = f"SELECT a FROM t WHERE x = {normalize_number(1e-05)}"
        query = parse_sql(sql)
        assert serialize(query) == sql


class TestSkeleton:
    def test_masks_schema_and_values(self):
        skeleton = extract_skeleton(
            "SELECT name FROM singer WHERE birth_year = 1948"
        )
        assert skeleton == "SELECT _ FROM _ WHERE _ = value"

    def test_keeps_aggregations(self):
        skeleton = extract_skeleton("SELECT COUNT(*) FROM t GROUP BY c")
        assert "COUNT(*)" in skeleton
        assert "GROUP BY _" in skeleton

    def test_same_template_same_skeleton(self):
        first = extract_skeleton("SELECT name FROM singer WHERE age > 30")
        second = extract_skeleton("SELECT title FROM film WHERE year > 1999")
        assert first == second

    def test_try_extract_none_on_garbage(self):
        assert try_extract_skeleton("not sql at all !!!") is None

    @settings(max_examples=60, deadline=None)
    @given(queries())
    def test_skeleton_total_on_subset(self, query):
        skeleton = extract_skeleton(serialize(query))
        assert "SELECT" in skeleton
