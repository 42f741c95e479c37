"""SQL toolkit: lexer, AST, parser, serializer, skeletons, templates.

Everything the system needs to manipulate SQL as data — tokenizing
queries, parsing them into a typed AST, pretty-printing, and extracting skeletons/templates for the retrieval-based
parser and the SQL-to-question augmentation pipeline.
"""

from repro.sqlgen.lexer import SQLToken, TokenKind, tokenize_sql
from repro.sqlgen.ast import (
    Aggregation,
    BinaryCondition,
    ColumnRef,
    CompoundCondition,
    InCondition,
    JoinEdge,
    Literal,
    OrderItem,
    Query,
    SelectItem,
)
from repro.sqlgen.parser import parse_sql
from repro.sqlgen.dialects.sqlite import SQLITE_EMITTER
from repro.sqlgen.skeleton import extract_skeleton, skeleton_of_query
from repro.sqlgen.spans import Span, identifier_span

#: Canonical (SQLite) SQL text of a query.
serialize = SQLITE_EMITTER.serialize

__all__ = [
    "Aggregation",
    "BinaryCondition",
    "ColumnRef",
    "CompoundCondition",
    "InCondition",
    "JoinEdge",
    "Literal",
    "OrderItem",
    "Query",
    "SQLToken",
    "SelectItem",
    "Span",
    "TokenKind",
    "identifier_span",
    "extract_skeleton",
    "parse_sql",
    "serialize",
    "skeleton_of_query",
    "tokenize_sql",
]
