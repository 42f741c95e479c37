"""SQL normalization for structural comparison.

Two queries that differ only in whitespace, keyword casing, quoting
style, or alias naming normalize to the same string, which makes exact
string comparison meaningful in tests and in the parser's candidate
deduplication.
"""

from __future__ import annotations

from repro.errors import SQLSyntaxError
from repro.sqlgen.parser import parse_sql
from repro.sqlgen.dialects.sqlite import SQLITE_EMITTER


def normalize_sql(sql: str) -> str:
    """Return the canonical serialization of ``sql``.

    Falls back to whitespace/case normalization when the query lies
    outside the parser's supported subset, so the function is total.
    """
    try:
        return SQLITE_EMITTER.serialize(parse_sql(sql)).lower()
    except SQLSyntaxError:
        return " ".join(sql.split()).rstrip(";").lower()


def same_structure(left: str, right: str) -> bool:
    """True when the two SQL strings normalize identically."""
    return normalize_sql(left) == normalize_sql(right)
