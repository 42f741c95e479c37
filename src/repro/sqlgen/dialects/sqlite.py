"""Canonical SQLite dialect emitter.

This is the reference dialect: bare identifiers, ``LIMIT n`` row limits
and ``!=`` inequality.  Its output is the canonical SQL text
(``repro.sqlgen.serialize``) that every golden file, lint span and
equivalence canonical key in the repository is pinned against.
"""

from __future__ import annotations

from repro.sqlgen.dialects.base import DialectEmitter


class SQLiteEmitter(DialectEmitter):
    """Emit canonical SQLite text (the repository's reference dialect)."""

    name = "sqlite"
    identifier_quote = ""
    limit_style = "limit"
    inequality = "!="


#: Shared stateless instance: the canonical serializer.
SQLITE_EMITTER = SQLiteEmitter()
