"""Diagnostic types and rule registry for the SQL semantic analyzer.

Every finding the analyzer emits is a :class:`Diagnostic` carrying a
stable rule code, a severity tier, a human-readable message and (when
the SQL source text is available) a character :class:`~repro.sqlgen.spans.Span`.

Severity tiers:

- ``ERROR`` — the query will either fail to execute or silently return
  wrong results (hallucinated schema, aggregate misuse, incompatible
  types).  Error-tier candidates are demoted by the beam gate and
  rejected from the augmentation pool.
- ``WARNING`` — suspicious but possibly intentional (a join that
  follows no declared PK/FK edge, SQL outside the parseable subset).
  Warnings never gate anything; they are reported for audits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from repro.sqlgen.spans import Span


class Severity(enum.IntEnum):
    """Diagnostic severity tier; higher is worse."""

    WARNING = 1
    ERROR = 2


# -- rule codes ---------------------------------------------------------------

#: A referenced table does not exist in the catalog.
UNKNOWN_TABLE = "unknown-table"
#: A referenced column does not exist in its (resolved) table.
UNKNOWN_COLUMN = "unknown-column"
#: A qualified reference names a table that is not in the FROM scope.
TABLE_NOT_IN_SCOPE = "table-not-in-scope"
#: An unqualified column exists in several tables of the FROM scope.
AMBIGUOUS_COLUMN = "ambiguous-column"
#: A comparison mixes a numeric column with a non-numeric value (or
#: vice versa), judged from declared types plus representative values.
TYPE_MISMATCH = "type-mismatch"
#: An aggregate function appears inside a WHERE predicate.
AGGREGATE_IN_WHERE = "aggregate-in-where"
#: A bare (non-aggregated) projected column is missing from GROUP BY.
UNGROUPED_COLUMN = "ungrouped-column"
#: Set-operation arms project different numbers of columns.
SET_OP_ARITY = "set-op-arity"
#: HAVING references a bare column that is neither grouped nor aggregated.
HAVING_SCOPE = "having-scope"
#: ORDER BY of a grouped query references an out-of-scope bare column.
ORDER_BY_SCOPE = "order-by-scope"
#: A join equality does not follow any declared PK/FK edge.
JOIN_NO_FK = "join-no-fk"
#: The SQL is outside the parseable subset; nothing could be checked.
PARSE_ERROR = "parse-error"
#: A LIKE pattern with letters on a backend whose LIKE is
#: case-sensitive — the match set may differ from SQLite's case-folded
#: semantics the gold sets assume.
DIALECT_CASE_FOLD = "dialect-case-fold"

#: Default severity per rule code, in reporting order.
RULE_SEVERITIES: dict[str, Severity] = {
    UNKNOWN_TABLE: Severity.ERROR,
    UNKNOWN_COLUMN: Severity.ERROR,
    TABLE_NOT_IN_SCOPE: Severity.ERROR,
    AMBIGUOUS_COLUMN: Severity.ERROR,
    TYPE_MISMATCH: Severity.ERROR,
    AGGREGATE_IN_WHERE: Severity.ERROR,
    UNGROUPED_COLUMN: Severity.ERROR,
    SET_OP_ARITY: Severity.ERROR,
    HAVING_SCOPE: Severity.ERROR,
    ORDER_BY_SCOPE: Severity.ERROR,
    JOIN_NO_FK: Severity.WARNING,
    PARSE_ERROR: Severity.WARNING,
    DIALECT_CASE_FOLD: Severity.WARNING,
}

#: All rule codes in reporting order.
RULE_CODES = tuple(RULE_SEVERITIES)


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding."""

    code: str
    severity: Severity
    message: str
    span: Span | None = None

    def render(self) -> str:
        where = f" @{self.span.start}:{self.span.end}" if self.span else ""
        return f"{self.severity.name.lower()}[{self.code}]{where}: {self.message}"


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    """True when any diagnostic is error-tier."""
    return any(d.severity is Severity.ERROR for d in diagnostics)

