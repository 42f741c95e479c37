"""The reference SQLite execution backend.

The paper hosts all benchmark databases in SQLite (§9.1.4); we do the
same.  A :class:`Database` couples a live ``sqlite3`` connection with
the :class:`~repro.db.schema.Schema` (which carries comments and keys
that SQLite itself cannot store).  This module is the only place in the
repository allowed to import ``sqlite3`` (staticcheck rule ARCH007);
everything else reaches execution through the
:class:`~repro.db.backends.base.ExecutionBackend` protocol.
"""

from __future__ import annotations

import sqlite3
from typing import Any, Callable

from repro.errors import DeadlineExceededError, ExecutionError, SchemaError
from repro.db.backends.base import (
    SQLITE_CAPABILITIES,
    BackendCapabilities,
    Row,
    ValueAccess,
)
from repro.db.schema import Schema
from repro.reliability.deadline import Deadline, ExecutionGuard

#: Abort queries after this many SQLite VM steps (guards runaway joins).
_PROGRESS_STEPS = 20_000_000

#: Polling cadence used when an outer guard must stay responsive while a
#: nested statement runs under the VM-step budget.
_CHAINED_POLL_STEPS = 5_000


class _StepBudget:
    """Progress handler bounding total VM steps, chaining an outer guard.

    When a deadline guard is already installed (an outer frame), the
    nested statement still polls it between step-budget checks, so a
    wall-clock expiry interrupts nested queries too.
    """

    def __init__(self, budget: int, poll: int, outer=None):
        self.remaining = budget
        self.poll = poll
        self.outer = outer

    def __call__(self) -> int:
        self.remaining -= self.poll
        if self.outer is not None and self.outer():
            return 1
        return 1 if self.remaining <= 0 else 0


class Database(ValueAccess):
    """A schema plus a populated SQLite connection.

    Build one with :meth:`from_schema`; the connection is in-memory by
    default so that databases are cheap and isolated per experiment.
    Registered as the ``"sqlite"`` :class:`~repro.db.backends.base.
    ExecutionBackend` — the reference backend every other dialect's
    results are conformance-checked against.
    """

    name: str = "sqlite"
    dialect: str = "sqlite"
    capabilities: BackendCapabilities = SQLITE_CAPABILITIES

    def __init__(self, schema: Schema, connection: sqlite3.Connection):
        self.schema = schema
        self._conn = connection
        self._conn.execute("PRAGMA foreign_keys = OFF")
        # sqlite3 cannot report the currently installed progress handler,
        # so nesting is tracked here: each executing frame pushes its
        # handler and pops back to the previous one, which is what lets
        # an outer deadline guard survive nested execute() calls.
        self._handler_stack: list[tuple[Callable[[], int] | None, int]] = []

    # -- progress-handler stack ---------------------------------------------

    def _push_progress_handler(self, callback: Callable[[], int] | None, steps: int) -> None:
        """Install ``callback`` while remembering the current handler."""
        self._handler_stack.append((callback, steps))
        self._conn.set_progress_handler(callback, steps)

    def _pop_progress_handler(self) -> None:
        """Restore the handler that was active before the last push."""
        if not self._handler_stack:
            self._conn.set_progress_handler(None, 0)
            return
        self._handler_stack.pop()
        if self._handler_stack:
            callback, steps = self._handler_stack[-1]
            self._conn.set_progress_handler(callback, steps)
        else:
            self._conn.set_progress_handler(None, 0)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_schema(
        cls,
        schema: Schema,
        rows: dict[str, list[Row]] | None = None,
        path: str = ":memory:",
    ) -> "Database":
        """Create a SQLite database for ``schema`` and load ``rows``.

        ``rows`` maps table names to lists of value tuples ordered like
        the table's columns.  Missing tables are created empty.
        """
        # check_same_thread=False lets a host that calls Server.step
        # from its own threads execute against a connection opened on
        # another one; the server serializes each database's batches
        # behind a per-db lock, so the connection is never used
        # concurrently.
        connection = sqlite3.connect(path, check_same_thread=False)
        database = cls(schema, connection)
        for table in schema.tables:
            column_defs = []
            for column in table.columns:
                definition = f'"{column.name}" {column.storage_type}'
                if column.is_primary:
                    definition += " PRIMARY KEY"
                column_defs.append(definition)
            ddl = f'CREATE TABLE "{table.name}" ({", ".join(column_defs)})'
            connection.execute(ddl)
        if rows:
            database.insert_rows(rows)
        connection.commit()
        return database

    def insert_rows(self, rows: dict[str, list[Row]]) -> None:
        """Bulk-insert ``rows`` (table name -> tuples) into this database."""
        for table_name, table_rows in rows.items():
            if not self.schema.has_table(table_name):
                raise SchemaError(f"unknown table {table_name!r}")
            table = self.schema.table(table_name)
            placeholders = ", ".join("?" for _ in table.columns)
            statement = f'INSERT INTO "{table.name}" VALUES ({placeholders})'
            try:
                self._conn.executemany(statement, table_rows)
            except sqlite3.Error as exc:
                raise ExecutionError(
                    f"failed to insert into {table_name}: {exc}"
                ) from exc
        self._conn.commit()

    def clone_with_rows(self, rows: dict[str, list[Row]]) -> "Database":
        """Fresh database with the same schema but different content.

        Used to build the database variants behind test-suite accuracy.
        """
        return Database.from_schema(self.schema, rows)

    def close(self) -> None:
        self._conn.close()

    # -- execution ----------------------------------------------------------

    def execute(
        self, sql: str, max_rows: int = 100_000, deadline: Deadline | None = None
    ) -> list[Row]:
        """Run ``sql`` and return its rows.

        Raises :class:`ExecutionError` on any SQLite error (syntax,
        missing schema elements, interrupted query).  With a
        ``deadline``, the statement is additionally polled against the
        wall clock and aborted with :class:`DeadlineExceededError` —
        a subclass of :class:`ExecutionError` — once the budget is
        spent.
        """
        if deadline is not None:
            try:
                with ExecutionGuard(self, deadline):
                    cursor = self._conn.execute(sql)
                    return cursor.fetchmany(max_rows)
            except sqlite3.Error as exc:
                raise ExecutionError(f"{type(exc).__name__}: {exc}") from exc
        outer = self._handler_stack[-1][0] if self._handler_stack else None
        poll = _CHAINED_POLL_STEPS if outer is not None else _PROGRESS_STEPS
        self._push_progress_handler(_StepBudget(_PROGRESS_STEPS, poll, outer), poll)
        try:
            cursor = self._conn.execute(sql)
            return cursor.fetchmany(max_rows)
        except sqlite3.Error as exc:
            raise ExecutionError(f"{type(exc).__name__}: {exc}") from exc
        finally:
            self._pop_progress_handler()

    # -- value access -------------------------------------------------------

    def row_count(self, table_name: str) -> int:
        table = self.schema.table(table_name)
        rows = self.execute(f'SELECT COUNT(*) FROM "{table.name}"')
        return int(rows[0][0])

    def distinct_values(
        self, table_name: str, column_name: str, limit: int = 10_000
    ) -> list[Any]:
        """Distinct non-null values of a column, up to ``limit``."""
        table = self.schema.table(table_name)
        column = table.column(column_name)
        sql = (
            f'SELECT DISTINCT "{column.name}" FROM "{table.name}" '
            f'WHERE "{column.name}" IS NOT NULL LIMIT {int(limit)}'
        )
        return [row[0] for row in self.execute(sql)]

    def table_rows(self, table_name: str) -> list[Row]:
        """All rows of a table (for cloning / perturbation)."""
        table = self.schema.table(table_name)
        return self.execute(f'SELECT * FROM "{table.name}"')
