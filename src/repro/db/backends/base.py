"""Execution backend protocol, capability flags, and the backend registry.

An :class:`ExecutionBackend` is anything that can run SQL for one
schema: the real SQLite engine, the in-memory columnar executor, or a
future networked engine.  Every layer above the database — engine
stages, analyzer, eval harness, serving — programs against this
protocol plus the backend's :class:`BackendCapabilities`, never against
``sqlite3`` directly (enforced by staticcheck rule ARCH007).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, Protocol, runtime_checkable

from repro.errors import ExecutionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.schema import Schema
    from repro.reliability.deadline import Deadline

Row = tuple[Any, ...]


@dataclass(frozen=True)
class BackendCapabilities:
    """Dialect and semantic quirks of one execution backend.

    The syntactic flags (``identifier_quote``, ``limit_style``,
    ``inequality``) drive the dialect emitters in
    :mod:`repro.sqlgen.dialects`; the semantic flags describe runtime
    behaviour the analyzer and executors must honour.
    """

    #: Dialect name understood by :func:`repro.sqlgen.dialects.emitter_for`.
    dialect: str = "sqlite"
    #: Quote character for identifiers ("" = bare identifiers).
    identifier_quote: str = ""
    #: Row-limit spelling: "limit" | "fetch_first" | "top".
    limit_style: str = "limit"
    #: Not-equal operator spelling.
    inequality: str = "!="
    #: String concatenation operator.
    string_concat: str = "||"
    #: True when ``/`` on integers yields a real (ANSI) rather than the
    #: truncated integer quotient (SQLite).
    true_division: bool = False
    #: Date-part extraction idiom ("strftime" vs "extract").
    date_function: str = "strftime"
    #: True when LIKE compares case-sensitively (SQLite: ASCII-insensitive).
    like_case_sensitive: bool = False


#: Capabilities of the reference SQLite backend.
SQLITE_CAPABILITIES = BackendCapabilities(
    dialect="sqlite",
    identifier_quote="",
    limit_style="limit",
    inequality="!=",
    string_concat="||",
    true_division=False,
    date_function="strftime",
    like_case_sensitive=False,
)


@runtime_checkable
class ExecutionBackend(Protocol):
    """Runtime-checkable protocol every execution backend satisfies.

    Attributes are data members (``isinstance`` verifies presence, not
    types): ``schema`` (the :class:`~repro.db.schema.Schema`), ``name``
    (registry name), ``dialect`` (the SQL dialect the backend parses and
    the emitters must produce for it) and ``capabilities``.
    """

    schema: "Schema"
    name: str
    dialect: str
    capabilities: BackendCapabilities

    def execute(
        self,
        sql: str,
        max_rows: int = 100_000,
        deadline: "Deadline | None" = None,
    ) -> list[Row]:
        """Run ``sql``; raise :class:`~repro.errors.ExecutionError` on failure."""
        ...

    def is_executable(self, sql: str, deadline: "Deadline | None" = None) -> bool:
        """True when ``sql`` runs without error within the deadline."""
        ...

    def row_count(self, table_name: str) -> int:
        ...

    def representative_values(
        self, table_name: str, column_name: str, k: int = 2
    ) -> list[Any]:
        ...

    def distinct_values(
        self, table_name: str, column_name: str, limit: int = 10_000
    ) -> list[Any]:
        ...

    def table_rows(self, table_name: str) -> list[Row]:
        ...

    def all_rows(self) -> dict[str, list[Row]]:
        ...

    def close(self) -> None:
        ...


class ValueAccess:
    """The backend methods that follow from a backend's own ``execute``,
    ``row_count``, ``distinct_values`` and ``table_rows``: one
    implementation for every backend."""

    def is_executable(self, sql: str, deadline: "Deadline | None" = None) -> bool:
        """True when ``sql`` runs without error on this database.

        A deadline expiry counts as "not executable": the query may be
        valid SQL, but it cannot answer within the serving budget.
        """
        try:
            self.execute(sql, max_rows=1, deadline=deadline)
            return True
        except ExecutionError:  # includes DeadlineExceededError
            return False

    def representative_values(
        self, table_name: str, column_name: str, k: int = 2
    ) -> list[Any]:
        """First ``k`` distinct non-null values of a column (§6.3 (3)),
        the paper's probe ``SELECT DISTINCT {COLUMN} FROM {TABLE} WHERE
        {COLUMN} IS NOT NULL LIMIT {k}``."""
        return self.distinct_values(table_name, column_name, limit=int(k))

    def all_rows(self) -> dict[str, list[Row]]:
        """Complete content snapshot keyed by table name."""
        return {table.name: self.table_rows(table.name) for table in self.schema.tables}

    def total_value_count(self) -> int:
        """Total number of stored cells across all tables."""
        total = 0
        for table in self.schema.tables:
            total += self.row_count(table.name) * len(table.columns)
        return total

    def iter_text_values(self) -> Iterator[tuple[str, str, str]]:
        """Yield ``(table, column, value)`` for every distinct text value.

        This is the stream the BM25 value index is built from.
        """
        for table in self.schema.tables:
            for column in table.columns:
                if column.type.upper() not in ("TEXT", "DATE"):
                    continue
                for value in self.distinct_values(table.name, column.name):
                    if isinstance(value, str) and value:
                        yield table.name, column.name, value


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: Factories keyed by backend name.  Each takes the reference SQLite
#: ``Database`` (the form every bundled dataset ships in) and returns a
#: backend exposing the same schema and content.
_BACKENDS: dict[str, Callable[[Any], ExecutionBackend]] = {}

#: Dialect spoken by each registered backend (parallel to ``_BACKENDS``).
_BACKEND_DIALECTS: dict[str, str] = {}


def register_backend(
    name: str,
    factory: Callable[[Any], ExecutionBackend],
    dialect: str = "sqlite",
) -> None:
    """Register ``factory`` under ``name`` (last registration wins).

    ``dialect`` is the SQL dialect instances of the backend parse; it
    lets :func:`backend_for_dialect` map a user-facing ``--dialect``
    flag to the backend that executes it.
    """
    _BACKENDS[name] = factory
    _BACKEND_DIALECTS[name] = dialect


def available_backends() -> tuple[str, ...]:
    """Registered backend names in registration order."""
    return tuple(_BACKENDS)


def backend_for_dialect(dialect: str) -> str:
    """The registered backend name that executes ``dialect``.

    When several backends share a dialect the first registered wins.
    """
    for name, spoken in _BACKEND_DIALECTS.items():
        if spoken == dialect:
            return name
    known = ", ".join(sorted(set(_BACKEND_DIALECTS.values())))
    raise ExecutionError(
        f"no execution backend speaks dialect {dialect!r} (known: {known})"
    )


def create_backend(name: str, database: Any) -> ExecutionBackend:
    """Instantiate backend ``name`` over ``database``'s schema and content.

    ``database`` is the reference SQLite :class:`~repro.db.backends.
    sqlite.Database`; the ``"sqlite"`` factory returns it unchanged,
    other factories snapshot its content into their own storage.
    """
    try:
        factory = _BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(_BACKENDS))
        raise ExecutionError(
            f"unknown execution backend {name!r} (known: {known})"
        ) from None
    return factory(database)


def backend_dialect(database: Any) -> str:
    """The dialect a database object speaks (``"sqlite"`` for legacy objects).

    Accepts anything: fault-injection wrappers and test doubles that
    predate the backend protocol simply default to the reference
    dialect.
    """
    return getattr(database, "dialect", "sqlite")
