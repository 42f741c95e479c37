"""Schema catalog: the name/type/key universe the analyzer checks against.

A :class:`SchemaCatalog` is a read-optimized view of one database's
:class:`~repro.db.schema.Schema` — case-insensitive table/column lookup,
column types, PK flags, and the set of declared PK/FK join edges.  When
built from a live :class:`~repro.db.backends.sqlite.Database` it
additionally probes representative values (the same ``SELECT DISTINCT
… LIMIT k`` probe the prompt builder uses, §6.3) so that TEXT columns
which actually store numbers are not flagged for numeric comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.backends.sqlite import Database
from repro.db.schema import Schema
from repro.errors import ExecutionError

#: Declared types treated as numeric for comparison compatibility.
NUMERIC_TYPES = frozenset({"INTEGER", "REAL"})


@dataclass(frozen=True)
class CatalogColumn:
    """One column as the analyzer sees it."""

    table: str
    name: str
    type: str
    is_primary: bool = False
    #: True for TEXT/DATE columns whose sampled values all parse as
    #: numbers — numeric comparisons against them are legitimate.
    numeric_like: bool = False
    #: Distinct values observed by the representative-value probe
    #: (``SELECT DISTINCT … LIMIT k``); 0 means never probed.  When the
    #: probe returns fewer than ``k`` values that IS the true distinct
    #: count — the cardinality evidence the cost estimator runs on.
    n_distinct: int = 0

    def key(self) -> str:
        return f"{self.table.lower()}.{self.name.lower()}"

    @property
    def is_numeric(self) -> bool:
        return self.type.upper() in NUMERIC_TYPES or self.numeric_like


class SchemaCatalog:
    """Case-insensitive lookup structure over one schema."""

    def __init__(
        self,
        schema: Schema,
        columns: dict[str, dict[str, CatalogColumn]],
        table_rows: dict[str, int] | None = None,
        sample_k: int = 5,
    ):
        self.schema = schema
        #: lower table name -> lower column name -> CatalogColumn
        self._columns = columns
        #: lower table name -> row count (only when built from a live DB)
        self.table_rows: dict[str, int] = dict(table_rows or {})
        #: probe width used for representative values / distinct evidence
        self.sample_k = sample_k
        #: lower real table names
        self._tables = {table.name.lower(): table.name for table in schema.tables}
        #: unordered {src_key, dst_key} pairs of declared FK edges.
        self.fk_pairs: set[frozenset[str]] = {
            frozenset(
                {
                    f"{fk.src_table.lower()}.{fk.src_column.lower()}",
                    f"{fk.dst_table.lower()}.{fk.dst_column.lower()}",
                }
            )
            for fk in schema.foreign_keys
        }

    # -- construction --------------------------------------------------------

    @classmethod
    def from_schema(cls, schema: Schema) -> "SchemaCatalog":
        """Catalog from structural metadata only (no value probing)."""
        return cls(schema, _columns_of(schema, database=None))

    @classmethod
    def from_database(cls, database: Database, sample_k: int = 5) -> "SchemaCatalog":
        """Catalog enriched with representative-value type evidence."""
        return cls(
            database.schema,
            _columns_of(database.schema, database, sample_k),
            table_rows=_table_rows_of(database),
            sample_k=sample_k,
        )

    # -- lookup --------------------------------------------------------------

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_name(self, name: str) -> str:
        """Real casing of a table name."""
        return self._tables[name.lower()]

    def column(self, table: str, column: str) -> CatalogColumn | None:
        return self._columns.get(table.lower(), {}).get(column.lower())

    def columns_of(self, table: str) -> tuple[CatalogColumn, ...]:
        return tuple(self._columns.get(table.lower(), {}).values())

    def tables_with_column(
        self, column: str, scope: tuple[str, ...] | None = None
    ) -> list[str]:
        """Tables (from ``scope``, or anywhere) containing ``column``."""
        names = (
            [t.lower() for t in scope] if scope is not None else list(self._tables)
        )
        lowered = column.lower()
        return [name for name in names if lowered in self._columns.get(name, {})]

    def has_fk_edge(self, left_key: str, right_key: str) -> bool:
        """Is ``left = right`` a declared FK edge (either direction)?"""
        return frozenset({left_key.lower(), right_key.lower()}) in self.fk_pairs

    def distinct_estimate(self, column: CatalogColumn) -> int | None:
        """Estimated distinct-value count for ``column``.

        When the ``LIMIT k`` probe returned fewer than ``k`` values the
        observation is exhaustive and exact.  A saturated probe only
        proves ``>= k`` distinct values, so fall back to the classic
        half-the-rows guess.  ``None`` means no evidence at all.
        """
        if column.n_distinct <= 0:
            return None
        if column.n_distinct < self.sample_k:
            return column.n_distinct
        rows = self.table_rows.get(column.table.lower())
        if rows is None:
            return column.n_distinct
        return max(rows // 2, column.n_distinct)


def _columns_of(
    schema: Schema, database: Database | None, sample_k: int = 5
) -> dict[str, dict[str, CatalogColumn]]:
    columns: dict[str, dict[str, CatalogColumn]] = {}
    for table in schema.tables:
        per_table: dict[str, CatalogColumn] = {}
        for column in table.columns:
            numeric_like = False
            n_distinct = 0
            if database is not None:
                values = _probe_values(database, table.name, column.name, sample_k)
                n_distinct = len(values)
                if column.type.upper() not in NUMERIC_TYPES:
                    numeric_like = bool(values) and all(
                        _parses_as_number(value) for value in values
                    )
            per_table[column.name.lower()] = CatalogColumn(
                table=table.name,
                name=column.name,
                type=column.type.upper(),
                is_primary=column.is_primary,
                numeric_like=numeric_like,
                n_distinct=n_distinct,
            )
        columns[table.name.lower()] = per_table
    return columns


def _probe_values(
    database: Database, table: str, column: str, sample_k: int
) -> list[object]:
    try:
        return database.representative_values(table, column, k=sample_k)
    except ExecutionError:
        return []


def _table_rows_of(database: Database) -> dict[str, int]:
    rows: dict[str, int] = {}
    for table in database.schema.tables:
        try:
            rows[table.name.lower()] = database.row_count(table.name)
        except ExecutionError:
            continue
    return rows


def _parses_as_number(value: object) -> bool:
    if isinstance(value, bool):
        return False
    if isinstance(value, (int, float)):
        return True
    if isinstance(value, str):
        try:
            float(value)
        except ValueError:
            return False
        return True
    return False
