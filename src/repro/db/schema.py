"""Schema model: tables, columns, keys, and comments.

SQLite has no native column comments, so comments live here, alongside
the structural metadata, exactly as the paper assumes databases "usually
provide informative comments for ambiguous schema" (§6.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.errors import SchemaError
from repro.sqlgen.ast import identifier_key

#: Column types the synthetic databases use (SQLite affinity names).
VALID_TYPES = frozenset({"INTEGER", "REAL", "TEXT", "DATE"})


@dataclass(frozen=True)
class Column:
    """One column with its type, optional comment, and PK flag."""

    name: str
    type: str = "TEXT"
    comment: str = ""
    is_primary: bool = False

    def __post_init__(self) -> None:
        if self.type.upper() not in VALID_TYPES:
            raise SchemaError(f"unsupported column type {self.type!r} for {self.name!r}")

    @property
    def storage_type(self) -> str:
        """Backend-neutral storage type (DATE stored as TEXT).

        All registered execution backends store DATE values as ISO text,
        so declared-type-driven behaviour (affinity coercion, value
        sampling) stays identical across dialects.
        """
        return "TEXT" if self.type.upper() == "DATE" else self.type.upper()


@dataclass(frozen=True)
class Table:
    """One table with ordered columns and an optional comment."""

    name: str
    columns: tuple[Column, ...]
    comment: str = ""

    def __post_init__(self) -> None:
        if not self.columns:
            raise SchemaError(f"table {self.name!r} has no columns")
        seen: set[str] = set()
        for column in self.columns:
            key = identifier_key(column.name)
            if key in seen:
                raise SchemaError(f"duplicate column {column.name!r} in {self.name!r}")
            seen.add(key)

    @cached_property
    def _columns_by_key(self) -> dict[str, Column]:
        # Built on first lookup and stored in the instance ``__dict__``,
        # so it stays out of ``==``, ``hash`` and ``repr``.
        return {identifier_key(column.name): column for column in self.columns}

    def column(self, name: str) -> Column:
        """Look up a column by case-insensitive name."""
        column = self._columns_by_key.get(identifier_key(name))
        if column is None:
            raise SchemaError(f"no column {name!r} in table {self.name!r}")
        return column

    def has_column(self, name: str) -> bool:
        return identifier_key(name) in self._columns_by_key

    @property
    def primary_key(self) -> Column | None:
        for column in self.columns:
            if column.is_primary:
                return column
        return None


@dataclass(frozen=True)
class ForeignKey:
    """``src_table.src_column`` references ``dst_table.dst_column``."""

    src_table: str
    src_column: str
    dst_table: str
    dst_column: str

    def render(self) -> str:
        return (
            f"{self.src_table}.{self.src_column} = "
            f"{self.dst_table}.{self.dst_column}"
        )


@dataclass(frozen=True)
class Schema:
    """A complete database schema."""

    name: str
    tables: tuple[Table, ...]
    foreign_keys: tuple[ForeignKey, ...] = ()
    domain: str = ""

    def __post_init__(self) -> None:
        if not self.tables:
            raise SchemaError(f"schema {self.name!r} has no tables")
        if len(self._tables_by_key) != len(self.tables):
            raise SchemaError(f"duplicate table names in schema {self.name!r}")
        for fkey in self.foreign_keys:
            src = self.table(fkey.src_table)
            dst = self.table(fkey.dst_table)
            if not src.has_column(fkey.src_column):
                raise SchemaError(f"foreign key source missing: {fkey.render()}")
            if not dst.has_column(fkey.dst_column):
                raise SchemaError(f"foreign key target missing: {fkey.render()}")

    @cached_property
    def _tables_by_key(self) -> dict[str, Table]:
        # Stored in the instance ``__dict__`` like ``Table._columns_by_key``.
        return {identifier_key(table.name): table for table in self.tables}

    @cached_property
    def _join_edges(self) -> dict[tuple[str, str], ForeignKey]:
        # Both orientations of every FK pair; the first key in schema
        # order wins, as it did for the linear scan.
        edges: dict[tuple[str, str], ForeignKey] = {}
        for fkey in self.foreign_keys:
            src, dst = identifier_key(fkey.src_table), identifier_key(fkey.dst_table)
            edges.setdefault((src, dst), fkey)
            edges.setdefault((dst, src), fkey)
        return edges

    def table(self, name: str) -> Table:
        """Look up a table by case-insensitive name."""
        table = self._tables_by_key.get(identifier_key(name))
        if table is None:
            raise SchemaError(f"no table {name!r} in schema {self.name!r}")
        return table

    def has_table(self, name: str) -> bool:
        return identifier_key(name) in self._tables_by_key

    def column_keys(self) -> list[str]:
        """All ``table.column`` keys in schema order (lower-cased)."""
        keys: list[str] = []
        for table in self.tables:
            for column in table.columns:
                keys.append(f"{table.name.lower()}.{column.name.lower()}")
        return keys

    def foreign_keys_of(self, table_name: str) -> list[ForeignKey]:
        """Foreign keys touching ``table_name`` on either side."""
        key = identifier_key(table_name)
        return [
            fkey
            for fkey in self.foreign_keys
            if key in (identifier_key(fkey.src_table), identifier_key(fkey.dst_table))
        ]

    def join_edge(self, left_table: str, right_table: str) -> ForeignKey | None:
        """The FK connecting two tables, if any (either direction)."""
        return self._join_edges.get(
            (identifier_key(left_table), identifier_key(right_table))
        )

    def rename(self, name: str) -> "Schema":
        """Copy of this schema under a different name."""
        return Schema(
            name=name,
            tables=self.tables,
            foreign_keys=self.foreign_keys,
            domain=self.domain,
        )
