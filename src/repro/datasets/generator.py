"""Instantiate domain blueprints into populated SQLite databases.

Options cover the benchmark stress axes:

- ``ambiguous_naming`` — rename descriptive columns to cryptic
  abbreviations ("a2"-style, as in BIRD) while keeping the real meaning
  in the column comment;
- ``extra_columns`` — pad tables with distractor columns (wide tables);
- ``dirty_values`` — perturb the stored text values' surface form;
- ``rows_per_table`` — content scale (BIRD's databases are ~250x
  larger than Spider's).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field

from repro.db.backends.sqlite import Database
from repro.db.schema import Column, ForeignKey, Schema, Table
from repro.db.values import ValueGenerator, WORDS
from repro.datasets.blueprints import ColumnSpec, DomainBlueprint, TableSpec
from repro.errors import DatasetError
from repro.sqlgen.ast import identifier_key


@dataclass(frozen=True)
class GenerationOptions:
    """Knobs controlling how a blueprint becomes a database."""

    rows_per_table: int = 40
    ambiguous_naming: bool = False
    ambiguous_fraction: float = 0.5
    #: Fraction of renamed (cryptic) columns that keep an informative
    #: comment; the rest are undocumented, as in real dirty databases.
    comment_coverage: float = 1.0
    extra_columns: int = 0
    dirty_values: bool = False
    seed: int = 0


@dataclass
class GeneratedDatabase:
    """A populated database plus the semantic map questions rely on."""

    db_id: str
    database: Database
    blueprint: DomainBlueprint
    #: (table, actual column name) -> the originating spec.
    column_specs: dict[tuple[str, str], ColumnSpec] = field(default_factory=dict)
    #: actual column names that were renamed to cryptic abbreviations.
    ambiguous_columns: set[tuple[str, str]] = field(default_factory=set)

    @property
    def schema(self) -> Schema:
        return self.database.schema

    def spec_of(self, table: str, column: str) -> ColumnSpec:
        return self.column_specs[(table.lower(), column.lower())]

    def table_noun(self, table: str) -> str:
        for spec in self.blueprint.tables:
            if identifier_key(spec.name) == identifier_key(table):
                return spec.noun()
        return table.replace("_", " ") + "s"

    def readable_phrase(self, table: str, column: str) -> str:
        """The phrase questions use for a column (its real meaning)."""
        return self.spec_of(table, column).readable()

    def is_ambiguous(self, table: str, column: str) -> bool:
        return (table.lower(), column.lower()) in self.ambiguous_columns

    def columns_with_semantic(
        self, table: str, semantics: tuple[str, ...]
    ) -> list[str]:
        """Actual column names of ``table`` whose semantic is in ``semantics``."""
        out: list[str] = []
        for (tbl, col), spec in self.column_specs.items():
            if tbl == identifier_key(table) and spec.semantic in semantics:
                out.append(col)
        return sorted(out)


def _value_for(semantic: str, gen: ValueGenerator, pk_ranges: dict[str, int]):
    """Draw one value from the pool named by ``semantic``."""
    if semantic.startswith("fk:"):
        target = semantic.split(":", 1)[1]
        upper = pk_ranges.get(target, 1)
        return gen.integer(1, max(1, upper))
    producers = {
        "person_name": gen.person_name,
        "first_name": gen.first_name,
        "city": gen.city,
        "country": gen.country,
        "category": gen.category,
        "status": gen.category,
        "gender": gen.gender,
        "year": gen.year,
        "amount": gen.amount,
        "count": lambda: gen.integer(0, 5000),
        "small_count": lambda: gen.integer(0, 12),
        "score": lambda: round(gen.amount(0.0, 10.0), 2),
        "date": gen.date,
        "title": gen.title,
        "word": gen.word,
        "noise": gen.word,
        "code": gen.code,
        "email": gen.email,
        "flag": gen.boolean_flag,
        "text": gen.phrase,
    }
    try:
        return producers[semantic]()
    except KeyError:
        raise DatasetError(f"unknown column semantic {semantic!r}") from None


def _dirty(value, rng: random.Random):
    if not isinstance(value, str) or rng.random() > 0.25:
        return value
    style = rng.randrange(3)
    if style == 0:
        return value.upper()
    if style == 1:
        return f" {value}"
    return value.lower()


def _abbreviate(name: str, index: int) -> str:
    """Cryptic abbreviation of a column name, BIRD-style ("a2", "rotl")."""
    initials = "".join(part[0] for part in name.split("_") if part)
    return f"{initials or name[0]}{index}"


def instantiate_blueprint(
    blueprint: DomainBlueprint,
    db_id: str,
    options: GenerationOptions | None = None,
) -> GeneratedDatabase:
    """Materialize ``blueprint`` into a populated database."""
    options = options or GenerationOptions()
    rng = random.Random(f"gen:{options.seed}:{db_id}")
    # zlib.crc32 is stable across processes (unlike built-in hash()).
    gen = ValueGenerator(seed=zlib.crc32(f"{options.seed}:{db_id}".encode()))

    # Decide naming and extra distractor columns per table.
    column_specs: dict[tuple[str, str], ColumnSpec] = {}
    ambiguous: set[tuple[str, str]] = set()
    tables: list[Table] = []
    table_specs: list[tuple[TableSpec, list[tuple[str, ColumnSpec]]]] = []

    for table_spec in blueprint.tables:
        actual_columns: list[tuple[str, ColumnSpec]] = []
        for index, col_spec in enumerate(table_spec.columns):
            actual_name = col_spec.name
            is_key = col_spec.semantic == "pk" or col_spec.semantic.startswith("fk:")
            if (
                options.ambiguous_naming
                and not is_key
                and rng.random() < options.ambiguous_fraction
            ):
                actual_name = _abbreviate(col_spec.name, index)
                ambiguous.add((table_spec.name.lower(), actual_name.lower()))
            actual_columns.append((actual_name, col_spec))
        for extra_index in range(options.extra_columns):
            word_a = rng.choice(WORDS)
            word_b = rng.choice(["ref", "flag", "note", "aux", "tag"])
            extra_name = f"{word_a}_{word_b}{extra_index}"
            extra_spec = ColumnSpec(
                name=extra_name, type="TEXT", semantic="noise",
                phrase=extra_name.replace("_", " "),
            )
            actual_columns.append((extra_name, extra_spec))
        columns = []
        for actual_name, col_spec in actual_columns:
            comment = col_spec.comment
            if (table_spec.name.lower(), actual_name.lower()) in ambiguous:
                documented = rng.random() < options.comment_coverage
                comment = col_spec.readable() if documented else ""
            columns.append(
                Column(
                    name=actual_name,
                    type=col_spec.type,
                    comment=comment,
                    is_primary=col_spec.semantic == "pk",
                )
            )
            column_specs[(table_spec.name.lower(), actual_name.lower())] = col_spec
        tables.append(
            Table(name=table_spec.name, columns=tuple(columns), comment=table_spec.comment)
        )
        table_specs.append((table_spec, actual_columns))

    foreign_keys = tuple(
        ForeignKey(fk.src_table, fk.src_column, fk.dst_table, fk.dst_column)
        for fk in blueprint.foreign_keys
    )
    schema = Schema(
        name=db_id, tables=tuple(tables), foreign_keys=foreign_keys,
        domain=blueprint.domain,
    )

    # Populate rows; FK columns reference the 1..N primary-key range.
    pk_ranges = {spec.name: options.rows_per_table for spec, _ in table_specs}
    rows: dict[str, list[tuple]] = {}
    for (table_spec, actual_columns), table in zip(table_specs, tables):
        table_rows: list[tuple] = []
        for row_index in range(1, options.rows_per_table + 1):
            row: list = []
            for (actual_name, col_spec), column in zip(actual_columns, table.columns):
                if col_spec.semantic == "pk":
                    row.append(row_index)
                    continue
                value = _value_for(col_spec.semantic, gen, pk_ranges)
                if options.dirty_values:
                    value = _dirty(value, rng)
                row.append(value)
            table_rows.append(tuple(row))
        rows[table.name] = table_rows

    database = Database.from_schema(schema, rows)
    return GeneratedDatabase(
        db_id=db_id,
        database=database,
        blueprint=blueprint,
        column_specs=column_specs,
        ambiguous_columns=ambiguous,
    )
