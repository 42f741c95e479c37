"""Tests for the database substrate."""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.db import Column, Database, ForeignKey, Schema, Table, ValueGenerator
from repro.errors import ExecutionError, SchemaError
from repro.sqlgen.ast import identifier_key

from tests.fixtures import bank_database, bank_schema


class TestSchemaModel:
    def test_lookup_case_insensitive(self):
        schema = bank_schema()
        assert schema.table("CLIENT").name == "client"
        assert schema.table("client").column("NAME").name == "name"

    def test_missing_table_raises(self):
        with pytest.raises(SchemaError):
            bank_schema().table("nope")

    def test_missing_column_raises(self):
        with pytest.raises(SchemaError):
            bank_schema().table("client").column("nope")

    def test_empty_table_rejected(self):
        with pytest.raises(SchemaError):
            Table(name="t", columns=())

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Table(name="t", columns=(Column("a"), Column("A")))

    def test_duplicate_tables_rejected(self):
        table = Table(name="t", columns=(Column("a"),))
        with pytest.raises(SchemaError):
            Schema(name="s", tables=(table, table))

    def test_dangling_foreign_key_rejected(self):
        table = Table(name="t", columns=(Column("a"),))
        with pytest.raises(SchemaError):
            Schema(
                name="s",
                tables=(table,),
                foreign_keys=(ForeignKey("t", "a", "t", "missing"),),
            )

    def test_invalid_column_type_rejected(self):
        with pytest.raises(SchemaError):
            Column("x", "BLOB")

    def test_column_keys_order(self):
        keys = bank_schema().column_keys()
        assert keys[0] == "client.client_id"
        assert "loan.status" in keys

    def test_join_edge_lookup(self):
        schema = bank_schema()
        edge = schema.join_edge("client", "account")
        assert edge is not None
        assert edge.render() == "account.client_id = client.client_id"
        assert schema.join_edge("client", "loan") is None

    def test_primary_key_property(self):
        assert bank_schema().table("client").primary_key.name == "client_id"

    def test_rename_copies(self):
        renamed = bank_schema().rename("other")
        assert renamed.name == "other"
        assert renamed.tables == bank_schema().tables


def _multi_edge_schema() -> Schema:
    """Self-referencing and repeated FKs, in both orientations, mixed case."""
    return Schema(
        name="Edges",
        tables=(
            Table(
                "Emp",
                (Column("id", "INTEGER", is_primary=True), Column("Boss_ID", "INTEGER")),
            ),
            Table(
                "dept",
                (Column("ID", "INTEGER", is_primary=True), Column("head", "INTEGER")),
            ),
        ),
        foreign_keys=(
            ForeignKey("emp", "boss_id", "EMP", "id"),
            ForeignKey("Dept", "head", "emp", "ID"),
            ForeignKey("emp", "id", "dept", "head"),
        ),
    )


#: Schemas the index-vs-scan property runs over.
_INDEXED_SCHEMAS = (bank_schema(), _multi_edge_schema())


def _scan_table(schema: Schema, name: str) -> Table | None:
    for table in schema.tables:
        if identifier_key(table.name) == identifier_key(name):
            return table
    return None


def _scan_column(table: Table, name: str) -> Column | None:
    for column in table.columns:
        if identifier_key(column.name) == identifier_key(name):
            return column
    return None


def _scan_join_edge(schema: Schema, left: str, right: str) -> ForeignKey | None:
    wanted = (identifier_key(left), identifier_key(right))
    for fkey in schema.foreign_keys:
        pair = (identifier_key(fkey.src_table), identifier_key(fkey.dst_table))
        if pair in (wanted, wanted[::-1]):
            return fkey
    return None


def _case_variant(data, name: str) -> str:
    flips = data.draw(st.lists(st.booleans(), min_size=len(name), max_size=len(name)))
    return "".join(ch.upper() if up else ch.lower() for ch, up in zip(name, flips))


class TestSchemaIndex:
    """The dict-backed lookups agree with a linear scan on every name."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), schema=st.sampled_from(_INDEXED_SCHEMAS))
    def test_lookups_match_linear_scan(self, data, schema):
        for table in schema.tables:
            name = _case_variant(data, table.name)
            assert schema.has_table(name)
            assert schema.table(name) is _scan_table(schema, name)
            for column in table.columns:
                col_name = _case_variant(data, column.name)
                assert table.has_column(col_name)
                assert table.column(col_name) is _scan_column(table, col_name)
            missing = name + "_x"
            assert not table.has_column(missing)
            with pytest.raises(SchemaError) as info:
                table.column(missing)
            assert str(info.value) == f"no column {missing!r} in table {table.name!r}"
            for other in schema.tables:
                right = _case_variant(data, other.name)
                assert schema.join_edge(name, right) is _scan_join_edge(
                    schema, name, right
                )
            assert schema.join_edge(name, "nowhere") is None
        missing = _case_variant(data, schema.tables[0].name) + "_x"
        assert not schema.has_table(missing)
        with pytest.raises(SchemaError) as info:
            schema.table(missing)
        assert str(info.value) == f"no table {missing!r} in schema {schema.name!r}"

    @pytest.mark.parametrize("build", [bank_schema, _multi_edge_schema])
    def test_index_is_invisible_to_value_semantics(self, build):
        plain, indexed = build(), build()
        for table in indexed.tables:
            for column in table.columns:
                table.column(column.name.upper())
            for other in indexed.tables:
                indexed.join_edge(table.name, other.name)
        assert "_join_edges" not in vars(plain)
        assert "_join_edges" in vars(indexed)
        assert all("_columns_by_key" in vars(table) for table in indexed.tables)
        assert indexed == plain
        assert hash(indexed) == hash(plain)  # staticcheck: disable=DET001 (two hashes taken in one process, compared, never kept)
        assert repr(indexed) == repr(plain)
        assert dataclasses.replace(indexed) == plain
        assert hash(dataclasses.replace(indexed.tables[0])) == hash(plain.tables[0])  # staticcheck: disable=DET001 (two hashes taken in one process, compared, never kept)
        restored = pickle.loads(pickle.dumps(indexed))
        assert restored == plain and repr(restored) == repr(plain)
        first = plain.tables[0]
        assert restored.table(first.name).column(first.columns[-1].name) == (
            first.columns[-1]
        )


class TestDatabase:
    def test_execute_simple(self):
        db = bank_database()
        rows = db.execute("SELECT name FROM client WHERE district = 'Jesenik'")
        assert sorted(row[0] for row in rows) == ["Maria Garcia", "Sarah Martinez"]

    def test_execute_join(self):
        db = bank_database()
        rows = db.execute(
            "SELECT client.name FROM client JOIN account "
            "ON client.client_id = account.client_id WHERE account.balance > 5000"
        )
        assert rows == [("Maria Garcia",)]

    def test_execute_bad_sql_raises(self):
        with pytest.raises(ExecutionError):
            bank_database().execute("SELECT nothing FROM nowhere")

    def test_is_executable(self):
        db = bank_database()
        assert db.is_executable("SELECT * FROM loan")
        assert not db.is_executable("SELECT * FROM missing_table")

    def test_row_count(self):
        assert bank_database().row_count("client") == 4

    def test_total_value_count(self):
        db = bank_database()
        assert db.total_value_count() == 4 * 4 + 4 * 4 + 3 * 4

    def test_representative_values_limit(self):
        db = bank_database()
        values = db.representative_values("client", "gender", k=2)
        assert len(values) == 2
        assert set(values) <= {"M", "F"}

    def test_representative_values_skip_null(self):
        schema = Schema(
            name="s",
            tables=(Table(name="t", columns=(Column("a", "TEXT"),)),),
        )
        db = Database.from_schema(schema, {"t": [(None,), ("x",)]})
        assert db.representative_values("t", "a") == ["x"]

    def test_iter_text_values_excludes_numeric(self):
        db = bank_database()
        columns = {(t, c) for t, c, _ in db.iter_text_values()}
        assert ("client", "name") in columns
        assert ("account", "balance") not in columns

    def test_insert_unknown_table_raises(self):
        with pytest.raises(SchemaError):
            bank_database().insert_rows({"ghost": [(1,)]})

    def test_insert_bad_arity_raises(self):
        with pytest.raises(ExecutionError):
            bank_database().insert_rows({"client": [(1, "only-two")]})

    def test_clone_with_rows_independent(self):
        db = bank_database()
        clone = db.clone_with_rows({"client": [(9, "Zoe Okafor", "F", "Lima")]})
        assert clone.row_count("client") == 1
        assert db.row_count("client") == 4

    def test_all_rows_snapshot(self):
        snapshot = bank_database().all_rows()
        assert set(snapshot) == {"client", "account", "loan"}
        assert len(snapshot["loan"]) == 3


class TestValueGenerator:
    def test_deterministic_for_same_seed(self):
        first = ValueGenerator(seed=7)
        second = ValueGenerator(seed=7)
        assert [first.person_name() for _ in range(5)] == [
            second.person_name() for _ in range(5)
        ]

    def test_differs_across_seeds(self):
        names_a = [ValueGenerator(seed=1).person_name() for _ in range(3)]
        names_b = [ValueGenerator(seed=2).person_name() for _ in range(3)]
        assert names_a != names_b

    def test_date_format(self):
        date = ValueGenerator(seed=0).date()
        year, month, day = date.split("-")
        assert len(year) == 4 and len(month) == 2 and len(day) == 2

    @given(st.integers(min_value=0, max_value=10_000))
    def test_integer_bounds(self, seed):
        gen = ValueGenerator(seed=seed)
        assert 0 <= gen.integer(0, 10) <= 10

    def test_code_width(self):
        assert len(ValueGenerator(seed=3).code("B", 4)) == 5

    def test_sample_never_exceeds_population(self):
        gen = ValueGenerator(seed=0)
        assert len(gen.sample([1, 2], 10)) == 2
