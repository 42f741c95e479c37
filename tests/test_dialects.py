"""Multi-dialect emitters, execution backends, and conformance.

Covers the dialect layer end to end: byte-parity of the SQLite emitter
with the historical serializer, corpus-wide round-trip properties
(every bundled gold query survives emission → parse unchanged), the
ANSI golden transpilations, the columnar backend's SQLite-compatible
semantics, capability-gated analyzer rules, the cross-dialect
conformance suite (including an engineered divergence it must catch),
and the ``repro conformance`` CLI exit-code contract.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro import cli
from repro.analysis import SchemaCatalog
from repro.analysis.analyzer import SemanticAnalyzer
from repro.analysis.diagnostics import DIALECT_CASE_FOLD
from repro.core.fillcontext import InstantiationContext
from repro.core.slotfill import FillPlan, iter_fills
from repro.datasets import DATASET_BUILDERS, build_bank_financials
from repro.db import Database
from repro.db.backends import (
    COLUMNAR_CAPABILITIES,
    SQLITE_CAPABILITIES,
    ColumnarBackend,
    ExecutionBackend,
    available_backends,
    backend_dialect,
    backend_for_dialect,
    create_backend,
    register_backend,
)
from repro.db.backends import base as backends_base
from repro.errors import (
    DeadlineExceededError,
    ExecutionError,
    SQLSyntaxError,
)
from repro.linking.lexical import LexicalSchemaScorer
from repro.eval.conformance import run_conformance
from repro.reliability import Deadline, FakeClock
from repro.sqlgen.dialects import (
    available_dialects,
    emitter_for,
    parse_dialect_sql,
    serialize_dialect,
    transpile,
)
from repro.sqlgen.parser import parse_sql
from repro.sqlgen.dialects.sqlite import SQLITE_EMITTER
from tests.fixtures import bank_database

pytestmark = pytest.mark.dialects

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _gold_corpus():
    """Every bundled gold SQL string, deduplicated, with its set name."""
    corpus = []
    seen = set()
    for name, build in DATASET_BUILDERS.items():
        dataset = build()
        for split in (dataset.train, dataset.dev):
            for example in split:
                if example.sql not in seen:
                    seen.add(example.sql)
                    corpus.append((name, example.sql))
    return corpus


# ---------------------------------------------------------------------------
# dialect registry and emitters


class TestDialectRegistry:
    def test_bundled_dialects_registered_in_order(self):
        assert available_dialects()[:3] == ("sqlite", "ansi", "tsql")

    def test_unknown_dialect_is_a_keyerror_naming_the_known(self):
        with pytest.raises(KeyError, match="sqlite"):
            emitter_for("postgres")

    def test_sqlite_emitter_is_byte_identical_to_serializer(self):
        for _, sql in _gold_corpus():
            query = parse_sql(sql)
            sql_text = SQLITE_EMITTER.serialize(query)
            assert serialize_dialect(query, "sqlite") == sql_text


class TestRoundTripProperty:
    """Emission is the identity under re-parsing, for every dialect."""

    def test_sqlite_emission_round_trips_every_gold_query(self):
        for name, sql in _gold_corpus():
            query = parse_sql(sql)
            again = parse_sql(SQLITE_EMITTER.serialize(query))
            assert again == query, f"{name}: {sql!r}"

    def test_ansi_and_tsql_transpilations_parse_back_to_the_same_ast(self):
        for name, sql in _gold_corpus():
            query = parse_sql(sql)
            for dialect in ("ansi", "tsql"):
                text = serialize_dialect(query, dialect)
                again = parse_dialect_sql(text, dialect)
                assert again == query, f"{name}/{dialect}: {text!r}"

    def test_tsql_top_handles_subqueries_and_compounds(self):
        for sql in (
            "SELECT name FROM client WHERE id IN "
            "(SELECT client_id FROM account LIMIT 2) LIMIT 3",
            "SELECT DISTINCT name FROM client LIMIT 1",
            "SELECT name FROM client UNION SELECT name FROM client LIMIT 4",
        ):
            query = parse_sql(sql)
            text = serialize_dialect(query, "tsql")
            assert parse_dialect_sql(text, "tsql") == query


class TestAnsiGolden:
    def test_transpilations_match_the_golden_file(self):
        payload = json.loads(
            (GOLDEN_DIR / "dialect_ansi.json").read_text(encoding="utf-8")
        )
        assert payload["dialect"] == "ansi"
        assert payload["entries"], "golden file must not be empty"
        for entry in payload["entries"]:
            assert transpile(entry["sqlite"], "ansi") == entry["ansi"]
            assert parse_dialect_sql(entry["ansi"], "ansi") == parse_sql(
                entry["sqlite"]
            )

    def test_sentinel_is_outside_the_transpilable_subset(self):
        with pytest.raises(SQLSyntaxError):
            transpile("SELECT 1", "ansi")


# ---------------------------------------------------------------------------
# backend protocol and registry


class TestSlotFillEmission:
    """Slot filling serializes each candidate once, in the caller's dialect."""

    def test_golden_questions_carry_their_dialect_sql(self):
        golden = json.loads(
            (GOLDEN_DIR / "engine_parity.json").read_text(encoding="utf-8")
        )
        rows = golden["datasets"]["bank_financials"]
        dataset = build_bank_financials()
        schema = dataset.databases["bank_financials"].schema
        gold_sql = dict.fromkeys(example.sql for example in dataset.train)
        templates = [parse_sql(sql) for sql in gold_sql]
        checked = 0
        for question in (row["question"] for row in rows):
            scores = LexicalSchemaScorer().score_schema(question, schema, [])
            by_dialect = {}
            for dialect in ("sqlite", "ansi", "tsql"):
                emitter = emitter_for(dialect)
                ctx = InstantiationContext(
                    question=question, schema=schema, scores=scores
                )
                candidates = [
                    candidate
                    for template in templates
                    for candidate in iter_fills(FillPlan(template, emitter), ctx)
                ]
                for candidate in candidates:
                    assert candidate.sql == emitter.serialize(candidate.query)
                    if dialect == "sqlite":
                        sql = SQLITE_EMITTER.serialize(candidate.query)
                        assert candidate.sql == sql
                by_dialect[dialect] = [candidate.query for candidate in candidates]
                checked += len(candidates)
            # Deduplicating on dialect SQL keeps the same candidates.
            assert by_dialect["ansi"] == by_dialect["sqlite"] == by_dialect["tsql"]
        assert checked > 0


class TestBackendRegistry:
    def test_bundled_backends_registered(self):
        assert ("sqlite", "columnar") == available_backends()[:2]

    def test_sqlite_factory_is_the_identity(self):
        database = bank_database()
        assert create_backend("sqlite", database) is database

    def test_unknown_backend_raises_execution_error(self):
        with pytest.raises(ExecutionError, match="columnar"):
            create_backend("duckdb", bank_database())

    def test_backend_for_dialect_maps_both_ways(self):
        assert backend_for_dialect("sqlite") == "sqlite"
        assert backend_for_dialect("ansi") == "columnar"
        with pytest.raises(ExecutionError, match="ansi"):
            backend_for_dialect("postgres")

    def test_both_backends_satisfy_the_runtime_protocol(self):
        database = bank_database()
        assert isinstance(database, ExecutionBackend)
        assert isinstance(
            ColumnarBackend.from_database(database), ExecutionBackend
        )

    def test_backend_dialect_defaults_for_legacy_objects(self):
        assert backend_dialect(object()) == "sqlite"
        assert backend_dialect(bank_database()) == "sqlite"
        assert (
            backend_dialect(ColumnarBackend.from_database(bank_database()))
            == "ansi"
        )

    @pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
    def test_value_scans_agree_between_backends(self, name):
        for database in DATASET_BUILDERS[name]().databases.values():
            columnar = create_backend("columnar", database)
            assert list(columnar.iter_text_values()) == list(
                database.iter_text_values()
            )
            assert columnar.total_value_count() == database.total_value_count()

    def test_capability_flags_differ_between_backends(self):
        assert SQLITE_CAPABILITIES.limit_style == "limit"
        assert COLUMNAR_CAPABILITIES.limit_style == "fetch_first"
        assert COLUMNAR_CAPABILITIES.inequality == "<>"
        assert COLUMNAR_CAPABILITIES.identifier_quote == '"'


# ---------------------------------------------------------------------------
# the columnar executor


class TestColumnarExecutor:
    def _pair(self):
        database = bank_database()
        return database, ColumnarBackend.from_database(database)

    def _both(self, sqlite_db, backend, sql, ordered=False):
        reference = sqlite_db.execute(sql)
        rows = backend.execute(transpile(sql, "ansi"))
        if ordered:
            assert rows == reference
        else:
            assert sorted(map(repr, rows)) == sorted(map(repr, reference))

    def test_matches_sqlite_on_representative_queries(self):
        sqlite_db, backend = self._pair()
        for sql in (
            "SELECT name FROM client WHERE district != 'Prague'",
            "SELECT count(*) FROM account WHERE balance BETWEEN 100 AND 5000",
            "SELECT client.name, account.balance FROM client JOIN account "
            "ON client.client_id = account.client_id WHERE account.balance > 400",
            "SELECT district, count(*) FROM client GROUP BY district "
            "HAVING count(*) > 1",
            "SELECT name FROM client WHERE client_id IN "
            "(SELECT client_id FROM account WHERE balance > 1000)",
            "SELECT avg(amount) FROM loan WHERE status = 'approved'",
        ):
            self._both(sqlite_db, backend, sql)

    def test_order_and_limit_match_sqlite(self):
        sqlite_db, backend = self._pair()
        self._both(
            sqlite_db,
            backend,
            "SELECT name FROM client ORDER BY name LIMIT 3",
            ordered=True,
        )

    def test_sentinel_select_executes_without_from(self):
        _, backend = self._pair()
        assert backend.execute("SELECT 1") == [(1,)]
        assert backend.is_executable("SELECT 1")

    def test_bad_sql_raises_execution_error(self):
        _, backend = self._pair()
        with pytest.raises(ExecutionError):
            backend.execute("SELECT nope FROM nothing")

    def test_expired_deadline_raises(self):
        _, backend = self._pair()
        clock = FakeClock()
        deadline = Deadline.after(0.5, clock=clock)
        clock.advance(1.0)
        with pytest.raises(DeadlineExceededError):
            backend.execute(
                'SELECT "name" FROM "client"', deadline=deadline
            )

    def test_like_is_case_insensitive_by_default(self):
        sqlite_db, backend = self._pair()
        sql = "SELECT name FROM client WHERE name LIKE 'sarah%'"
        assert backend.execute(transpile(sql, "ansi")) == sqlite_db.execute(sql)
        assert len(backend.execute(transpile(sql, "ansi"))) == 1

    def test_flipping_like_case_sensitivity_changes_the_match_set(self):
        _, backend = self._pair()
        strict = backend.with_capabilities(like_case_sensitive=True)
        sql = transpile(
            "SELECT name FROM client WHERE name LIKE 'sarah%'", "ansi"
        )
        assert len(backend.execute(sql)) == 1
        assert strict.execute(sql) == []

    def test_value_api_mirrors_sqlite(self):
        sqlite_db, backend = self._pair()
        assert backend.row_count("client") == sqlite_db.row_count("client")
        assert backend.table_rows("loan") == sqlite_db.table_rows("loan")
        assert backend.all_rows() == sqlite_db.all_rows()
        assert backend.distinct_values(
            "client", "district"
        ) == sqlite_db.distinct_values("client", "district")
        assert backend.representative_values(
            "account", "balance"
        ) == sqlite_db.representative_values("account", "balance")


# ---------------------------------------------------------------------------
# capability-gated analysis


class TestCapabilityGatedAnalyzer:
    def _analyzer(self, capabilities):
        catalog = SchemaCatalog.from_database(bank_database())
        return SemanticAnalyzer(catalog, capabilities=capabilities)

    def test_no_case_fold_warning_on_the_reference_backend(self):
        analyzer = self._analyzer(SQLITE_CAPABILITIES)
        diags = analyzer.analyze_sql(
            "SELECT name FROM client WHERE name LIKE 'Sar%'"
        )
        assert not [d for d in diags if d.code == DIALECT_CASE_FOLD]

    def test_case_sensitive_backend_warns_on_letter_patterns(self):
        strict = dataclasses.replace(
            COLUMNAR_CAPABILITIES, like_case_sensitive=True
        )
        analyzer = self._analyzer(strict)
        diags = analyzer.analyze_sql(
            transpile("SELECT name FROM client WHERE name LIKE 'Sar%'", "ansi")
        )
        assert [d for d in diags if d.code == DIALECT_CASE_FOLD]

    def test_no_warning_for_letterless_patterns(self):
        strict = dataclasses.replace(
            COLUMNAR_CAPABILITIES, like_case_sensitive=True
        )
        analyzer = self._analyzer(strict)
        diags = analyzer.analyze_sql(
            transpile(
                "SELECT name FROM client WHERE district LIKE '199%'", "ansi"
            )
        )
        assert not [d for d in diags if d.code == DIALECT_CASE_FOLD]

    def test_analyzer_parses_in_the_backend_dialect(self):
        analyzer = self._analyzer(COLUMNAR_CAPABILITIES)
        diags = analyzer.analyze_sql(
            'SELECT "name" FROM "client" FETCH FIRST 2 ROWS ONLY'
        )
        assert diags == []


# ---------------------------------------------------------------------------
# conformance suite


@pytest.fixture
def restore_backend_registry():
    backends = dict(backends_base._BACKENDS)
    dialects = dict(backends_base._BACKEND_DIALECTS)
    yield
    backends_base._BACKENDS.clear()
    backends_base._BACKENDS.update(backends)
    backends_base._BACKEND_DIALECTS.clear()
    backends_base._BACKEND_DIALECTS.update(dialects)


class _RowDroppingBackend(ColumnarBackend):
    """Engineered defect: silently drops the last row of every result."""

    name = "row-dropper"

    def execute(self, sql, max_rows=100_000, deadline=None):
        rows = super().execute(sql, max_rows=max_rows, deadline=deadline)
        return rows[:-1] if rows else rows


class TestConformanceSuite:
    def test_every_bundled_gold_set_conforms(self):
        report = run_conformance()
        assert report.total_examples > 4000
        assert len(report.datasets) == 24
        assert any(name.startswith("dr-spider-") for name in report.datasets)
        columnar = report.reports["columnar"]
        assert columnar.dialect == "ansi"
        assert columnar.ok, report.render()
        assert columnar.matched == columnar.executed
        assert columnar.divergent == 0 and columnar.errors == 0

    def test_engineered_divergence_is_detected(self, restore_backend_registry):
        register_backend(
            "row-dropper", _RowDroppingBackend.from_database, dialect="ansi"
        )
        datasets = [DATASET_BUILDERS["bank_financials"]()]
        report = run_conformance(datasets=datasets, backends=["row-dropper"])
        assert not report.ok
        dropper = report.reports["row-dropper"]
        assert dropper.divergent > 0
        assert dropper.divergences, "divergent examples must be recorded"
        assert "FAIL" in report.render()


class TestConformanceCLI:
    def test_exit_zero_when_conformant(self, capsys):
        assert cli.main(["conformance", "--dataset", "bank_financials"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "columnar" in out

    def test_exit_two_on_unknown_backend(self, capsys):
        assert cli.main(["conformance", "--backend", "duckdb"]) == 2

    def test_exit_two_on_unknown_dataset(self, capsys):
        assert cli.main(["conformance", "--dataset", "nope"]) == 2

    def test_exit_two_on_reference_backend(self, capsys):
        assert cli.main(["conformance", "--backend", "sqlite"]) == 2

    def test_exit_one_on_divergence(self, capsys, restore_backend_registry):
        register_backend(
            "row-dropper", _RowDroppingBackend.from_database, dialect="ansi"
        )
        code = cli.main(
            [
                "conformance",
                "--dataset",
                "bank_financials",
                "--backend",
                "row-dropper",
            ]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# harness and serving integration


class _EchoGoldParser:
    """Stub generator answering with the (transpiled) gold SQL."""

    def __init__(self, by_question, dialect):
        self.by_question = by_question
        self.dialect = dialect

    def generate(self, question, database, **kwargs):
        sql = transpile(self.by_question[question], self.dialect)

        class _Result:
            pass

        result = _Result()
        result.sql = sql
        result.tier = "beam"
        return result


class TestHarnessDialect:
    def test_evaluate_parser_scores_full_marks_on_the_ansi_backend(self):
        from repro.eval.harness import evaluate_parser

        dataset = DATASET_BUILDERS["bank_financials"]()
        by_question = {
            example.question: example.sql for example in dataset.dev
        }
        parser = _EchoGoldParser(by_question, "ansi")
        result = evaluate_parser(parser, dataset, dialect="ansi", name="echo")
        assert result.ex == 1.0
        assert result.n_scored == len(dataset.dev)

    def test_non_sqlite_dialect_rejects_ts_and_ves(self):
        from repro.eval.harness import evaluate_parser

        dataset = DATASET_BUILDERS["bank_financials"]()
        parser = _EchoGoldParser({}, "ansi")
        with pytest.raises(ValueError, match="sqlite"):
            evaluate_parser(parser, dataset, dialect="ansi", compute_ts=True)


class TestServerBackendConfig:
    def test_server_adapts_databases_into_the_configured_backend(self):
        from repro.serving import Server, ServerConfig

        database = bank_database()
        server = Server(
            parser=_EchoGoldParser({}, "ansi"),
            databases={"bank": database},
            config=ServerConfig(backend="columnar"),
        )
        adapted = server.databases["bank"]
        assert isinstance(adapted, ColumnarBackend)
        assert backend_dialect(adapted) == "ansi"

    def test_default_backend_is_the_identity(self):
        from repro.serving import Server, ServerConfig

        database = bank_database()
        server = Server(
            parser=_EchoGoldParser({}, "sqlite"),
            databases={"bank": database},
            config=ServerConfig(),
        )
        assert server.databases["bank"] is database

    def test_unknown_backend_fails_at_construction(self):
        from repro.serving import Server, ServerConfig

        with pytest.raises(ExecutionError, match="duckdb"):
            Server(
                parser=_EchoGoldParser({}, "sqlite"),
                databases={"bank": bank_database()},
                config=ServerConfig(backend="duckdb"),
            )


class TestEngineOnColumnarBackend:
    def test_generation_emits_executable_ansi_sql(self):
        from repro.core import CodeSParser
        from repro.eval.harness import pair_samples

        dataset = DATASET_BUILDERS["bank_financials"]()
        parser = CodeSParser("codes-1b")
        parser.fit(pair_samples(dataset))
        database = dataset.database_of(dataset.dev[0])
        backend = create_backend("columnar", database)
        result = parser.generate(dataset.dev[0].question, backend)
        assert backend.is_executable(result.sql)

    def test_skeleton_tier_answers_in_the_backend_dialect(self):
        """Under ``effort="skeleton"`` the degrade stage answers from the
        skeleton bank: on the columnar backend in ANSI text (quoted
        identifiers), the SQLite answer transpiled, and unchanged SQLite
        text on SQLite."""
        from repro.core import CodeSParser
        from repro.eval.harness import pair_samples

        dataset = DATASET_BUILDERS["spider"]()
        parser = CodeSParser("codes-1b")
        parser.fit(pair_samples(dataset))
        checked = 0
        for example in dataset.dev[:12]:
            database = dataset.database_of(example)
            plain = parser.generate(example.question, database, effort="skeleton")
            ansi = parser.generate(
                example.question, ColumnarBackend.from_database(database), effort="skeleton"
            )
            assert (plain.tier, ansi.tier) == ("skeleton", "skeleton")
            assert '"' not in plain.sql
            assert ansi.sql == transpile(plain.sql, "ansi")
            assert ansi.sql != plain.sql
            checked += 1
        assert checked == 12
