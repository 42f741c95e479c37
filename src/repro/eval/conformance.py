"""Cross-dialect conformance suite.

Every bundled gold query is transpiled into each registered backend's
dialect, executed there, and result-compared against the reference
SQLite execution.  The suite is the empirical backstop behind the
multi-backend refactor: the dialect emitters and the columnar executor
are only trusted because every gold set agrees with SQLite row-for-row
(ordered when the gold query orders, as a multiset otherwise — the
same comparison EX uses).

Outcome classes per (example, backend):

- ``matched``   — backend rows equal the SQLite rows.
- ``divergent`` — both executed, rows differ.  Always a bug in an
  emitter or an executor; the report carries the divergent SQL.
- ``error``     — the backend refused SQL that SQLite executed.
- ``skipped``   — the gold query is outside the transpilable subset or
  does not execute on the *reference* engine; nothing to compare.

``run_conformance`` drives the suite programmatically;
``repro conformance`` is the CLI entry point (exit 0 = all matched,
1 = divergences or errors, 2 = internal failure).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.datasets import DATASET_BUILDERS
from repro.datasets.base import Text2SQLDataset
from repro.db.backends import available_backends, backend_dialect, create_backend
from repro.errors import ExecutionError, SQLSyntaxError
from repro.eval.execution import _ORDER_BY_RE
from repro.eval.metrics import results_match
from repro.reliability.deadline import Deadline
from repro.sqlgen.dialects import transpile

#: Reference backend every other backend is compared against.
REFERENCE_BACKEND = "sqlite"


@dataclass(frozen=True)
class Divergence:
    """One gold query a backend disagreed with SQLite on."""

    dataset: str
    db_id: str
    question: str
    gold_sql: str
    dialect_sql: str
    kind: str  # "divergent" | "error"
    detail: str = ""


@dataclass
class DialectReport:
    """Conformance tallies of one backend against the reference."""

    backend: str
    dialect: str
    executed: int = 0
    matched: int = 0
    divergent: int = 0
    errors: int = 0
    skipped: int = 0
    per_dataset: dict[str, dict[str, int]] = field(default_factory=dict)
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every executed example matched the reference."""
        return self.divergent == 0 and self.errors == 0

    def record(self, dataset: str, outcome: str) -> None:
        tally = self.per_dataset.setdefault(
            dataset, {"matched": 0, "divergent": 0, "error": 0, "skipped": 0}
        )
        tally[outcome] += 1
        if outcome == "skipped":
            self.skipped += 1
            return
        self.executed += 1
        if outcome == "matched":
            self.matched += 1
        elif outcome == "divergent":
            self.divergent += 1
        else:
            self.errors += 1

    def as_row(self) -> dict[str, object]:
        return {
            "backend": self.backend,
            "dialect": self.dialect,
            "executed": self.executed,
            "matched": self.matched,
            "divergent": self.divergent,
            "errors": self.errors,
            "skipped": self.skipped,
            "ok": self.ok,
        }


@dataclass
class ConformanceReport:
    """Suite-level result: one :class:`DialectReport` per backend."""

    reports: dict[str, DialectReport] = field(default_factory=dict)
    datasets: tuple[str, ...] = ()
    total_examples: int = 0

    @property
    def ok(self) -> bool:
        return all(report.ok for report in self.reports.values())

    def render(self, max_divergences: int = 10) -> str:
        """Human-readable per-dialect divergence report."""
        lines = [
            f"conformance over {self.total_examples} gold examples "
            f"across {len(self.datasets)} sets"
        ]
        for report in self.reports.values():
            lines.append(
                f"  {report.backend} ({report.dialect}): "
                f"{report.matched}/{report.executed} matched, "
                f"{report.divergent} divergent, {report.errors} errors, "
                f"{report.skipped} skipped"
                + ("" if report.ok else "  [FAIL]")
            )
            for entry in report.divergences[:max_divergences]:
                lines.append(
                    f"    {entry.kind} [{entry.dataset}/{entry.db_id}] "
                    f"{entry.gold_sql!r} -> {entry.dialect_sql!r}"
                    + (f": {entry.detail}" if entry.detail else "")
                )
            hidden = len(report.divergences) - max_divergences
            if hidden > 0:
                lines.append(f"    ... and {hidden} more")
        return "\n".join(lines)


def _gold_examples(dataset: Text2SQLDataset) -> Iterable:
    for split in (dataset.train, dataset.dev):
        for example in split:
            yield example


def run_conformance(
    datasets: Sequence[Text2SQLDataset] | None = None,
    backends: Sequence[str] | None = None,
    deadline_s: float | None = None,
    max_divergences_kept: int = 100,
) -> ConformanceReport:
    """Run the cross-dialect conformance suite.

    ``datasets`` defaults to every bundled gold set
    (:data:`repro.datasets.DATASET_BUILDERS`); ``backends`` to every
    registered backend except the reference.  ``deadline_s``, when set,
    bounds each backend-side execution.  At most
    ``max_divergences_kept`` divergence records are retained per
    backend (tallies always count everything).
    """
    if datasets is None:
        datasets = [build() for build in DATASET_BUILDERS.values()]
    if backends is None:
        backends = tuple(
            name for name in available_backends() if name != REFERENCE_BACKEND
        )
    report = ConformanceReport(
        datasets=tuple(dataset.name for dataset in datasets)
    )
    for name in backends:
        # Instantiate one throwaway backend to learn its dialect; the
        # per-database instances are created inside the dataset loop.
        report.reports[name] = DialectReport(backend=name, dialect="")

    for dataset in datasets:
        adapted: dict[tuple[str, str], object] = {}
        for example in _gold_examples(dataset):
            report.total_examples += 1
            database = dataset.database_of(example)
            try:
                reference_rows = database.execute(example.sql)
            except ExecutionError:
                for name in backends:
                    report.reports[name].record(dataset.name, "skipped")
                continue
            ordered = bool(_ORDER_BY_RE.search(example.sql))
            for name in backends:
                dialect_report = report.reports[name]
                backend = adapted.get((name, example.db_id))
                if backend is None:
                    backend = adapted[(name, example.db_id)] = create_backend(
                        name, database
                    )
                if not dialect_report.dialect:
                    dialect_report.dialect = backend_dialect(backend)
                try:
                    dialect_sql = transpile(
                        example.sql, backend_dialect(backend)
                    )
                except SQLSyntaxError:
                    dialect_report.record(dataset.name, "skipped")
                    continue
                deadline = (
                    Deadline.after(deadline_s) if deadline_s else None
                )
                try:
                    rows = backend.execute(dialect_sql, deadline=deadline)
                except ExecutionError as exc:
                    dialect_report.record(dataset.name, "error")
                    if len(dialect_report.divergences) < max_divergences_kept:
                        dialect_report.divergences.append(
                            Divergence(
                                dataset=dataset.name,
                                db_id=example.db_id,
                                question=example.question,
                                gold_sql=example.sql,
                                dialect_sql=dialect_sql,
                                kind="error",
                                detail=str(exc),
                            )
                        )
                    continue
                if results_match(rows, reference_rows, ordered=ordered):
                    dialect_report.record(dataset.name, "matched")
                else:
                    dialect_report.record(dataset.name, "divergent")
                    if len(dialect_report.divergences) < max_divergences_kept:
                        dialect_report.divergences.append(
                            Divergence(
                                dataset=dataset.name,
                                db_id=example.db_id,
                                question=example.question,
                                gold_sql=example.sql,
                                dialect_sql=dialect_sql,
                                kind="divergent",
                                detail=(
                                    f"{len(rows)} rows vs "
                                    f"{len(reference_rows)} reference rows"
                                ),
                            )
                        )
    return report
