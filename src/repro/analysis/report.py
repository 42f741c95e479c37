"""Dataset-level lint audits: run the analyzer over gold SQL.

Powers the ``repro lint`` CLI subcommand and the golden test that keeps
every bundled benchmark's gold queries clean of error-tier diagnostics
(schema/AST drift shows up here before it shows up as mysteriously
falling EX).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.analysis.analyzer import SemanticAnalyzer
from repro.analysis.catalog import SchemaCatalog
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.datasets.base import Text2SQLDataset


@dataclass(frozen=True)
class LintFinding:
    """All diagnostics for one gold example."""

    split: str
    index: int
    db_id: str
    sql: str
    diagnostics: tuple[Diagnostic, ...]

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)


@dataclass
class LintReport:
    """Aggregate lint results over one dataset."""

    dataset: str
    n_examples: int = 0
    findings: list[LintFinding] = field(default_factory=list)
    rule_counts: Counter = field(default_factory=Counter)

    @property
    def n_errors(self) -> int:
        return sum(
            1
            for finding in self.findings
            for d in finding.diagnostics
            if d.severity is Severity.ERROR
        )

    @property
    def n_warnings(self) -> int:
        return sum(
            1
            for finding in self.findings
            for d in finding.diagnostics
            if d.severity is Severity.WARNING
        )

    @property
    def error_findings(self) -> list[LintFinding]:
        return [finding for finding in self.findings if finding.has_errors]

    def as_row(self) -> dict[str, object]:
        return {
            "dataset": self.dataset,
            "queries": self.n_examples,
            "errors": self.n_errors,
            "warnings": self.n_warnings,
            "dirty queries": len(self.error_findings),
        }


def lint_dataset(
    dataset: Text2SQLDataset, splits: tuple[str, ...] = ("train", "dev")
) -> LintReport:
    """Lint every gold query of ``dataset`` against its database schema."""
    report = LintReport(dataset=dataset.name)
    analyzers: dict[str, SemanticAnalyzer] = {}
    for split in splits:
        for index, example in enumerate(dataset.split(split)):
            analyzer = analyzers.get(example.db_id)
            if analyzer is None:
                database = dataset.database_of(example)
                analyzer = analyzers[example.db_id] = SemanticAnalyzer(
                    SchemaCatalog.from_database(database)
                )
            diagnostics = analyzer.analyze_sql(example.sql)
            report.n_examples += 1
            if diagnostics:
                report.findings.append(
                    LintFinding(
                        split=split,
                        index=index,
                        db_id=example.db_id,
                        sql=example.sql,
                        diagnostics=tuple(diagnostics),
                    )
                )
                for diagnostic in diagnostics:
                    report.rule_counts[diagnostic.code] += 1
    return report


def format_lint_report(report: LintReport, max_findings: int = 10) -> str:
    """Human-readable audit of one dataset's lint results."""
    lines = [
        f"{report.dataset}: {report.n_examples} gold queries, "
        f"{report.n_errors} errors / {report.n_warnings} warnings"
    ]
    if report.rule_counts:
        per_rule = ", ".join(
            f"{code}={count}" for code, count in sorted(report.rule_counts.items())
        )
        lines.append(f"  per rule: {per_rule}")
    for finding in report.error_findings[:max_findings]:
        lines.append(
            f"  {finding.split}[{finding.index}] db={finding.db_id}: {finding.sql}"
        )
        for diagnostic in finding.diagnostics:
            lines.append(f"    {diagnostic.render()}")
    remaining = len(report.error_findings) - max_findings
    if remaining > 0:
        lines.append(f"  ... and {remaining} more dirty queries")
    return "\n".join(lines)
