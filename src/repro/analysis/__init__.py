"""Schema-aware SQL semantic analysis.

A static pre-execution gate for generated SQL: the analyzer walks the
:mod:`repro.sqlgen` AST against a :class:`SchemaCatalog` built from
database metadata and emits structured :class:`Diagnostic` findings
(hallucinated tables/columns, ambiguous references, type-incompatible
comparisons, aggregate misuse, set-operation arity, scope violations,
off-FK joins).  Consumers:

- the execution-guided beam (:mod:`repro.core.parser`) demotes
  error-tier candidates below clean ones, saving execution round-trips;
- the eval harness counts ``prediction_semantic_error`` failures and
  per-rule diagnostics;
- the augmentation pipeline rejects dirty synthetic SQL;
- ``repro lint`` audits any benchmark's gold queries.

The static *equivalence* engine (:mod:`repro.analysis.equivalence`,
:mod:`repro.analysis.cost`) is the dual gate: it recognizes when two
candidates are provably the same query, so the beam executes one
representative per equivalence class (cheapest first, per the cost
estimator), the eval harness skips EX executions for predictions
provably equivalent to gold, the augmentation pipeline drops
canonical-duplicate synthetic pairs, and ``repro equiv`` reports
duplicate ratios for any benchmark.
"""

from repro.analysis.analyzer import SemanticAnalyzer
from repro.analysis.catalog import CatalogColumn, SchemaCatalog
from repro.analysis.cost import CostEstimator
from repro.analysis.equivalence import (
    Verdict,
    canonical_key,
    canonical_key_sql,
    canonicalize,
    prove_equivalent,
)
from repro.analysis.diagnostics import (
    RULE_CODES,
    RULE_SEVERITIES,
    Diagnostic,
    Severity,
    has_errors,
)
from repro.analysis.report import (
    LintFinding,
    LintReport,
    format_lint_report,
    lint_dataset,
)

__all__ = [
    "CatalogColumn",
    "CostEstimator",
    "Diagnostic",
    "LintFinding",
    "LintReport",
    "RULE_CODES",
    "RULE_SEVERITIES",
    "SchemaCatalog",
    "SemanticAnalyzer",
    "Severity",
    "Verdict",
    "canonical_key",
    "canonical_key_sql",
    "canonicalize",
    "format_lint_report",
    "has_errors",
    "lint_dataset",
    "prove_equivalent",
]
