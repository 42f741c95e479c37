"""Evaluation: execution accuracy, test-suite accuracy, VES, AUC."""

from repro.eval.metrics import roc_auc, results_match
from repro.eval.execution import (
    GOLD_TIMEOUT,
    GOLD_UNEXECUTABLE,
    PREDICTION_TIMEOUT,
    PREDICTION_UNEXECUTABLE,
    MatchOutcome,
    execution_accuracy,
    execution_match,
    execution_match_outcome,
)
from repro.eval.conformance import (
    ConformanceReport,
    DialectReport,
    Divergence,
    run_conformance,
)
from repro.eval.testsuite import TestSuite, test_suite_accuracy
from repro.eval.ves import valid_efficiency_score
from repro.eval.harness import (
    FAILURE_CLASSES,
    GENERATION_FAILED,
    EvalResult,
    FailureRecord,
    evaluate_parser,
    pair_samples,
)
from repro.eval.reporting import format_failure_report, format_table, print_table

__all__ = [
    "ConformanceReport",
    "DialectReport",
    "Divergence",
    "EvalResult",
    "FAILURE_CLASSES",
    "FailureRecord",
    "GENERATION_FAILED",
    "GOLD_TIMEOUT",
    "GOLD_UNEXECUTABLE",
    "MatchOutcome",
    "PREDICTION_TIMEOUT",
    "PREDICTION_UNEXECUTABLE",
    "TestSuite",
    "evaluate_parser",
    "run_conformance",
    "execution_accuracy",
    "execution_match",
    "execution_match_outcome",
    "format_failure_report",
    "format_table",
    "pair_samples",
    "print_table",
    "results_match",
    "roc_auc",
    "test_suite_accuracy",
    "valid_efficiency_score",
]
