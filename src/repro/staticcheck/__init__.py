"""Plugin-based static analysis for the repro codebase.

Grown out of a regex architecture lint: rules are classes implementing
the :class:`~repro.staticcheck.registry.Rule` protocol, registered in
a global :class:`~repro.staticcheck.registry.RuleRegistry`, and run by
:func:`check_tree` / :func:`check_modules` over parsed
:class:`~repro.staticcheck.module.ModuleContext` objects.  Findings
carry source spans and line-independent fingerprints; an inline
``# staticcheck: disable=RULE`` comment, scoped to one line and the
rules it names, is the one way to excuse a finding, and SUP001 reports
each one that stops excusing anything.  Emitters render text, JSON,
and SARIF 2.1.0 — all byte-deterministic.

Every rule is a syntactic AST check, and each one earns its place in
the mutant corpus: ``tests/golden/mutation_kills.txt`` shows, for each
rule, a seeded bug in a real module that only that rule catches.  A
content-hash incremental cache (``cache.py``) makes warm runs skip
unchanged modules, and ``fix.py`` powers ``repro check --fix``.

Entry points: ``repro check`` (CLI) and :func:`check_tree` (library).
See DESIGN.md §13–§14 for the architecture and how to add a rule.
"""

from repro.staticcheck import rules as _rules  # noqa: F401  (registration)
from repro.staticcheck.cache import (
    FindingCache,
    content_hash,
    rules_fingerprint,
)
from repro.staticcheck.emit import render_json, render_sarif, render_text
from repro.staticcheck.fix import apply_fixes
from repro.staticcheck.findings import (
    ERROR,
    SEVERITIES,
    WARNING,
    Finding,
    SourceSpan,
)
from repro.staticcheck.module import ModuleContext, parse_module
from repro.staticcheck.registry import REGISTRY, Rule, RuleRegistry, register
from repro.staticcheck.runner import (
    CheckResult,
    check_modules,
    check_source,
    check_tree,
    load_tree,
)

__all__ = [
    "ERROR",
    "WARNING",
    "SEVERITIES",
    "Finding",
    "SourceSpan",
    "ModuleContext",
    "parse_module",
    "Rule",
    "RuleRegistry",
    "REGISTRY",
    "register",
    "CheckResult",
    "check_modules",
    "check_source",
    "check_tree",
    "load_tree",
    "render_text",
    "render_json",
    "render_sarif",
    "FindingCache",
    "content_hash",
    "rules_fingerprint",
    "apply_fixes",
]
