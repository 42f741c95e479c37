"""The rule protocol and registry.

Every rule is a class with a stable ``id``, a ``severity``, a one-line
``title``, and a docstring that *is* the rule's documentation — there
is no second prose copy anywhere: ``repro check --explain RULE``
renders from here.

Rules register themselves with the :data:`register` decorator at
import time; the runner instantiates a fresh object per run, so rules
may accumulate cross-module state in ``check`` and emit whole-tree
findings from ``finish`` (the lock-order graph does this) without
leaking between runs.
"""

from __future__ import annotations

import inspect

from repro.staticcheck.findings import SEVERITIES, Finding
from repro.staticcheck.module import ModuleContext


class Rule:
    """Base class for staticcheck rules.

    Subclasses set ``id`` / ``severity`` / ``title``, document
    themselves in the class docstring, and implement :meth:`check`.
    Rules needing a whole-tree view (e.g. a cross-module graph) keep
    state on ``self`` and emit from :meth:`finish`.
    """

    id: str = ""
    severity: str = "error"
    title: str = ""
    #: True when ``check`` depends only on the one module it is given
    #: (no cross-module state, no ``finish`` findings) — such rules'
    #: per-module findings are safe to serve from the incremental
    #: cache.  Rules that accumulate whole-tree state set this False.
    incremental: bool = True

    def check(self, module: ModuleContext) -> list[Finding]:
        """Findings for one module (called once per file)."""
        return []

    def finish(self) -> list[Finding]:
        """Findings requiring every module to have been seen."""
        return []

    @classmethod
    def docs(cls) -> str:
        """The rule's documentation — its docstring, nothing else."""
        return inspect.cleandoc(cls.__doc__ or "(undocumented)")

    def finding(self, module: ModuleContext, node, message: str) -> Finding:
        """Convenience constructor pinning a finding to ``node``."""
        from repro.staticcheck.findings import SourceSpan

        span = (
            node
            if isinstance(node, SourceSpan)
            else SourceSpan.from_node(node)
        )
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=module.path,
            span=span,
            message=message,
        )


class RuleRegistry:
    """Id-keyed registry of rule classes."""

    def __init__(self):
        self._rules: dict[str, type[Rule]] = {}

    def register(self, cls: type[Rule]) -> type[Rule]:
        if not cls.id:
            raise ValueError(f"rule class {cls.__name__} has no id")
        if cls.severity not in SEVERITIES:
            raise ValueError(
                f"rule {cls.id}: severity must be one of {SEVERITIES}, "
                f"got {cls.severity!r}"
            )
        if not (cls.__doc__ or "").strip():
            raise ValueError(f"rule {cls.id} has no docstring (its docs)")
        if cls.id in self._rules:
            raise ValueError(f"duplicate rule id {cls.id}")
        self._rules[cls.id] = cls
        return cls

    def ids(self) -> list[str]:
        return sorted(self._rules)

    def get(self, rule_id: str) -> type[Rule]:
        try:
            return self._rules[rule_id]
        except KeyError:
            raise KeyError(
                f"unknown rule {rule_id!r}; known: {', '.join(self.ids())}"
            ) from None

    def create(self, rule_ids=None) -> list[Rule]:
        """Fresh rule instances, sorted by id (whole registry by default)."""
        wanted = self.ids() if rule_ids is None else sorted(set(rule_ids))
        return [self.get(rule_id)() for rule_id in wanted]

    def explain(self, rule_id: str) -> str:
        cls = self.get(rule_id)
        header = f"{cls.id} ({cls.severity}) — {cls.title}"
        return f"{header}\n\n{cls.docs()}"


#: The process-wide registry rule modules register into.
REGISTRY = RuleRegistry()

#: Decorator shorthand: ``@register`` above a Rule subclass.
register = REGISTRY.register
