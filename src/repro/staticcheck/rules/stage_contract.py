"""STAGE001: machine-check the engine stages' reads→writes contracts.

The staged engine's whole correctness story is that the shared
:class:`~repro.engine.context.InferenceContext` is the *only* channel
between stages, so each stage's contract is exactly "reads X, writes
Y".  This rule makes that contract machine-checked instead of a
docstring table: every stage class in ``engine/_stages.py`` must
declare ``reads`` / ``writes`` tuples, and the rule compares them
against the actual attribute loads and stores on the ``ctx`` parameter
in the stage's methods (including module-level helpers the stage calls
with ``ctx``, resolved to a fixpoint).

Three findings per mismatch class:

- **undeclared read** — the body loads ``ctx.X`` but ``X`` is in
  neither ``reads`` nor ``writes`` (reading your own output is legal);
- **undeclared write** — the body stores ``ctx.X`` outside ``writes``;
- **declared-but-unused** — a declared read is never loaded, or a
  declared write is never stored (contract rot in the other
  direction).

``ctx.cache`` and ``ctx.trace`` are engine plumbing injected by
``Engine.run`` and readable ambiently without declaration.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.staticcheck.findings import Finding
from repro.staticcheck.module import ModuleContext
from repro.staticcheck.registry import Rule, register
from repro.staticcheck.rules._util import const_str_tuple, in_scope

#: the module whose stage classes carry contracts.
STAGE_MODULE = "engine/_stages.py"

#: the context parameter name the convention keys on.
CTX_PARAM = "ctx"

#: fields Engine.run injects; readable without declaration.
AMBIENT_READS = frozenset({"cache", "trace"})


@dataclass
class AccessSet:
    """Attribute loads/stores on ``ctx`` with first-seen lines."""

    reads: dict[str, int] = field(default_factory=dict)
    writes: dict[str, int] = field(default_factory=dict)
    #: names of module-level ``ctx``-taking functions called.
    calls: set[str] = field(default_factory=set)

    def record(self, attr: str, is_store: bool, line: int) -> None:
        target = self.writes if is_store else self.reads
        target.setdefault(attr, line)

    def merge(self, other: "AccessSet", line: int) -> None:
        for attr in other.reads:
            self.reads.setdefault(attr, line)
        for attr in other.writes:
            self.writes.setdefault(attr, line)


def _ctx_param_names(fn: ast.FunctionDef) -> set[str]:
    names = {arg.arg for arg in fn.args.args + fn.args.kwonlyargs}
    return {CTX_PARAM} & names


def _collect_accesses(fn: ast.FunctionDef) -> AccessSet:
    """ctx attribute accesses in one function body (lambdas included)."""
    accesses = AccessSet()
    if not _ctx_param_names(fn):
        return accesses
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and (
            isinstance(node.value, ast.Name) and node.value.id == CTX_PARAM
        ):
            if isinstance(node.ctx, ast.Store):
                accesses.record(node.attr, True, node.lineno)
            elif isinstance(node.ctx, ast.Load):
                accesses.record(node.attr, False, node.lineno)
        elif isinstance(node, ast.AugAssign) and (
            isinstance(node.target, ast.Attribute)
            and isinstance(node.target.value, ast.Name)
            and node.target.value.id == CTX_PARAM
        ):
            # ``ctx.x += 1`` both reads and writes x; the Store branch
            # above already recorded the write.
            accesses.record(node.target.attr, False, node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            passes_ctx = any(
                isinstance(arg, ast.Name) and arg.id == CTX_PARAM
                for arg in node.args
            )
            if passes_ctx:
                accesses.calls.add(node.func.id)
    return accesses


def _module_helper_sets(tree: ast.Module) -> dict[str, AccessSet]:
    """Fixpoint access sets for module-level ``ctx``-taking functions."""
    helpers: dict[str, AccessSet] = {}
    fns: dict[str, ast.FunctionDef] = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and _ctx_param_names(node):
            fns[node.name] = node
            helpers[node.name] = _collect_accesses(node)
    changed = True
    while changed:
        changed = False
        for name, accesses in helpers.items():
            for callee in list(accesses.calls):
                other = helpers.get(callee)
                if other is None:
                    continue
                before = (len(accesses.reads), len(accesses.writes))
                accesses.merge(other, fns[name].lineno)
                if (len(accesses.reads), len(accesses.writes)) != before:
                    changed = True
    return helpers


@register
class StageContractRule(Rule):
    __doc__ = __doc__

    id = "STAGE001"
    severity = "error"
    title = "engine stage reads→writes contract drift"

    def check(self, module: ModuleContext) -> list[Finding]:
        if not in_scope(module.path, (STAGE_MODULE,)):
            return []
        helpers = _module_helper_sets(module.tree)
        findings: list[Finding] = []
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_stage(module, node, helpers))
        return findings

    def _check_stage(
        self,
        module: ModuleContext,
        cls: ast.ClassDef,
        helpers: dict[str, AccessSet],
    ) -> list[Finding]:
        attrs = self._class_attrs(cls)
        methods = [
            item
            for item in cls.body
            if isinstance(item, ast.FunctionDef) and _ctx_param_names(item)
        ]
        # A stage is a class with a ``name`` string and a ``run`` method.
        if "name" not in attrs or not any(m.name == "run" for m in methods):
            return []
        stage = attrs["name"]
        if not isinstance(stage, str) or stage == "abstract":
            return []
        declared_reads = attrs.get("reads")
        declared_writes = attrs.get("writes")
        if declared_reads is None or declared_writes is None:
            return [
                self.finding(
                    module,
                    cls,
                    f"stage {stage!r} declares no reads/writes contract; "
                    "add `reads = (...)` and `writes = (...)` class "
                    "attributes",
                )
            ]
        actual = AccessSet()
        for method in methods:
            method_accesses = _collect_accesses(method)
            actual.merge(method_accesses, method.lineno)
            for callee in method_accesses.calls:
                if callee in helpers:
                    actual.merge(helpers[callee], method.lineno)
        findings: list[Finding] = []
        from repro.staticcheck.findings import SourceSpan

        allowed_reads = set(declared_reads) | set(declared_writes) | AMBIENT_READS
        for attr, line in sorted(actual.reads.items()):
            if attr not in allowed_reads:
                findings.append(
                    self.finding(
                        module,
                        SourceSpan(line=line),
                        f"stage {stage!r} reads ctx.{attr} but does not "
                        f"declare it (reads={declared_reads})",
                    )
                )
        for attr, line in sorted(actual.writes.items()):
            if attr not in declared_writes:
                findings.append(
                    self.finding(
                        module,
                        SourceSpan(line=line),
                        f"stage {stage!r} writes ctx.{attr} but does not "
                        f"declare it (writes={declared_writes})",
                    )
                )
        for attr in declared_reads:
            if attr not in actual.reads:
                findings.append(
                    self.finding(
                        module,
                        cls,
                        f"stage {stage!r} declares read {attr!r} but its "
                        "body never loads it; prune the contract",
                    )
                )
        for attr in declared_writes:
            if attr not in actual.writes:
                findings.append(
                    self.finding(
                        module,
                        cls,
                        f"stage {stage!r} declares write {attr!r} but its "
                        "body never stores it; prune the contract",
                    )
                )
        return findings

    @staticmethod
    def _class_attrs(cls: ast.ClassDef) -> dict[str, object]:
        """Literal class attributes: name string, reads/writes tuples."""
        attrs: dict[str, object] = {}
        for item in cls.body:
            if not isinstance(item, ast.Assign) or len(item.targets) != 1:
                continue
            target = item.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if target.id == "name" and isinstance(item.value, ast.Constant):
                attrs["name"] = item.value.value
            elif target.id in ("reads", "writes"):
                value = const_str_tuple(item.value)
                if value is not None:
                    attrs[target.id] = value
        return attrs
