"""RES001: a resource must be handed off or released before anything else runs.

File handles (``open()``/``io.open``/``gzip.open``), SQLite
connections (``sqlite3.connect``), cursors (``.cursor()``), and locks
acquired via an explicit ``.acquire()`` statement are tracked from
the statement that acquires them.  A resource assigned to a name (a
conditional expression counts when either branch acquires) is
accepted in exactly these shapes:

- it is acquired in a ``with`` header (never tracked: the context
  manager owns cleanup, which is the recommended fix);
- the next statement hands it off: returns or yields the name, passes
  it as a call argument (``registry.adopt(conn)``,
  ``with closing(conn):``), uses it as a ``with`` subject, or stores it
  to an attribute or subscript — ownership moved;
- the next statement releases it (``name.close()`` /
  ``name.release()`` / ``name.shutdown()``);
- the next statement is a ``try`` whose ``finally`` releases it.

Anything else leaks the resource on some path — at the latest when a
statement between acquisition and release raises — and is reported at
the acquisition site with a prefer-``with`` hint; acquiring into the
same name again on the next statement is reported as an overwrite.
The check is syntactic: it looks at one statement and the one after
it, so it is exception-safe by construction and needs no control-flow
graph.
"""

from __future__ import annotations

import ast

from repro.staticcheck.findings import SourceSpan
from repro.staticcheck.module import ModuleContext
from repro.staticcheck.registry import Rule, register
from repro.staticcheck.rules._util import ImportTable

#: fully-qualified call targets whose result is an owned resource.
RESOURCE_FACTORIES = {
    "open": "file handle",
    "io.open": "file handle",
    "gzip.open": "file handle",
    "sqlite3.connect": "sqlite connection",
}

#: method names whose call result is an owned resource.
RESOURCE_METHODS = {
    "cursor": "cursor",
    "connect": "connection",
}

#: method names that release the receiver.
RELEASE_METHODS = frozenset({"close", "release", "shutdown"})


def _method_call(node: ast.AST) -> tuple[str, str] | None:
    """(receiver source, method name) when ``node`` is ``recv.method(...)``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return ast.unparse(node.func.value), node.func.attr
    return None


def _is(node: ast.AST, key: str) -> bool:
    """Does expression ``node`` spell the tracked resource ``key``?"""
    return isinstance(node, (ast.Name, ast.Attribute)) and ast.unparse(node) == key


def _releases(node: ast.AST, key: str) -> bool:
    call = _method_call(node)
    return call is not None and call[0] == key and call[1] in RELEASE_METHODS


def _expressions(stmt: ast.stmt):
    """Every expression node ``stmt`` owns (nested statements excluded)."""
    for child in ast.iter_child_nodes(stmt):
        if not isinstance(child, ast.stmt):
            yield from ast.walk(child)


def _hands_off(stmt: ast.stmt, key: str) -> bool:
    """Does ``stmt`` move ownership of ``key`` away, or release it?"""
    if isinstance(stmt, ast.Return) or (
        isinstance(stmt, ast.Expr) and isinstance(stmt.value, (ast.Yield, ast.YieldFrom))
    ):
        value = stmt.value if isinstance(stmt, ast.Return) else stmt.value.value
        if value is not None and _is(value, key):
            return True
    if isinstance(stmt, ast.Expr) and _releases(stmt.value, key):
        return True
    if isinstance(stmt, (ast.With, ast.AsyncWith)) and any(
        _is(item.context_expr, key) for item in stmt.items
    ):
        return True
    if isinstance(stmt, ast.Assign) and _is(stmt.value, key) and any(
        isinstance(target, (ast.Attribute, ast.Subscript)) for target in stmt.targets
    ):
        return True
    return any(
        isinstance(node, ast.Call)
        and any(
            _is(arg, key)
            for arg in [*node.args, *(keyword.value for keyword in node.keywords)]
        )
        for node in _expressions(stmt)
    )


@register
class ResourceLeakRule(Rule):
    __doc__ = __doc__

    id = "RES001"
    severity = "error"
    title = "resource may not be released on every path"

    def check(self, module: ModuleContext) -> list:
        imports = ImportTable.from_tree(module.tree)
        findings = []
        for node in ast.walk(module.tree):
            for field in ("body", "orelse", "finalbody"):
                stmts = getattr(node, field, None)
                if not isinstance(stmts, list):
                    continue
                for stmt, after in zip(stmts, [*stmts[1:], None]):
                    message = self._leak(imports, stmt, after)
                    if message is not None:
                        span = SourceSpan(line=stmt.lineno)
                        findings.append(self.finding(module, span, message))
        return findings

    def _kind(self, imports: ImportTable, value: ast.expr) -> str | None:
        """Resource kind produced by evaluating ``value``, or None."""
        if isinstance(value, ast.IfExp):
            return self._kind(imports, value.body) or self._kind(imports, value.orelse)
        if not isinstance(value, ast.Call):
            return None
        resolved = imports.resolve(value.func)
        if resolved in RESOURCE_FACTORIES:
            return RESOURCE_FACTORIES[resolved]
        call = _method_call(value)
        if call is not None and call[1] in RESOURCE_METHODS:
            return RESOURCE_METHODS[call[1]]
        return None

    def _acquired(
        self, imports: ImportTable, stmt: ast.stmt
    ) -> tuple[str, str] | None:
        """(resource, kind) when ``stmt`` acquires one, else None."""
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ):
            kind = self._kind(imports, stmt.value)
            return (stmt.targets[0].id, kind) if kind is not None else None
        if isinstance(stmt, ast.Expr):
            call = _method_call(stmt.value)
            if call is not None and call[1] == "acquire":
                return call[0], "lock"
        return None

    def _leak(
        self, imports: ImportTable, stmt: ast.stmt, after: ast.stmt | None
    ) -> str | None:
        """The finding message when ``stmt`` acquires a resource that
        ``after`` does not take over, else None."""
        acquired = self._acquired(imports, stmt)
        if acquired is None:
            return None
        key, kind = acquired
        if after is not None:
            if _hands_off(after, key) or (
                isinstance(after, ast.Try)
                and any(
                    _releases(node, key)
                    for final in after.finalbody
                    for node in ast.walk(final)
                )
            ):
                return None
            again = self._acquired(imports, after)
            if again is not None and again[0] == key:
                if kind == "lock":
                    return "lock acquired here may be re-acquired before release"
                return (
                    f"{kind} assigned to {key!r} here is overwritten before "
                    "being released"
                )
        return (
            f"{kind} {key!r} acquired here is not released or closed on every "
            "path to function exit; use a `with` block (or close it in a "
            "`finally`)"
        )
