"""Shared AST helpers for rule implementations.

The central piece is :class:`ImportTable`, which resolves local names
through the module's import aliases so rules reason about *qualified*
names instead of surface spellings.  This closes the false-negative
classes the old regex-era checks had: ``import time as t; t.time()``
and ``from time import monotonic; monotonic()`` both resolve to
``time.time`` / ``time.monotonic`` here.
"""

from __future__ import annotations

import ast


class ImportTable:
    """Local-name → dotted-origin map built from a module's imports."""

    def __init__(self):
        #: e.g. {"t": "time", "np": "numpy", "monotonic": "time.monotonic"}
        self.aliases: dict[str, str] = {}

    @classmethod
    def from_tree(cls, tree: ast.AST) -> "ImportTable":
        table = cls()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    origin = alias.name if alias.asname else local
                    table.aliases[local] = origin
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    table.aliases[local] = f"{node.module}.{alias.name}"
        return table

    def resolve(self, node: ast.expr) -> str | None:
        """Dotted origin of an expression, or ``None`` if not name-like.

        ``t.time`` with ``import time as t`` resolves to ``time.time``;
        an unresolvable base name is kept verbatim (``obj.time`` stays
        ``obj.time``), so callers can still pattern-match heuristically.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.aliases.get(node.id, node.id)
        parts.append(base)
        return ".".join(reversed(parts))


def imported_modules(node: ast.AST) -> list[str]:
    """Module names an Import/ImportFrom statement references.

    ``from repro.engine import _stages`` reports both ``repro.engine``
    and ``repro.engine._stages`` so submodule imports spelled either
    way are visible to import-policy rules.
    """
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        return [node.module] + [
            f"{node.module}.{alias.name}" for alias in node.names
        ]
    return []


def module_matches(module: str, target: str) -> bool:
    """Is ``module`` exactly ``target`` or a name inside it?"""
    return module == target or module.startswith(target + ".")


def in_scope(path: str, scopes) -> bool:
    """Does the module at ``path`` fall inside any of ``scopes``?

    The one scope rule every path-scoped check uses.  A directory scope
    (``"serving/"``) matches at any path-component boundary and a file
    scope (``"engine/_stages.py"``) matches as a component-aligned
    suffix, so ``serving/m.py``, ``repro/serving/m.py`` and
    ``src/repro/serving/m.py`` are all in ``serving/`` whichever
    directory the check was rooted at — but ``myserving/m.py`` is not.
    """
    rooted = f"/{path}"
    return any(
        f"/{scope}" in rooted
        if scope.endswith("/")
        else rooted.endswith(f"/{scope}")
        for scope in scopes
    )


def const_str_tuple(node: ast.expr) -> tuple[str, ...] | None:
    """The value of a literal tuple/list of string constants, else None."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    values: list[str] = []
    for element in node.elts:
        if not (
            isinstance(element, ast.Constant) and isinstance(element.value, str)
        ):
            return None
        values.append(element.value)
    return tuple(values)
