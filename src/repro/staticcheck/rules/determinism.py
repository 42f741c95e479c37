"""DET001: determinism lint — the repro must be byte-stable by construction.

Per the text-to-SQL benchmark-evaluation literature, nondeterministic
predictions dominate error tails; this reproduction pins byte-identical
outputs (golden engine parity, seeded loadgen), which one unseeded
draw or one hash-order iteration silently breaks.  Four sub-checks:

- **Unseeded module-level RNG** — calls on the ``random`` *module*
  (``random.random()``, ``random.choice()``, …), ``random.Random()`` /
  ``numpy.random.default_rng()`` with no seed argument, and any
  ``numpy.random.*`` module-level draw.  Seeded instances
  (``random.Random(seed)``, ``default_rng(seed)``) are the sanctioned
  pattern and stay legal.
- **Entropy sources** — ``os.urandom``, ``uuid.uuid4``, and anything
  from ``secrets``: there is no such thing as seeding these.
- **Builtin ``hash()`` outside a ``__hash__`` body** — string and
  bytes hashes vary per process (``PYTHONHASHSEED``), so an id or
  shard key derived from ``hash(name)`` differs between runs and
  between a parent and its workers.  Derive it with ``zlib.crc32`` or
  ``hashlib``; inside ``__hash__`` the value only has to agree with
  ``__eq__`` within one process, so it stays legal there.
- **Set-order iteration feeding ordered output** — iterating directly
  over a set literal / ``set(...)`` / set comprehension in a ``for``
  statement, list/generator comprehension, ``list()`` / ``tuple()`` /
  ``enumerate()`` / ``str.join()``: string hashes vary per process
  (``PYTHONHASHSEED``), so the produced order differs across runs.
  Wrap in ``sorted(...)`` or dedupe with ``dict.fromkeys`` (insertion
  -ordered) instead.  Membership tests and set-typed *variables* are
  out of static reach and stay legal.

Alias-aware: ``import numpy as np; np.random.rand()`` and
``from random import choice; choice(xs)`` are both caught.
"""

from __future__ import annotations

import ast

from repro.staticcheck.findings import Finding
from repro.staticcheck.module import ModuleContext
from repro.staticcheck.registry import Rule, register
from repro.staticcheck.rules._util import ImportTable

#: ordered consumers whose argument must not be a bare set expression.
_ORDERED_BUILTIN_CONSUMERS = ("list", "tuple", "enumerate")


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


@register
class DeterminismRule(Rule):
    __doc__ = __doc__

    id = "DET001"
    severity = "error"
    title = "unseeded randomness or hash-order-dependent iteration"

    def check(self, module: ModuleContext) -> list[Finding]:
        imports = ImportTable.from_tree(module.tree)
        in_dunder_hash = {
            id(inner)
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "__hash__"
            for inner in ast.walk(node)
        }
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                findings.extend(
                    self._check_call(module, imports, node, in_dunder_hash)
                )
            elif isinstance(node, ast.For):
                findings.extend(
                    self._check_set_iteration(module, node.iter, "for loop")
                )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                for generator in node.generators:
                    findings.extend(
                        self._check_set_iteration(
                            module, generator.iter, "comprehension"
                        )
                    )
        return findings

    def _check_call(
        self,
        module: ModuleContext,
        imports: ImportTable,
        node: ast.Call,
        in_dunder_hash: set[int],
    ) -> list[Finding]:
        findings: list[Finding] = []
        resolved = imports.resolve(node.func) or ""

        if resolved == "random.Random":
            if not node.args and not node.keywords:
                findings.append(
                    self.finding(
                        module,
                        node,
                        "random.Random() without a seed draws from OS "
                        "entropy; pass an explicit seed",
                    )
                )
        elif resolved == "random.SystemRandom":
            findings.append(
                self.finding(
                    module, node, "random.SystemRandom cannot be seeded"
                )
            )
        elif resolved.startswith("random.") and resolved.count(".") == 1:
            findings.append(
                self.finding(
                    module,
                    node,
                    f"module-level {resolved}() draws from the shared "
                    "unseeded RNG; use a random.Random(seed) instance",
                )
            )
        elif resolved in ("numpy.random.default_rng", "numpy.random.Generator"):
            if resolved.endswith("default_rng") and not (
                node.args or node.keywords
            ):
                findings.append(
                    self.finding(
                        module,
                        node,
                        "numpy.random.default_rng() without a seed; pass "
                        "an explicit seed",
                    )
                )
        elif resolved.startswith("numpy.random."):
            findings.append(
                self.finding(
                    module,
                    node,
                    f"module-level {resolved}() draws from numpy's global "
                    "unseeded RNG; use numpy.random.default_rng(seed)",
                )
            )
        elif resolved == "os.urandom":
            findings.append(
                self.finding(module, node, "os.urandom is pure OS entropy")
            )
        elif resolved in ("uuid.uuid1", "uuid.uuid4"):
            findings.append(
                self.finding(
                    module,
                    node,
                    f"{resolved}() is nondeterministic; derive ids from "
                    "seeded or content-addressed state",
                )
            )
        elif resolved.startswith("secrets."):
            findings.append(
                self.finding(
                    module, node, f"{resolved}() draws from OS entropy"
                )
            )
        elif resolved == "hash" and id(node) not in in_dunder_hash:
            findings.append(
                self.finding(
                    module,
                    node,
                    "builtin hash() varies with PYTHONHASHSEED across "
                    "processes; derive stable values with zlib.crc32 or "
                    "hashlib (it is legal only inside __hash__)",
                )
            )

        # Ordered consumers over bare set expressions.
        consumer = None
        if isinstance(node.func, ast.Name) and (
            node.func.id in _ORDERED_BUILTIN_CONSUMERS
        ):
            consumer = f"{node.func.id}()"
        elif (
            isinstance(node.func, ast.Attribute) and node.func.attr == "join"
        ):
            consumer = "str.join()"
        if consumer and node.args and _is_set_expr(node.args[0]):
            findings.append(
                self.finding(
                    module,
                    node,
                    f"{consumer} over a set expression produces "
                    "hash-order-dependent output; wrap in sorted(...) or "
                    "dedupe with dict.fromkeys",
                )
            )
        return findings

    def _check_set_iteration(
        self, module: ModuleContext, iter_expr: ast.expr, where: str
    ) -> list[Finding]:
        if _is_set_expr(iter_expr):
            return [
                self.finding(
                    module,
                    iter_expr,
                    f"{where} iterates a set expression in hash order, "
                    "which varies with PYTHONHASHSEED; wrap in "
                    "sorted(...) or dedupe with dict.fromkeys",
                )
            ]
        return []
