"""ARCH001–ARCH008: the architectural rules, on real AST visitors.

Ported from the original regex architecture lint.  The port closes
the old false-negative classes: import aliases (``import time as t``),
from-imports of clock functions, and multiline call spellings all
resolve through :class:`~repro.staticcheck.rules._util.ImportTable`
instead of matching surface receiver names.

Six of the rules (ARCH001, ARCH004–ARCH008) are one check — "this
module or call is confined to that package" — so they are data: each
is a :class:`ContainmentRule` carrying a table of :class:`Ban`
clauses; DET001 keeps its entropy-source bans in the same table.
Every path exemption, here and in the other path-scoped rules, goes
through :func:`~repro.staticcheck.rules._util.in_scope`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.staticcheck.findings import Finding, SourceSpan
from repro.staticcheck.module import ModuleContext
from repro.staticcheck.registry import Rule, register
from repro.staticcheck.rules._util import (
    ImportTable,
    imported_modules,
    in_scope,
    module_matches,
)


@dataclass(frozen=True)
class Ban:
    """One containment clause: what is banned, and where it is allowed.

    ``modules`` bans importing each module and its submodules;
    ``calls`` bans calling each qualified target, resolved through the
    module's imports.  The clause is lifted inside ``allowed`` and, when
    ``only`` is set, applies nowhere outside ``only``.  ``message`` may
    name the offender as ``{name}``.
    """

    message: str
    modules: tuple[str, ...] = ()
    calls: frozenset[str] = frozenset()
    allowed: tuple[str, ...] = ()
    only: tuple[str, ...] | None = None

    def applies(self, path: str) -> bool:
        return not in_scope(path, self.allowed) and (
            self.only is None or in_scope(path, self.only)
        )

    def offender(
        self, node: ast.AST, imports: ImportTable | None
    ) -> str | None:
        """The banned name ``node`` uses, or ``None``."""
        if isinstance(node, ast.Call):
            resolved = imports.resolve(node.func) if self.calls else None
            return resolved if resolved in self.calls else None
        for name in imported_modules(node):
            if any(module_matches(name, banned) for banned in self.modules):
                return name
        return None


class ContainmentRule(Rule):
    """Base for rules that are a table of :class:`Ban` clauses.

    Each import statement and each call yields at most one finding: the
    first clause (in table order) it breaks.
    """

    clauses: tuple[Ban, ...] = ()

    def check(self, module: ModuleContext) -> list[Finding]:
        clauses = [c for c in self.clauses if c.applies(module.path)]
        if not clauses:
            return []
        imports = None
        if any(clause.calls for clause in clauses):
            imports = ImportTable.from_tree(module.tree)
        findings = []
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom, ast.Call)):
                continue
            for clause in clauses:
                name = clause.offender(node, imports)
                if name is not None:
                    message = clause.message.format(name=name)
                    findings.append(self.finding(module, node, message))
                    break
        return findings


@register
class RawClockRule(ContainmentRule):
    """Raw clock reads.

    ``time.time()``, ``time.monotonic()``, ``time.perf_counter()``,
    ``datetime.now()`` and ``datetime.utcnow()`` are forbidden
    everywhere in ``src/repro/`` except ``reliability/clock.py``.
    Timing must flow through the injectable
    :class:`repro.reliability.clock.Clock` protocol so tests can use
    ``FakeClock`` instead of sleeping.  Detection is alias-aware:
    ``import time as t; t.time()`` and ``from time import monotonic``
    are both caught.
    """

    id = "ARCH001"
    severity = "error"
    title = "raw clock reads outside reliability/clock.py"

    clauses = (
        Ban(
            calls=frozenset(
                {
                    "time.time",
                    "time.monotonic",
                    "time.perf_counter",
                    "time.perf_counter_ns",
                    "time.monotonic_ns",
                    "datetime.now",
                    "datetime.utcnow",
                    "datetime.datetime.now",
                    "datetime.datetime.utcnow",
                }
            ),
            allowed=("reliability/clock.py",),
            message="raw clock call {name}(); inject "
            "repro.reliability.clock.Clock instead",
        ),
    )


@register
class BlanketExceptRule(Rule):
    """Blanket exception swallowing.

    ``except Exception`` / ``except BaseException`` / bare ``except:``
    handlers must either re-raise or classify the failure into the
    library taxonomy (raise a ``ReproError`` subtype, or record it via
    a recognised failure sink such as ``failures[...]`` /
    ``FailureRecord`` / ``classify*``).  Anything else silently
    converts programming errors into wrong results.
    """

    id = "ARCH002"
    severity = "error"
    title = "blanket except without re-raise or taxonomy classification"

    #: identifiers whose presence in a handler marks classification.
    TAXONOMY_SINKS = ("failures", "FailureRecord", "classify")

    def check(self, module: ModuleContext) -> list[Finding]:
        findings = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler) and self._is_blanket(node):
                if not (self._reraises(node) or self._classifies(node)):
                    findings.append(
                        self.finding(
                            module,
                            node,
                            "blanket except swallows errors; re-raise or "
                            "classify into the failure taxonomy",
                        )
                    )
        return findings

    @staticmethod
    def _is_blanket(handler: ast.ExceptHandler) -> bool:
        if handler.type is None:  # bare except:
            return True
        node = handler.type
        if isinstance(node, ast.Tuple):
            return any(
                isinstance(item, ast.Name)
                and item.id in ("Exception", "BaseException")
                for item in node.elts
            )
        return isinstance(node, ast.Name) and node.id in (
            "Exception",
            "BaseException",
        )

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        return any(isinstance(node, ast.Raise) for node in ast.walk(handler))

    def _classifies(self, handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            name = None
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            if name and any(sink in name for sink in self.TAXONOMY_SINKS):
                return True
        return False


@register
class LowerComparisonRule(Rule):
    """Ad-hoc case-insensitive identifier comparison.

    Equality comparisons against ``.lower()`` / ``.casefold()`` calls
    (``a.lower() == b.lower()``) outside ``sqlgen/`` and ``analysis/``
    are forbidden: SQL identifier identity is owned by
    ``repro.sqlgen.ast.identifier_key`` / ``ColumnRef.key()`` /
    ``SchemaCatalog`` lookups.  Scattered ``.lower()`` spellings drift
    (casefold vs. lower, one side normalized but not the other) and
    make identifier semantics unauditable.  Normalized-key dict/set
    *lookups* (``name.lower() in mapping``) are the sanctioned catalog
    pattern and stay legal.
    """

    id = "ARCH003"
    severity = "error"
    title = "ad-hoc .lower() identifier comparison outside sqlgen/analysis"

    #: path prefixes that own identifier normalization.
    ALLOWLIST_PREFIXES = ("sqlgen/", "analysis/")

    #: case-normalizing string methods the rule looks for.
    CASE_NORMALIZERS = ("lower", "casefold")

    def check(self, module: ModuleContext) -> list[Finding]:
        if in_scope(module.path, self.ALLOWLIST_PREFIXES):
            return []
        findings = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Compare) and self._compares_normalized(node):
                findings.append(
                    self.finding(
                        module,
                        node,
                        "ad-hoc .lower() identifier comparison; route "
                        "through repro.sqlgen.ast.identifier_key / "
                        "ColumnRef.key() / SchemaCatalog lookups",
                    )
                )
        return findings

    def _is_normalizer_call(self, node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and not node.args
            and not node.keywords
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in self.CASE_NORMALIZERS
        )

    def _compares_normalized(self, node: ast.Compare) -> bool:
        # Membership tests (``key in mapping``) are excluded: looking
        # up a normalized key in a normalized mapping is the catalog
        # pattern, not an ad-hoc comparison.
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            return False
        operands = [node.left, *node.comparators]
        return any(self._is_normalizer_call(operand) for operand in operands)


@register
class EngineEncapsulationRule(ContainmentRule):
    """Engine stage encapsulation.

    The staged-inference internals (``repro.engine._stages``) may only
    be imported inside ``engine/``; everyone else composes pipelines
    through ``repro.engine.build_default_engine`` or
    ``CodeSParser.build_engine``.  And no module outside ``core/`` or
    ``engine/`` may re-implement the inline generation pipeline —
    detected as importing both of its private ingredients
    (``repro.core.slotfill`` and ``repro.core.ranking``) in one
    module.  The decomposition only stays a refactor if exactly one
    place wires the stages together.
    """

    id = "ARCH004"
    severity = "error"
    title = "engine stage internals / inline pipeline encapsulation"

    clauses = (
        Ban(
            modules=("repro.engine._stages",),
            allowed=("engine/",),
            message="stage internals import (repro.engine._stages) "
            "outside engine/; compose pipelines via "
            "repro.engine.build_default_engine",
        ),
    )
    PIPELINE_INGREDIENTS = ("repro.core.slotfill", "repro.core.ranking")
    PIPELINE_ALLOWLIST_PREFIXES = ("core/", "engine/")

    def check(self, module: ModuleContext) -> list[Finding]:
        findings = super().check(module)
        if in_scope(module.path, self.PIPELINE_ALLOWLIST_PREFIXES):
            return findings
        pipeline_imports: dict[str, int] = {}
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for name in imported_modules(node):
                for ingredient in self.PIPELINE_INGREDIENTS:
                    if module_matches(name, ingredient):
                        pipeline_imports.setdefault(ingredient, node.lineno)
        if len(pipeline_imports) == len(self.PIPELINE_INGREDIENTS):
            findings.append(
                self.finding(
                    module,
                    SourceSpan(line=max(pipeline_imports.values())),
                    "imports every private pipeline ingredient "
                    f"({', '.join(self.PIPELINE_INGREDIENTS)}); the inline "
                    "generation pipeline is wired only in core/ and "
                    "engine/ — go through the staged engine",
                )
            )
        return findings


@register
class ConcurrencyContainmentRule(ContainmentRule):
    """Concurrency containment.

    Thread, lock, and queue primitives (``threading``, ``_thread``,
    ``queue``, ``multiprocessing``, ``concurrent.*``) may only be
    imported inside ``serving/`` and ``reliability/``.  The engine,
    the parser, and every model layer stay single-threaded and
    deterministic; all concurrency lives behind the serving facade
    where it is tested on a FakeClock.
    """

    id = "ARCH005"
    severity = "error"
    title = "concurrency primitives outside serving/ and reliability/"

    clauses = (
        Ban(
            modules=(
                "threading",
                "_thread",
                "queue",
                "multiprocessing",
                "concurrent",
            ),
            allowed=("serving/", "reliability/"),
            message="concurrency primitive import ({name}) outside "
            "serving/ and reliability/; the engine and model layers "
            "stay single-threaded",
        ),
    )


@register
class ProviderEncapsulationRule(ContainmentRule):
    """Provider encapsulation.

    LM provider *implementations* (``repro.lm.providers.local`` /
    ``.sim`` / ``.router``) may only be imported inside
    ``lm/providers/`` and ``lm/registry.py`` — the registry is the
    sanctioned construction point (``LMRegistry.router_for``).  And
    ``engine/`` and ``serving/`` may import nothing from
    ``repro.lm.providers`` at all (not even the protocol or config):
    the engine reaches providers through ``parser.router`` and serving
    reads router statistics as plain dicts, so failover topology can
    change without touching either layer.
    """

    id = "ARCH006"
    severity = "error"
    title = "provider implementation imports outside the registry"

    clauses = (
        Ban(
            modules=("repro.lm.providers",),
            allowed=("lm/providers/", "lm/registry.py"),
            only=("engine/", "serving/"),
            message="repro.lm.providers import inside engine/ or "
            "serving/; the engine consumes providers via parser.router "
            "and serving reads router stats as plain dicts",
        ),
        # ``base`` and ``config`` are interface/data, not implementations.
        Ban(
            modules=(
                "repro.lm.providers.local",
                "repro.lm.providers.sim",
                "repro.lm.providers.router",
            ),
            allowed=("lm/providers/", "lm/registry.py"),
            message="provider implementation import "
            "(repro.lm.providers.{{local|sim|router}}) outside "
            "lm/providers/; construct routers via LMRegistry.router_for "
            "or the repro.lm.providers package API",
        ),
    )


@register
class SqliteContainmentRule(ContainmentRule):
    """SQLite containment.

    ``sqlite3`` may only be imported inside ``db/backends/`` — the one
    layer that implements the :class:`repro.db.backends.ExecutionBackend`
    protocol over the real engine.  Every other layer (engine stages,
    analysis, eval, serving, datasets) programs against the protocol
    and the backend's :class:`~repro.db.backends.BackendCapabilities`,
    so adding a backend never means chasing stray ``sqlite3`` calls
    through the codebase.  Detection is alias-aware: ``import sqlite3
    as s3`` and ``from sqlite3 import connect`` are both caught.
    """

    id = "ARCH007"
    severity = "error"
    title = "sqlite3 imports outside db/backends/"

    clauses = (
        Ban(
            modules=("sqlite3",),
            allowed=("db/backends/",),
            message="sqlite3 import outside db/backends/; program "
            "against the ExecutionBackend protocol (repro.db.backends) "
            "instead of the driver",
        ),
    )


@register
class IPCContainmentRule(ContainmentRule):
    """Cross-process IPC containment.

    ``multiprocessing`` and ``concurrent.futures`` may only be
    imported inside ``serving/sharding/`` — the transport layer that
    owns worker processes — and pipe/queue IPC primitives
    (``multiprocessing.Pipe``/``Queue``/``Manager``,
    ``ProcessPoolExecutor``) may only be *constructed* there.  ARCH005
    contains thread primitives to ``serving/`` + ``reliability/``;
    this rule narrows the process toolbox further: everything
    cross-process speaks the sharding message protocol through a
    :class:`~repro.serving.sharding.transport.WorkerHandle`, so fork
    semantics, pickling constraints, and pipe lifecycles are audited
    in exactly one place.  Detection is alias-aware: ``import
    multiprocessing as mp; mp.Pipe()`` and ``from multiprocessing
    import Pipe`` are both caught.
    """

    id = "ARCH008"
    severity = "error"
    title = "multiprocessing/IPC primitives outside serving/sharding/"

    clauses = (
        Ban(
            modules=("multiprocessing", "concurrent.futures"),
            allowed=("serving/sharding/",),
            message="cross-process import ({name}) outside "
            "serving/sharding/; worker processes are reached through "
            "the sharding transport",
        ),
        Ban(
            calls=frozenset(
                {
                    "multiprocessing.Pipe",
                    "multiprocessing.Queue",
                    "multiprocessing.SimpleQueue",
                    "multiprocessing.JoinableQueue",
                    "multiprocessing.Manager",
                    "multiprocessing.connection.Pipe",
                    "concurrent.futures.ProcessPoolExecutor",
                }
            ),
            allowed=("serving/sharding/",),
            message="IPC primitive {name}() constructed outside "
            "serving/sharding/; pipes and process pools live behind "
            "the WorkerHandle transport",
        ),
    )
