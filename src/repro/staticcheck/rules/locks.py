"""LOCK001: lock-order and lock-held-across-blocking verification.

The serving and reliability layers are the only places threads and
locks may live (ARCH005), so their locking discipline is checkable in
one place.  This rule builds a per-class lock model from the AST:

1. **Discovery** — ``self.X = threading.Lock()`` / ``RLock()`` /
   ``Condition()`` / ``new_lock()`` defines lock ``Class.X``;
   ``self.X[key] = threading.Lock()`` defines the dict-of-locks family
   ``Class.X[*]``; ``threading.Condition(self.Y)`` makes ``X`` an
   alias of the underlying ``Y``.  Locks made by ``RLock``/``new_lock``
   are reentrant.
2. **Held tracking** — each method body is walked linearly with a
   held-lock stack: ``with self.X:`` (and ``with lock:`` where the
   local was bound from a lock attribute, a dict entry, or a
   lock-getter method) pushes; explicit ``.acquire()`` / ``.release()``
   pairs are honoured too.
3. **Summaries + fixpoint** — every method gets a summary of the locks
   it acquires and the blocking attributes it calls
   (``.sleep``, ``.execute``, ``.generate``); ``self.m(...)`` calls
   propagate summaries transitively, so holding a lock while calling a
   method that three frames down sleeps is still caught.

Findings:

- **lock-order inversion** — lock ``A`` acquired while holding ``B``
  somewhere and ``B`` acquired while holding ``A`` somewhere else: the
  classic ABBA deadlock, reported once per pair with both sites.
- **blocking under lock** — a held lock spans a call whose attribute
  name is a known blocking operation (``Clock.sleep``,
  ``Database.execute``, provider ``generate``), directly or through
  self-method calls.  Serialization-by-design sites carry an inline
  suppression with a justification comment.
- **non-reentrant re-acquisition** — ``with self.X:`` nested under
  itself when ``X`` is a plain ``Lock``: self-deadlock.

Scope: modules under ``serving/`` and ``reliability/``.  Cross-object
edges (holding my lock while calling *another object's* locked method)
are out of static reach and documented as a known limitation.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.staticcheck.findings import Finding, SourceSpan
from repro.staticcheck.module import ModuleContext
from repro.staticcheck.registry import Rule, register
from repro.staticcheck.rules._util import ImportTable, in_scope

#: path prefixes the rule applies to (the only legal lock zones).
SCOPE_PREFIXES = ("serving/", "reliability/")

#: attribute names treated as blocking operations when called.
BLOCKING_ATTRS = frozenset({"sleep", "execute", "generate"})

#: qualified factory names that create a lock (→ reentrant?).
LOCK_FACTORIES = {
    "threading.Lock": False,
    "threading.RLock": True,
    "threading.Condition": False,
    "repro.reliability.sync.new_lock": True,
    "new_lock": True,
}


@dataclass
class LockInfo:
    name: str  # "Class.attr" or "Class.attr[*]"
    reentrant: bool


@dataclass
class MethodSummary:
    """What one method does lock-wise, before fixpoint expansion."""

    acquires: set[str] = field(default_factory=set)
    blocking: set[str] = field(default_factory=set)
    calls: set[str] = field(default_factory=set)


@dataclass(frozen=True)
class _Edge:
    held: str
    acquired: str


@register
class LockOrderRule(Rule):
    __doc__ = __doc__

    id = "LOCK001"
    severity = "error"
    title = "lock-order inversion or blocking call under lock"
    #: the lock-order graph spans modules; never served from cache.
    incremental = False

    def __init__(self):
        #: edge → (path, line, method) of first sighting, across modules
        self._edges: dict[_Edge, tuple[str, int, str]] = {}

    def check(self, module: ModuleContext) -> list[Finding]:
        if not in_scope(module.path, SCOPE_PREFIXES):
            return []
        imports = ImportTable.from_tree(module.tree)
        findings: list[Finding] = []
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(module, imports, node))
        return findings

    def finish(self) -> list[Finding]:
        findings: list[Finding] = []
        for edge, (path, line, method) in sorted(
            self._edges.items(), key=lambda kv: (kv[0].held, kv[0].acquired)
        ):
            reverse = self._edges.get(_Edge(edge.acquired, edge.held))
            if reverse is None or edge.held >= edge.acquired:
                continue
            r_path, r_line, r_method = reverse
            findings.append(
                Finding(
                    rule=self.id,
                    severity=self.severity,
                    path=path,
                    span=SourceSpan(line=line),
                    message=(
                        f"lock-order inversion: {method} acquires "
                        f"{edge.acquired} while holding {edge.held}, but "
                        f"{r_method} ({r_path}:{r_line}) acquires "
                        f"{edge.held} while holding {edge.acquired}"
                    ),
                )
            )
        return findings

    # -- per-class analysis --------------------------------------------------

    def _check_class(
        self, module: ModuleContext, imports: ImportTable, cls: ast.ClassDef
    ) -> list[Finding]:
        locks = self._discover_locks(imports, cls)
        if not locks:
            return []
        methods = {
            item.name: item
            for item in cls.body
            if isinstance(item, ast.FunctionDef)
        }
        getters = self._discover_getters(methods, locks)
        summaries: dict[str, MethodSummary] = {}
        events: list[tuple] = []  # collected per-method under-held events
        for name, fn in methods.items():
            summaries[name] = self._walk_method(
                module, imports, cls.name, fn, locks, getters, events
            )
        self._expand_summaries(summaries)
        findings: list[Finding] = []
        for kind, held, payload, line, method in events:
            if kind == "acquire":
                self._record_acquire(
                    module, cls.name, findings, held, payload, line, method, locks
                )
            elif kind == "blocking":
                findings.append(
                    self.finding(
                        module,
                        SourceSpan(line=line),
                        f"{method} holds {held} across blocking call "
                        f".{payload}(...)",
                    )
                )
            elif kind == "call":
                summary = summaries.get(payload)
                if summary is None:
                    continue
                for acquired in sorted(summary.acquires):
                    self._record_acquire(
                        module,
                        cls.name,
                        findings,
                        held,
                        acquired,
                        line,
                        method,
                        locks,
                    )
                for attr in sorted(summary.blocking):
                    findings.append(
                        self.finding(
                            module,
                            SourceSpan(line=line),
                            f"{method} holds {held} across blocking call "
                            f".{attr}(...) reached via self.{payload}()",
                        )
                    )
        return findings

    def _record_acquire(
        self, module, class_name, findings, held, acquired, line, method, locks
    ) -> None:
        if acquired == held:
            info = locks.get(held)
            if info is not None and not info.reentrant:
                findings.append(
                    self.finding(
                        module,
                        SourceSpan(line=line),
                        f"{method} re-acquires non-reentrant {held} while "
                        "already holding it (self-deadlock)",
                    )
                )
            return
        edge = _Edge(held, acquired)
        self._edges.setdefault(edge, (module.path, line, method))

    # -- discovery -----------------------------------------------------------

    def _discover_locks(
        self, imports: ImportTable, cls: ast.ClassDef
    ) -> dict[str, LockInfo]:
        """``self.X = <factory>()`` assignments anywhere in the class."""
        locks: dict[str, LockInfo] = {}
        aliases: list[tuple[str, str]] = []  # (attr, aliased-to-attr)
        for node in ast.walk(cls):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            if not isinstance(value, ast.Call):
                continue
            resolved = imports.resolve(value.func) or ""
            if resolved not in LOCK_FACTORIES:
                continue
            reentrant = LOCK_FACTORIES[resolved]
            # Condition(self.Y) aliases the condition to Y's lock.
            alias_of = None
            if resolved == "threading.Condition" and value.args:
                arg = value.args[0]
                if self._is_self_attr(arg):
                    alias_of = arg.attr
            for target in node.targets:
                if self._is_self_attr(target):
                    name = f"{cls.name}.{target.attr}"
                    if alias_of is not None:
                        aliases.append((target.attr, alias_of))
                    else:
                        locks[name] = LockInfo(name, reentrant)
                elif (
                    isinstance(target, ast.Subscript)
                    and self._is_self_attr(target.value)
                ):
                    name = f"{cls.name}.{target.value.attr}[*]"
                    locks[name] = LockInfo(name, reentrant)
        for attr, alias_of in aliases:
            target = f"{cls.name}.{alias_of}"
            if target in locks:
                locks[f"{cls.name}.{attr}"] = locks[target]
        return locks

    @staticmethod
    def _is_self_attr(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        )

    def _discover_getters(
        self, methods: dict[str, ast.FunctionDef], locks: dict[str, LockInfo]
    ) -> dict[str, str]:
        """Methods that return a known lock → {method: lock name}."""
        getters: dict[str, str] = {}
        for name, fn in methods.items():
            returned = self._returned_lock(fn, locks)
            if returned is not None:
                getters[name] = returned
        return getters

    def _returned_lock(
        self, fn: ast.FunctionDef, locks: dict[str, LockInfo]
    ) -> str | None:
        # Locals bound to a lock attr / dict entry anywhere in the
        # method.  Two passes (assignments to fixpoint, then returns)
        # because ``ast.walk`` is breadth-first: a ``return lock``
        # can be visited before the nested assignment that binds it.
        local_locks: dict[str, str] = {}
        class_name = next(iter(locks)).split(".", 1)[0] if locks else ""
        changed = True
        while changed:
            changed = False
            for node in ast.walk(fn):
                if not isinstance(node, ast.Assign):
                    continue
                resolved = self._lock_of_expr(node.value, locks, local_locks)
                if resolved is None and isinstance(node.value, ast.Call):
                    # ``lock = self._db_locks[k] = threading.Lock()`` —
                    # the chained Subscript target names the family.
                    for target in node.targets:
                        if isinstance(target, ast.Subscript) and (
                            self._is_self_attr(target.value)
                        ):
                            candidate = (
                                f"{class_name}.{target.value.attr}[*]"
                            )
                            if candidate in locks:
                                resolved = candidate
                if resolved is not None:
                    for target in node.targets:
                        if isinstance(target, ast.Name) and (
                            local_locks.get(target.id) != resolved
                        ):
                            local_locks[target.id] = resolved
                            changed = True
        for node in ast.walk(fn):
            if isinstance(node, ast.Return) and node.value is not None:
                resolved = self._lock_of_expr(node.value, locks, local_locks)
                if resolved is not None:
                    return resolved
        return None

    def _lock_of_expr(
        self,
        node: ast.expr,
        locks: dict[str, LockInfo],
        local_locks: dict[str, str],
        getters: dict[str, str] | None = None,
    ) -> str | None:
        """Lock named by an expression, or None."""
        class_name = next(iter(locks)).split(".", 1)[0] if locks else ""
        if isinstance(node, ast.Name):
            return local_locks.get(node.id)
        if self._is_self_attr(node):
            # .name, not the key: a Condition alias maps the attribute
            # to its underlying lock's canonical name.
            info = locks.get(f"{class_name}.{node.attr}")
            return info.name if info is not None else None
        if isinstance(node, ast.Subscript) and self._is_self_attr(node.value):
            info = locks.get(f"{class_name}.{node.value.attr}[*]")
            return info.name if info is not None else None
        if (
            getters is not None
            and isinstance(node, ast.Call)
            and self._is_self_attr(node.func)
        ):
            return getters.get(node.func.attr)
        return None

    # -- held-stack walking --------------------------------------------------

    def _walk_method(
        self,
        module: ModuleContext,
        imports: ImportTable,
        class_name: str,
        fn: ast.FunctionDef,
        locks: dict[str, LockInfo],
        getters: dict[str, str],
        events: list[tuple],
    ) -> MethodSummary:
        summary = MethodSummary()
        local_locks: dict[str, str] = {}
        held: list[str] = []

        def emit(kind: str, payload: str, line: int) -> None:
            for held_lock in held:
                events.append((kind, held_lock, payload, line, fn.name))

        def walk(stmts: list[ast.stmt]) -> None:
            for stmt in stmts:
                self._scan_expressions(stmt, emit, summary, held)
                if isinstance(stmt, ast.Assign):
                    resolved = self._lock_of_expr(
                        stmt.value, locks, local_locks, getters
                    )
                    if resolved is not None:
                        for target in stmt.targets:
                            if isinstance(target, ast.Name):
                                local_locks[target.id] = resolved
                if isinstance(stmt, ast.With):
                    acquired: list[str] = []
                    for item in stmt.items:
                        lock_name = self._lock_of_expr(
                            item.context_expr, locks, local_locks, getters
                        )
                        if lock_name is not None:
                            summary.acquires.add(lock_name)
                            emit("acquire", lock_name, stmt.lineno)
                            held.append(lock_name)
                            acquired.append(lock_name)
                    walk(stmt.body)
                    for _ in acquired:
                        held.pop()
                elif isinstance(stmt, (ast.If,)):
                    walk(stmt.body)
                    walk(stmt.orelse)
                elif isinstance(stmt, (ast.For, ast.While)):
                    walk(stmt.body)
                    walk(stmt.orelse)
                elif isinstance(stmt, ast.Try):
                    walk(stmt.body)
                    for handler in stmt.handlers:
                        walk(handler.body)
                    walk(stmt.orelse)
                    walk(stmt.finalbody)
                elif isinstance(stmt, ast.Expr) and isinstance(
                    stmt.value, ast.Call
                ):
                    call = stmt.value
                    # explicit .acquire()/.release() on a known lock
                    if isinstance(call.func, ast.Attribute) and (
                        call.func.attr in ("acquire", "release")
                    ):
                        lock_name = self._lock_of_expr(
                            call.func.value, locks, local_locks, getters
                        )
                        if lock_name is not None:
                            if call.func.attr == "acquire":
                                summary.acquires.add(lock_name)
                                emit("acquire", lock_name, stmt.lineno)
                                held.append(lock_name)
                            elif lock_name in held:
                                held.remove(lock_name)

        walk(fn.body)
        return summary

    def _scan_expressions(
        self,
        stmt: ast.stmt,
        emit,
        summary: MethodSummary,
        held: list[str],
    ) -> None:
        """Blocking calls and self-method calls inside one statement.

        Nested ``With`` bodies are walked by the caller with the right
        held stack, so this scan stops at statement boundaries and only
        inspects the expressions owned by ``stmt`` itself.
        """
        for node in ast.iter_child_nodes(stmt):
            if isinstance(node, ast.stmt):
                continue
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Call):
                    continue
                func = sub.func
                if not isinstance(func, ast.Attribute):
                    continue
                if func.attr in BLOCKING_ATTRS:
                    summary.blocking.add(func.attr)
                    emit("blocking", func.attr, sub.lineno)
                elif self._is_self_attr(func):
                    summary.calls.add(func.attr)
                    emit("call", func.attr, sub.lineno)

    def _expand_summaries(self, summaries: dict[str, MethodSummary]) -> None:
        """Propagate acquires/blocking through self-method calls."""
        changed = True
        while changed:
            changed = False
            for summary in summaries.values():
                for callee in list(summary.calls):
                    other = summaries.get(callee)
                    if other is None:
                        continue
                    before = (len(summary.acquires), len(summary.blocking))
                    summary.acquires |= other.acquires
                    summary.blocking |= other.blocking
                    if (
                        len(summary.acquires),
                        len(summary.blocking),
                    ) != before:
                        changed = True
