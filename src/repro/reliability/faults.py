"""Deterministic fault injection for databases and generators.

Reliability code that is only exercised by real outages is untested
code.  :class:`FaultyDatabase` and :class:`FlakyLLM` wrap the real
components and inject the failure modes the serving path must survive
— execution errors, timeouts, corrupted rows, generation failures — at
configurable rates driven by a seeded RNG, so every injected fault
sequence is reproducible from ``(seed, call order)`` alone.
:class:`SchemaHallucinator` injects the *semantic* failure mode — beam
candidates referencing hallucinated schema items — that the lint gate
(:mod:`repro.analysis`) exists to catch, and :class:`BeamDuplicator`
injects the *redundancy* failure mode — surface-variant duplicate
candidates — that the equivalence dedup exists to collapse.
"""

from __future__ import annotations

import random
from typing import Any

from repro.errors import (
    DeadlineExceededError,
    ExecutionError,
    GenerationError,
    SQLSyntaxError,
)

Row = tuple[Any, ...]


def _validate_rate(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return float(value)


class FaultDecider:
    """The seeded fault-decision core every generation injector shares.

    One decider, one RNG stream, one draw per decision: given
    ``(label, seed)`` the sequence of ``None`` / ``"failure"`` /
    ``"timeout"`` verdicts is reproducible from call order alone.  Both
    the legacy :class:`FlakyLLM` generator wrapper (eval harness) and
    the provider-protocol :class:`repro.lm.providers.FlakyProvider`
    (router chaos tests) delegate here, so the two injectors cannot
    drift apart in rate semantics or determinism.
    """

    def __init__(
        self,
        failure_rate: float = 0.0,
        timeout_rate: float = 0.0,
        seed: int = 0,
        label: str = "fault-decider",
    ):
        self.failure_rate = _validate_rate("failure_rate", failure_rate)
        self.timeout_rate = _validate_rate("timeout_rate", timeout_rate)
        self.seed = seed
        self.label = label
        self._rng = random.Random(f"{label}:{seed}")
        self.injected_failures = 0
        self.injected_timeouts = 0

    def decide(self) -> tuple[str | None, float]:
        """One seeded decision: ``(verdict, draw)``.

        ``verdict`` is ``"failure"``, ``"timeout"``, or ``None`` (the
        call should proceed); ``draw`` is the uniform sample behind it,
        surfaced so injectors can echo it in error messages.
        """
        draw = self._rng.random()
        if draw < self.failure_rate:
            self.injected_failures += 1
            return "failure", draw
        if draw < self.failure_rate + self.timeout_rate:
            self.injected_timeouts += 1
            return "timeout", draw
        return None, draw

    @property
    def injected_faults(self) -> int:
        return self.injected_failures + self.injected_timeouts


class FaultyDatabase:
    """A :class:`~repro.db.backends.sqlite.Database` wrapper that injects faults.

    Each ``execute`` call draws once from the seeded RNG and, in order
    of precedence, may raise an injected :class:`ExecutionError`
    (``error_rate``), raise an injected
    :class:`DeadlineExceededError` (``timeout_rate``), or corrupt the
    returned rows (``corrupt_rate`` — string cells are garbled, numeric
    cells negated).  All other attributes delegate to the wrapped
    database, so the wrapper is drop-in anywhere a ``Database`` goes.
    """

    def __init__(
        self,
        database,
        error_rate: float = 0.0,
        timeout_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        seed: int = 0,
    ):
        self._database = database
        self.error_rate = _validate_rate("error_rate", error_rate)
        self.timeout_rate = _validate_rate("timeout_rate", timeout_rate)
        self.corrupt_rate = _validate_rate("corrupt_rate", corrupt_rate)
        self._rng = random.Random(f"faulty-database:{seed}")
        self.injected_errors = 0
        self.injected_timeouts = 0
        self.injected_corruptions = 0

    def __getattr__(self, name: str):
        return getattr(self._database, name)

    def _corrupt_cell(self, cell: Any) -> Any:
        if isinstance(cell, str):
            return cell[::-1] + "\x00"
        if isinstance(cell, bool):
            return not cell
        if isinstance(cell, (int, float)):
            return -cell - 1
        return None

    def execute(self, sql: str, max_rows: int = 100_000, deadline=None) -> list[Row]:
        draw = self._rng.random()
        if draw < self.error_rate:
            self.injected_errors += 1
            raise ExecutionError(f"injected fault (draw={draw:.4f}): {sql[:60]!r}")
        if draw < self.error_rate + self.timeout_rate:
            self.injected_timeouts += 1
            raise DeadlineExceededError(
                f"injected timeout (draw={draw:.4f}): {sql[:60]!r}",
                elapsed_s=float("inf"),
            )
        rows = self._database.execute(sql, max_rows=max_rows, deadline=deadline)
        if draw < self.error_rate + self.timeout_rate + self.corrupt_rate and rows:
            self.injected_corruptions += 1
            rows = [tuple(self._corrupt_cell(cell) for cell in row) for row in rows]
        return rows

    def is_executable(self, sql: str, deadline=None) -> bool:
        try:
            self.execute(sql, max_rows=1, deadline=deadline)
            return True
        except ExecutionError:
            return False

    @property
    def injected_faults(self) -> int:
        return self.injected_errors + self.injected_timeouts + self.injected_corruptions


class SchemaHallucinator:
    """A beam perturber that injects hallucinated-schema candidates.

    Real LLMs routinely hallucinate near-miss schema items (the
    dominant error class in Rajkumar et al.'s audit); this repro's
    retrieval-and-fill generator is schema-grounded and cannot.  The
    hallucinator restores that failure mode deterministically so the
    lint gate has something to catch: install it as
    ``CodeSParser(beam_perturber=...)`` and, at ``rate`` per beam, it
    prepends ``n_candidates`` copies of the top candidate whose last
    schema identifier is renamed to a near-miss name.  The corrupted
    SQL still parses — it fails *semantically* (unknown table/column),
    which is exactly the class of candidate the ungated beam pays an
    execution round-trip to reject.
    """

    def __init__(self, rate: float = 1.0, n_candidates: int = 2, seed: int = 0):
        self.rate = _validate_rate("rate", rate)
        self.n_candidates = n_candidates
        self._rng = random.Random(f"schema-hallucinator:{seed}")
        self.injected_candidates = 0

    def __call__(self, beam: list[str]) -> list[str]:
        if not beam or self._rng.random() >= self.rate:
            return beam
        corrupted = []
        for index in range(self.n_candidates):
            bad = self._hallucinate(beam[0], index)
            if bad is not None and bad not in beam and bad not in corrupted:
                corrupted.append(bad)
        self.injected_candidates += len(corrupted)
        return corrupted + beam

    def _hallucinate(self, sql: str, variant: int) -> str | None:
        """Rename the last schema identifier in ``sql`` to a near-miss."""
        from repro.sqlgen.lexer import TokenKind, tokenize_sql

        try:
            tokens = tokenize_sql(sql)
        except SQLSyntaxError:
            return None
        targets = [
            token
            for position, token in enumerate(tokens)
            if token.kind is TokenKind.IDENTIFIER
            # skip function names: f(...) stays callable
            and not (
                position + 1 < len(tokens)
                and tokens[position + 1].kind is TokenKind.PUNCT
                and tokens[position + 1].value == "("
            )
        ]
        if not targets:
            return None
        token = targets[-1]
        phantom = f"{token.value}_x{variant}"
        end = token.position + len(token.value)
        return sql[: token.position] + phantom + sql[end:]


class BeamDuplicator:
    """A beam perturber that injects surface-variant duplicate candidates.

    Real LLM beams are riddled with candidates that differ only in
    spelling — reordered conjuncts, ``BETWEEN`` vs. explicit range,
    identifier casing — and execute identically (Rajkumar et al.); this
    repro's generator dedupes by exact text and cannot reproduce that
    redundancy.  The duplicator restores it deterministically so the
    equivalence dedup in :mod:`repro.core.parser` has something to
    collapse: install it as ``CodeSParser(beam_perturber=...)`` and, at
    ``rate`` per beam, it prepends up to ``n_duplicates``
    canonically-equivalent rewrites of the top candidate.  Without
    dedup each duplicate costs the beam one redundant execution
    round-trip — exactly the waste the engine exists to avoid.
    """

    def __init__(self, rate: float = 1.0, n_duplicates: int = 2, seed: int = 0):
        self.rate = _validate_rate("rate", rate)
        self.n_duplicates = n_duplicates
        self._rng = random.Random(f"beam-duplicator:{seed}")
        self.injected_duplicates = 0

    def __call__(self, beam: list[str]) -> list[str]:
        if not beam or self._rng.random() >= self.rate:
            return beam
        duplicates = []
        for index in range(self.n_duplicates):
            variant = self._surface_variant(beam[0], index)
            if variant is not None and variant not in beam and variant not in duplicates:
                duplicates.append(variant)
        self.injected_duplicates += len(duplicates)
        return duplicates + beam

    def _surface_variant(self, sql: str, variant: int) -> str | None:
        """The ``variant``-th execution-equivalent respelling of ``sql``.

        Rewrites cycle through the surface freedoms the canonicalizer
        erases — reversed AND/OR conjuncts, reversed IN lists, flipped
        join-edge orientation, identifier case-flips (the sqlgen
        serializer preserves casing; SQLite and the canonical key do
        not care).  None of them can change execution results.
        """
        from dataclasses import replace

        from repro.sqlgen.ast import (
            Aggregation,
            ColumnRef,
            CompoundCondition,
            InCondition,
            JoinEdge,
            SelectItem,
        )
        from repro.sqlgen.parser import parse_sql
        from repro.sqlgen.dialects.sqlite import SQLITE_EMITTER

        try:
            query = parse_sql(sql)
        except SQLSyntaxError:
            return None

        def case_flip(name: str) -> str:
            flipped = name.upper() if name != name.upper() else name.lower()
            return flipped

        rewrites = []
        if isinstance(query.where, CompoundCondition) and len(query.where.conditions) > 1:
            rewrites.append(
                replace(
                    query,
                    where=CompoundCondition(
                        op=query.where.op,
                        conditions=tuple(reversed(query.where.conditions)),
                    ),
                )
            )
        if isinstance(query.where, InCondition) and len(query.where.values) > 1:
            rewrites.append(
                replace(
                    query,
                    where=InCondition(
                        expr=query.where.expr,
                        values=tuple(reversed(query.where.values)),
                        negated=query.where.negated,
                    ),
                )
            )
        if query.joins:
            edge = query.joins[0]
            rewrites.append(
                replace(
                    query,
                    joins=(
                        JoinEdge(table=edge.table, left=edge.right, right=edge.left),
                        *query.joins[1:],
                    ),
                )
            )
        rewrites.append(replace(query, from_table=case_flip(query.from_table)))
        for index, item in enumerate(query.select_items):
            expr = item.expr
            if isinstance(expr, ColumnRef) and expr.column != "*":
                flipped_expr = ColumnRef(expr.table, case_flip(expr.column))
            elif isinstance(expr, Aggregation) and expr.arg.column != "*":
                flipped_expr = Aggregation(
                    func=expr.func,
                    arg=ColumnRef(expr.arg.table, case_flip(expr.arg.column)),
                    distinct=expr.distinct,
                )
            else:
                continue
            items = list(query.select_items)
            items[index] = SelectItem(expr=flipped_expr, alias=item.alias)
            rewrites.append(replace(query, select_items=tuple(items)))

        seen: list[str] = []
        for rewrite in rewrites:
            text = SQLITE_EMITTER.serialize(rewrite)
            if text != sql and text not in seen:
                seen.append(text)
        return seen[variant] if variant < len(seen) else None


class FlakyLLM:
    """A generator wrapper injecting generation failures and timeouts.

    Wraps anything with a ``generate(question, database, **kwargs)``
    method (a :class:`~repro.core.parser.CodeSParser`, a baseline, a
    stub).  Each call may raise an injected :class:`GenerationError`
    (``failure_rate``) or :class:`DeadlineExceededError`
    (``timeout_rate``); otherwise it delegates.

    Thin shim over :class:`FaultDecider` — the provider-protocol
    injector (:class:`repro.lm.providers.FlakyProvider`) shares the
    same decision core, so eval-harness chaos and router chaos draw
    from one rate semantics.  The RNG label and stream are unchanged
    from the pre-decider implementation: ``(seed, call order)`` still
    reproduces the same fault sequence byte-for-byte.
    """

    def __init__(
        self,
        generator,
        failure_rate: float = 0.0,
        timeout_rate: float = 0.0,
        seed: int = 0,
    ):
        self._generator = generator
        self._decider = FaultDecider(
            failure_rate=failure_rate,
            timeout_rate=timeout_rate,
            seed=seed,
            label="flaky-llm",
        )

    def __getattr__(self, name: str):
        return getattr(self._generator, name)

    @property
    def failure_rate(self) -> float:
        return self._decider.failure_rate

    @property
    def timeout_rate(self) -> float:
        return self._decider.timeout_rate

    @property
    def injected_failures(self) -> int:
        return self._decider.injected_failures

    @property
    def injected_timeouts(self) -> int:
        return self._decider.injected_timeouts

    def generate(self, question: str, database, **kwargs):
        verdict, draw = self._decider.decide()
        if verdict == "failure":
            raise GenerationError(
                f"injected generation failure (draw={draw:.4f}) for {question[:60]!r}"
            )
        if verdict == "timeout":
            raise DeadlineExceededError(
                f"injected generation timeout (draw={draw:.4f}) for {question[:60]!r}",
                elapsed_s=float("inf"),
            )
        return self._generator.generate(question, database, **kwargs)
