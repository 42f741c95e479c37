"""Candidate scoring heuristics and beam ordering.

These are the pure scoring functions the staged engine's
``candidate_gen`` and ``lint_gate`` stages apply: the candidate score
as a table of weighted features with declared ranges (so a template's
best possible score is known before it is filled), the
question-grounded bonuses/penalties it sums, classifier/lexical score
blending, and the lint-gated beam reorder.  They live here —
importable by both :mod:`repro.core.parser` (the facade) and
:mod:`repro.engine` (the stages) — and carry no pipeline state of
their own.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.analysis.analyzer import SemanticAnalyzer
from repro.analysis.diagnostics import Diagnostic, has_errors
from repro.errors import ScoreRangeError
from repro.linking.classifier import SchemaScores
from repro.sqlgen.ast import (
    Aggregation,
    BinaryCondition,
    ColumnRef,
    CompoundCondition,
    InCondition,
    Literal,
    Query,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.slotfill import FilledCandidate

#: Last-resort SQL when every generation tier fails (always executable).
SENTINEL_SQL = "SELECT 1"


def lint_gated_order(
    beam: list[str],
    analyzer: SemanticAnalyzer,
    analyze: "Callable[[str], tuple[Diagnostic, ...]] | None" = None,
) -> tuple[list[str], dict[str, tuple[Diagnostic, ...]]]:
    """Reorder ``beam`` so statically clean candidates execute first.

    Candidates with error-tier diagnostics keep their relative ranking
    but sink below every clean candidate — they are still reachable
    (static analysis can be wrong; executability has the last word) but
    no longer burn execution round-trips ahead of plausible SQL.
    Returns the reordered beam plus each candidate's diagnostics.

    ``analyze`` overrides how one candidate's diagnostics are computed
    (the staged engine passes a per-database memo); it must behave
    exactly like ``tuple(analyzer.analyze_sql(sql))``.
    """
    if analyze is None:
        analyze = lambda sql: tuple(analyzer.analyze_sql(sql))  # noqa: E731
    diagnostics = {sql: analyze(sql) for sql in beam}
    clean = [sql for sql in beam if not has_errors(diagnostics[sql])]
    dirty = [sql for sql in beam if has_errors(diagnostics[sql])]
    return clean + dirty, diagnostics


def blend_scores(learned: SchemaScores, lexical: SchemaScores) -> SchemaScores:
    """Blend classifier probabilities with squashed lexical evidence."""

    def squash(value: float) -> float:
        return 1.0 / (1.0 + math.exp(-(value - 1.2)))

    return SchemaScores(
        tables={
            name: max(score, squash(lexical.tables.get(name, 0.0)))
            for name, score in learned.tables.items()
        },
        columns={
            key: max(score, squash(lexical.columns.get(key, 0.0)))
            for key, score in learned.columns.items()
        },
    )


def predicate_bindings(query: Query) -> list[tuple[str, object]]:
    """(column key, literal value) pairs of equality/IN predicates."""
    bindings: list[tuple[str, object]] = []

    def visit(cond) -> None:
        if isinstance(cond, BinaryCondition):
            if (
                cond.op == "="
                and isinstance(cond.left, ColumnRef)
                and isinstance(cond.right, Literal)
            ):
                bindings.append((cond.left.key(), cond.right.value))
        elif isinstance(cond, InCondition):
            if isinstance(cond.expr, ColumnRef):
                for value in cond.values:
                    bindings.append((cond.expr.key(), value.value))
        elif isinstance(cond, CompoundCondition):
            for sub in cond.conditions:
                visit(sub)

    current = query
    while current is not None:
        if current.where is not None:
            visit(current.where)
        current = current.compound_query
    return bindings


def matched_value_keys(matched) -> frozenset[tuple[str, object]]:
    """(lower-cased ``table.column``, value) of each retrieved value."""
    return frozenset(
        (f"{m.table.lower()}.{m.column.lower()}", m.value) for m in matched
    )


def value_bonus(query: Query, matched_keys) -> float:
    """Reward candidates whose predicates bind a retrieved value to the
    column it was actually found in (``matched_keys`` as built by
    :func:`matched_value_keys`)."""
    if not matched_keys:
        return 0.0
    for binding in predicate_bindings(query):
        if binding in matched_keys:
            return 1.0
    return 0.0


_COUNT_CUES = re.compile(r"\b(how many|number of|count|tally)\b", re.IGNORECASE)


def has_count_cue(question: str) -> bool:
    """Whether the question asks for a count ("how many", "number of", ...)."""
    return bool(_COUNT_CUES.search(question))


def count_mismatch(query: Query, count_cue: bool) -> float:
    """1.0 when the candidate is a bare COUNT but the question has no
    counting cue (``count_cue`` from :func:`has_count_cue`).

    A bare count projection (one COUNT item, no GROUP BY) answers "how
    many" questions and little else.  The reverse is not penalised: a
    counting question answered by a non-count, or by a count riding
    along a GROUP BY, scores 0.
    """
    is_bare_count = (
        len(query.select_items) == 1
        and isinstance(query.select_items[0].expr, Aggregation)
        and query.select_items[0].expr.func == "count"
        and not query.group_by
    )
    if is_bare_count and not count_cue:
        return 1.0
    return 0.0


def projection_filter_overlap(query: Query) -> float:
    """1.0 when a projected column is also equality-filtered.

    Users rarely ask to display the very attribute they constrained to a
    single value, so such candidates are slightly demoted.
    """
    projected = {
        item.expr.key()
        for item in query.select_items
        if isinstance(item.expr, ColumnRef) and item.expr.column != "*"
    }
    filtered = {column_key for column_key, _ in predicate_bindings(query)}
    return float(bool(projected & filtered))


# -- the candidate score: a table of weighted, range-declared features --------

#: Slack on every declared range.  A mean of column scores can round a
#: few ulps past the largest one, so values within this of a bound are
#: accepted, and ceilings are built from the widened bounds.
RANGE_SLACK = 1e-9


def _span_with_zero(values) -> tuple[float, float]:
    values = [0.0, *values]
    return min(values), max(values)


def _mean_score(scores: dict[str, float], keys) -> float:
    """Mean score of ``keys``, summed in sorted order: ``keys`` is a set,
    and float addition in hash order varies with ``PYTHONHASHSEED``."""
    if not keys:
        return 0.0
    return sum(scores.get(key, 0.0) for key in sorted(keys)) / len(keys)


@dataclass(frozen=True)
class RequestFacts:
    """What every candidate of one request is scored against, built once."""

    scores: SchemaScores
    matched_keys: frozenset
    count_cue: bool
    #: SQL -> LM mean log-probability.
    lm_score: Callable[[str], float]
    #: Span of 0 and every column (table) score: a mean of those
    #: scores, or the 0 of a query using none, lies within it.
    column_span: tuple[float, float]
    table_span: tuple[float, float]

    @classmethod
    def of(
        cls,
        question: str,
        scores: SchemaScores,
        matched,
        lm_score: Callable[[str], float],
    ) -> "RequestFacts":
        return cls(
            scores=scores,
            matched_keys=matched_value_keys(matched),
            count_cue=has_count_cue(question),
            lm_score=lm_score,
            column_span=_span_with_zero(scores.columns.values()),
            table_span=_span_with_zero(scores.tables.values()),
        )


@dataclass(frozen=True)
class Feature:
    """One weighted term of a candidate's score.

    ``value(fill, sim, facts)`` is the term's value for ``fill``, an
    instantiation of a template with retrieval similarity ``sim``;
    ``bounds(facts, sim)`` is the range every such value lies in, known
    before any fill.
    """

    name: str
    weight: float
    value: "Callable[[FilledCandidate, float, RequestFacts], float]"
    bounds: Callable[[RequestFacts, float], tuple[float, float]]
    #: Computed last, and only for a fill the other terms leave a chance
    #: of reaching the beam.
    deferred: bool = False


#: The candidate score, term by term, in summation order.
FEATURES: tuple[Feature, ...] = (
    Feature(
        "retrieval", 2.0,
        lambda fill, sim, facts: sim,
        lambda facts, sim: (sim, sim),
    ),
    Feature(
        "link_quality", 0.5,
        lambda fill, sim, facts: _mean_score(
            facts.scores.columns, fill.query.columns_used()
        ),
        lambda facts, sim: facts.column_span,
    ),
    Feature(
        "table_quality", 0.4,
        lambda fill, sim, facts: _mean_score(
            facts.scores.tables, fill.query.tables_used()
        ),
        lambda facts, sim: facts.table_span,
    ),
    # The LM prior flows through the provider router — the reliability
    # boundary (failover, hedging, breakers) between the engine and
    # whatever backs the model.  A mean log-probability is at most 0.
    Feature(
        "lm_prior", 0.08,
        lambda fill, sim, facts: facts.lm_score(fill.sql),
        lambda facts, sim: (-math.inf, 0.0),
        deferred=True,
    ),
    Feature(
        "value_bonus", 0.25,
        lambda fill, sim, facts: value_bonus(fill.query, facts.matched_keys),
        lambda facts, sim: (0.0, 1.0 if facts.matched_keys else 0.0),
    ),
    Feature(
        "projection_filter_overlap", -0.1,
        lambda fill, sim, facts: projection_filter_overlap(fill.query),
        lambda facts, sim: (0.0, 1.0),
    ),
    Feature(
        "count_mismatch", -0.5,
        lambda fill, sim, facts: count_mismatch(fill.query, facts.count_cue),
        lambda facts, sim: (0.0, 0.0 if facts.count_cue else 1.0),
    ),
    Feature(
        "ungrounded_literals", -0.3,
        lambda fill, sim, facts: fill.ungrounded_literals,
        lambda facts, sim: (0.0, math.inf),
    ),
)


def feature_ranges(facts: RequestFacts, sim: float) -> list[tuple[float, float]]:
    """Each feature's range for fills of a template with similarity
    ``sim``, widened by :data:`RANGE_SLACK`."""
    return [
        (lo - RANGE_SLACK, hi + RANGE_SLACK)
        for lo, hi in (feature.bounds(facts, sim) for feature in FEATURES)
    ]


def weighted_score(values) -> float:
    """The weighted sum of one value per feature, in table order."""
    total = 0.0
    for feature, value in zip(FEATURES, values):
        total += feature.weight * value
    return total


def _best_bound(feature: Feature, span: tuple[float, float]) -> float:
    lo, hi = span
    return hi if feature.weight > 0 else lo


def score_ceiling(ranges) -> float:
    """The highest score values within ``ranges`` can give.

    Rounded multiplication by a constant and rounded addition are both
    monotone, so summing each feature's best bound in the order
    :func:`weighted_score` sums bounds every score it computes from
    in-range values, rounding included.
    """
    return weighted_score(map(_best_bound, FEATURES, ranges))


_DEFERRED = tuple(i for i, feature in enumerate(FEATURES) if feature.deferred)


def score_fill(
    fill: "FilledCandidate",
    sim: float,
    facts: RequestFacts,
    ranges,
    floor: float | None = None,
) -> float | None:
    """``fill``'s score, or None when it cannot beat ``floor``.

    Deferred features are computed only while the fill's ceiling, with
    them at their best bound, still exceeds ``floor``: a score that can
    at most tie ``floor`` loses to the earlier candidate holding it.
    Raises :class:`ScoreRangeError` for a value outside its range, so a
    wrong declaration fails loudly instead of pruning a real candidate.
    """
    values = []
    for feature, span in zip(FEATURES, ranges):
        if feature.deferred:
            values.append(_best_bound(feature, span))
        else:
            values.append(_checked(feature, fill, sim, facts, span))
    if floor is not None and floor >= weighted_score(values):
        return None
    for index in _DEFERRED:
        values[index] = _checked(FEATURES[index], fill, sim, facts, ranges[index])
    return weighted_score(values)


def _checked(feature: Feature, fill, sim: float, facts: RequestFacts, span) -> float:
    value = feature.value(fill, sim, facts)
    lo, hi = span
    if not lo <= value <= hi:
        raise ScoreRangeError(
            f"feature {feature.name!r} = {value!r} lies outside its declared "
            f"range [{lo!r}, {hi!r}] for {fill.sql!r}"
        )
    return value
