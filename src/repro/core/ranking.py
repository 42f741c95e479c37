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
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable

from repro.analysis.analyzer import SemanticAnalyzer
from repro.analysis.diagnostics import Diagnostic, has_errors
from repro.errors import ScoreRangeError
if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.slotfill import FilledCandidate
    from repro.linking.classifier import SchemaScores

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

    return replace(
        learned,
        tables={
            name: max(score, squash(lexical.tables.get(name, 0.0)))
            for name, score in learned.tables.items()
        },
        columns={
            key: max(score, squash(lexical.columns.get(key, 0.0)))
            for key, score in learned.columns.items()
        },
    )


def matched_value_keys(matched) -> frozenset[tuple[str, object]]:
    """(lower-cased ``table.column``, value) of each retrieved value."""
    return frozenset(
        (f"{m.table.lower()}.{m.column.lower()}", m.value) for m in matched
    )


def value_bonus(bindings, matched_keys) -> float:
    """Reward candidates whose predicates bind a retrieved value to the
    column it was actually found in (``bindings`` as
    :attr:`FilledCandidate.bindings`, ``matched_keys`` as built by
    :func:`matched_value_keys`)."""
    if not matched_keys:
        return 0.0
    for binding in bindings:
        if binding in matched_keys:
            return 1.0
    return 0.0


_COUNT_CUES = re.compile(r"\b(how many|number of|count|tally)\b", re.IGNORECASE)


def has_count_cue(question: str) -> bool:
    """Whether the question asks for a count ("how many", "number of", ...)."""
    return bool(_COUNT_CUES.search(question))


def count_mismatch(bare_count: bool, count_cue: bool) -> float:
    """1.0 when the candidate is a bare COUNT but the question has no
    counting cue (``count_cue`` from :func:`has_count_cue`).

    A bare count projection (one COUNT item, no GROUP BY) answers "how
    many" questions and little else.  The reverse is not penalised: a
    counting question answered by a non-count, or by a count riding
    along a GROUP BY, scores 0.
    """
    return 1.0 if bare_count and not count_cue else 0.0


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
    #: Lower-cased tables of the retrieved values.
    matched_tables: frozenset
    #: Table -> span of 0 and its columns' scores, filled on first use.
    _column_spans: dict = field(default_factory=dict, repr=False, compare=False)
    #: Table set (or None) -> :func:`table_ranges`, filled on first use.
    _table_ranges: dict = field(default_factory=dict, repr=False, compare=False)
    #: Column (table) key set -> its mean score, filled on first use.
    _column_means: dict = field(default_factory=dict, repr=False, compare=False)
    _table_means: dict = field(default_factory=dict, repr=False, compare=False)

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
            matched_tables=frozenset(m.table.lower() for m in matched),
        )

    def columns_span(self, tables) -> tuple[float, float]:
        """Span of 0 and the column scores of ``tables`` (any table if None).

        A column key starts with its table's key, so every column of a
        table is among the keys carrying its prefix.
        """
        if tables is None:
            return self.column_span
        spans = []
        for table in tables:
            span = self._column_spans.get(table)
            if span is None:
                prefix = table + "."
                span = self._column_spans[table] = _span_with_zero(
                    score
                    for key, score in self.scores.columns.items()
                    if key.startswith(prefix)
                )
            spans.append(span)
        return min(lo for lo, _ in spans), max(hi for _, hi in spans)

    def tables_span(self, tables) -> tuple[float, float]:
        """The table-quality range: one value once ``tables`` is known."""
        if tables is None:
            return self.table_span
        quality = self.table_quality(tables)
        return quality, quality

    def link_quality(self, columns: frozenset) -> float:
        """Mean score of the ``columns`` keys, once per key set."""
        quality = self._column_means.get(columns)
        if quality is None:
            quality = self._column_means[columns] = _mean_score(
                self.scores.columns, columns
            )
        return quality

    def table_quality(self, tables: frozenset) -> float:
        """Mean score of the ``tables`` keys, once per key set."""
        quality = self._table_means.get(tables)
        if quality is None:
            quality = self._table_means[tables] = _mean_score(self.scores.tables, tables)
        return quality

    def value_cap(self, tables) -> float:
        """1 when a retrieved value can bind in ``tables`` (any if None)."""
        if tables is None:
            return 1.0 if self.matched_keys else 0.0
        return 1.0 if self.matched_tables & tables else 0.0


@dataclass(frozen=True)
class Feature:
    """One weighted term of a candidate's score.

    ``value(fill, sim, facts)`` is the term's value for ``fill``, an
    instantiation of a template with retrieval similarity ``sim``;
    ``bounds(facts, sims, tables)`` is the range every such value lies
    in, known before any fill: ``sims`` spans the similarity and
    ``tables`` is the fill's lower-cased table set (None when unknown).
    """

    name: str
    weight: float
    value: "Callable[[FilledCandidate, float, RequestFacts], float]"
    bounds: Callable[
        [RequestFacts, tuple[float, float], "frozenset[str] | None"],
        tuple[float, float],
    ]
    #: Computed last, and only for a fill the other terms leave a chance
    #: of reaching the beam.
    deferred: bool = False
    #: ``bounds`` reads ``sims``; every other feature's bounds depend on
    #: the request and table set only, and are computed once per set.
    by_sim: bool = False


#: The candidate score, term by term, in summation order.
FEATURES: tuple[Feature, ...] = (
    Feature(
        "retrieval", 2.0,
        lambda fill, sim, facts: sim,
        lambda facts, sims, tables: sims,
        by_sim=True,
    ),
    Feature(
        "link_quality", 0.5,
        lambda fill, sim, facts: facts.link_quality(fill.columns),
        lambda facts, sims, tables: facts.columns_span(tables),
    ),
    Feature(
        "table_quality", 0.4,
        lambda fill, sim, facts: facts.table_quality(fill.tables),
        lambda facts, sims, tables: facts.tables_span(tables),
    ),
    # The LM prior flows through the provider router — the reliability
    # boundary (failover, hedging, breakers) between the engine and
    # whatever backs the model.  A mean log-probability is at most 0.
    Feature(
        "lm_prior", 0.08,
        lambda fill, sim, facts: facts.lm_score(fill.sql),
        lambda facts, sims, tables: (-math.inf, 0.0),
        deferred=True,
    ),
    Feature(
        "value_bonus", 0.25,
        lambda fill, sim, facts: value_bonus(fill.bindings, facts.matched_keys),
        lambda facts, sims, tables: (0.0, facts.value_cap(tables)),
    ),
    # Users rarely ask to display the very attribute they constrained
    # to a single value, so such candidates are slightly demoted.
    Feature(
        "projection_filter_overlap", -0.1,
        lambda fill, sim, facts: float(fill.overlap),
        lambda facts, sims, tables: (0.0, 1.0),
    ),
    Feature(
        "count_mismatch", -0.5,
        lambda fill, sim, facts: count_mismatch(fill.bare_count, facts.count_cue),
        lambda facts, sims, tables: (0.0, 0.0 if facts.count_cue else 1.0),
    ),
    Feature(
        "ungrounded_literals", -0.3,
        lambda fill, sim, facts: fill.ungrounded_literals,
        lambda facts, sims, tables: (0.0, math.inf),
    ),
)


def feature_ranges(
    facts: RequestFacts,
    sim: float,
    tables: "frozenset[str] | None" = None,
    best_sim: float | None = None,
) -> list[tuple[float, float]]:
    """Each feature's range for fills of a template with similarity
    ``sim``, widened by :data:`RANGE_SLACK`.

    ``tables`` narrows them to one table assignment, every fill of
    which uses exactly those lower-cased tables.  ``best_sim`` (at
    least ``sim``) raises the similarity's upper bound, so the ceiling
    also covers the same SQL made again by a later, closer template.
    """
    ranges = facts._table_ranges.get(tables)
    if ranges is None:
        ranges = facts._table_ranges[tables] = table_ranges(facts, tables)
    ranges = list(ranges)
    sims = (sim, sim if best_sim is None else best_sim)
    for index in _BY_SIM:
        ranges[index] = _widened(FEATURES[index].bounds(facts, sims, tables))
    return ranges


def table_ranges(facts: RequestFacts, tables) -> list:
    """The widened range of each feature not bounded by similarity
    (None in the ``by_sim`` slots) for fills using ``tables``."""
    return [
        None if feature.by_sim else _widened(feature.bounds(facts, None, tables))
        for feature in FEATURES
    ]


def _widened(span: tuple[float, float]) -> tuple[float, float]:
    lo, hi = span
    return lo - RANGE_SLACK, hi + RANGE_SLACK


_BY_SIM = tuple(i for i, feature in enumerate(FEATURES) if feature.by_sim)


_WEIGHTS = tuple(feature.weight for feature in FEATURES)


def weighted_score(values) -> float:
    """The weighted sum of one value per feature, in table order."""
    total = 0.0
    for weight, value in zip(_WEIGHTS, values):
        total += weight * value
    return total


def score_ceiling(ranges) -> float:
    """The highest score values within ``ranges`` can give.

    Rounded multiplication by a constant and rounded addition are both
    monotone, so summing each feature's best bound in the order
    :func:`weighted_score` sums bounds every score it computes from
    in-range values, rounding included.
    """
    return weighted_score([
        hi if weight > 0 else lo for weight, (lo, hi) in zip(_WEIGHTS, ranges)
    ])


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
    for feature, (lo, hi) in zip(FEATURES, ranges):
        if feature.deferred:
            values.append(hi if feature.weight > 0 else lo)
            continue
        value = feature.value(fill, sim, facts)
        if not lo <= value <= hi:
            raise _out_of_range(feature, value, lo, hi, fill)
        values.append(value)
    if floor is not None and floor >= weighted_score(values):
        return None
    for index in _DEFERRED:
        feature, (lo, hi) = FEATURES[index], ranges[index]
        value = values[index] = feature.value(fill, sim, facts)
        if not lo <= value <= hi:
            raise _out_of_range(feature, value, lo, hi, fill)
    return weighted_score(values)


def _out_of_range(feature: Feature, value, lo, hi, fill) -> ScoreRangeError:
    return ScoreRangeError(
        f"feature {feature.name!r} = {value!r} lies outside its declared "
        f"range [{lo!r}, {hi!r}] for {fill.sql!r}"
    )
