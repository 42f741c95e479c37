"""Zero-shot structure prior: match question cues to SQL skeletons.

Without demonstrations, a pre-trained model maps question phrasings to
the SQL structures it absorbed ("how many" -> COUNT, "for each" ->
GROUP BY, "above the average" -> scalar subquery).  This module scores
that mapping explicitly: a cue profile extracted from the question is
compared against the structural profile of a candidate skeleton.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.sqlgen.ast import (
    Aggregation,
    BetweenCondition,
    BinaryCondition,
    CompoundCondition,
    InCondition,
    LikeCondition,
    Query,
)

_CUE_PATTERNS: dict[str, re.Pattern] = {
    "count": re.compile(r"\b(how many|number of|count|tally)\b", re.IGNORECASE),
    "superlative": re.compile(
        r"\b(highest|lowest|largest|smallest|most|fewest|greatest|least|top \d+"
        r"|the \d+ )\b",
        re.IGNORECASE,
    ),
    "group": re.compile(r"\b(for each|per|of every|each)\b", re.IGNORECASE),
    "having": re.compile(
        r"\b(more than \d+|at least \d+|shared by)\b", re.IGNORECASE
    ),
    "or": re.compile(r"\b(or|either)\b", re.IGNORECASE),
    "between": re.compile(r"\b(between|from \d+ to \d+)\b", re.IGNORECASE),
    "like": re.compile(
        r"\b(starts? with|beginning with|letter)\b", re.IGNORECASE
    ),
    "average": re.compile(r"\b(average|mean)\b", re.IGNORECASE),
    "sum": re.compile(r"\b(total|sum|overall)\b", re.IGNORECASE),
    "distinct": re.compile(r"\b(different|distinct|unique)\b", re.IGNORECASE),
    "sorted": re.compile(r"\b(sorted|ordered|arranged|order(ed)? by)\b", re.IGNORECASE),
    "subquery_avg": re.compile(
        r"\b(above the average|below the average|higher than the average|"
        r"more than the average)\b",
        re.IGNORECASE,
    ),
    "relation": re.compile(
        r"\b(that have|that has|linked to|related to|with a|belonging to)\b",
        re.IGNORECASE,
    ),
}


@dataclass(frozen=True)
class StructureProfile:
    """Structural facts about one SQL skeleton."""

    bare_count: bool
    group_by: bool
    having: bool
    has_or: bool
    between: bool
    like: bool
    avg: bool
    sum_: bool
    distinct: bool
    order_by: bool
    order_with_limit: bool
    subquery: bool
    joins: bool


def profile_query(query: Query) -> StructureProfile:
    """Extract the structural profile of a query/skeleton."""
    has_or = False
    between = False
    like = False
    subquery = False

    def visit(cond) -> None:
        nonlocal has_or, between, like, subquery
        if isinstance(cond, CompoundCondition):
            if cond.op == "OR":
                has_or = True
            for sub in cond.conditions:
                visit(sub)
        elif isinstance(cond, BetweenCondition):
            between = True
        elif isinstance(cond, LikeCondition):
            like = True
        elif isinstance(cond, BinaryCondition) and isinstance(cond.right, Query):
            subquery = True
        elif isinstance(cond, InCondition) and cond.subquery is not None:
            subquery = True

    if query.where is not None:
        visit(query.where)
    select_aggs = [
        item.expr for item in query.select_items
        if isinstance(item.expr, Aggregation)
    ]
    bare_count = (
        len(query.select_items) == 1
        and bool(select_aggs)
        and select_aggs[0].func == "count"
        and not query.group_by
        and not select_aggs[0].distinct
    )
    return StructureProfile(
        bare_count=bare_count,
        group_by=bool(query.group_by),
        having=query.having is not None,
        has_or=has_or,
        between=between,
        like=like,
        avg=any(agg.func == "avg" for agg in select_aggs),
        sum_=any(agg.func == "sum" for agg in select_aggs),
        distinct=query.distinct
        or any(agg.distinct for agg in select_aggs),
        order_by=bool(query.order_by),
        order_with_limit=bool(query.order_by) and query.limit is not None,
        subquery=subquery,
        joins=bool(query.joins),
    )


def question_cues(question: str) -> set[str]:
    """Names of the cue patterns present in ``question``."""
    return {name for name, pattern in _CUE_PATTERNS.items()
            if pattern.search(question)}


#: cue name -> the profile attribute it predicts.
_CUE_TO_PROP = {
    "count": "bare_count",
    "superlative": "order_with_limit",
    "group": "group_by",
    "having": "having",
    "or": "has_or",
    "between": "between",
    "like": "like",
    "average": "avg",
    "sum": "sum_",
    "distinct": "distinct",
    "sorted": "order_by",
    "subquery_avg": "subquery",
    "relation": "joins",
}

#: Weaker cues whose absence shouldn't strongly penalize the structure.
_SOFT_CUES = frozenset({"relation", "sorted", "group", "or"})


def structure_prior(question: str, query: Query) -> float:
    """How plausibly ``query``'s structure answers ``question`` (0..1)."""
    return cue_structure_prior(question_cues(question), query)


def cue_structure_prior(cues: set[str], query: Query) -> float:
    """:func:`structure_prior` from the question's :func:`question_cues`,
    for callers that score many queries against one question."""
    profile = profile_query(query)
    score = 0.5
    for cue, prop in _CUE_TO_PROP.items():
        has_prop = getattr(profile, prop)
        if cue in cues:
            score += 0.12 if has_prop else -0.08
        elif has_prop:
            # Structure present without its cue: suspicious unless soft.
            score -= 0.04 if cue in _SOFT_CUES else 0.12
    # COUNT without a counting cue is the classic wrong answer.
    if profile.bare_count and "count" not in cues:
        score -= 0.15
    return max(0.05, min(0.95, score))
