"""Execution accuracy (EX): do two queries return the same result?"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from repro.db.backends.sqlite import Database
from repro.errors import DeadlineExceededError, ExecutionError
from repro.eval.metrics import results_match
from repro.reliability.clock import Clock
from repro.reliability.deadline import Deadline
from repro.reliability.retry import RetryPolicy

_ORDER_BY_RE = re.compile(r"\border\s+by\b", re.IGNORECASE)

# -- failure taxonomy ---------------------------------------------------------
#
# Execution-time failures are classified per side (whose query failed)
# and per mode (refused by the engine vs. out of wall-clock budget), the
# per-class accounting Rajkumar et al. (2022) argue EX alone hides.
PREDICTION_UNEXECUTABLE = "prediction_unexecutable"
PREDICTION_TIMEOUT = "prediction_timeout"
GOLD_UNEXECUTABLE = "gold_unexecutable"
GOLD_TIMEOUT = "gold_timeout"


@dataclass(frozen=True)
class MatchOutcome:
    """The result of one classified EX comparison.

    ``failure`` is ``None`` for a clean comparison (whether or not it
    matched) or one of the taxonomy constants above; ``detail`` keeps
    the originating error message for quarantine reports.
    """

    matched: bool
    failure: str | None = None
    detail: str = ""


def execution_match_outcome(
    database: Database,
    predicted_sql: str,
    gold_sql: str,
    deadline_s: float | None = None,
    retry_policy: RetryPolicy | None = None,
    clock: Clock | None = None,
) -> MatchOutcome:
    """Classified EX: never raises for query-level failures.

    Each side runs under its own fresh ``deadline_s`` wall-clock budget
    (so a slow gold query cannot starve the prediction's budget) and,
    when a ``retry_policy`` is given, transient execution failures are
    retried with its seeded backoff before being classified.
    """

    def run(sql: str) -> list:
        deadline = (
            Deadline.after(deadline_s, clock=clock) if deadline_s else None
        )
        return database.execute(sql, deadline=deadline)

    def attempt(sql: str) -> list:
        if retry_policy is not None:
            return retry_policy.call(
                lambda: run(sql), retry_on=(ExecutionError,), clock=clock
            )
        return run(sql)

    try:
        gold_rows = attempt(gold_sql)
    except DeadlineExceededError as exc:
        return MatchOutcome(False, GOLD_TIMEOUT, str(exc))
    except ExecutionError as exc:
        return MatchOutcome(False, GOLD_UNEXECUTABLE, str(exc))
    try:
        predicted_rows = attempt(predicted_sql)
    except DeadlineExceededError as exc:
        return MatchOutcome(False, PREDICTION_TIMEOUT, str(exc))
    except ExecutionError as exc:
        return MatchOutcome(False, PREDICTION_UNEXECUTABLE, str(exc))
    ordered = bool(_ORDER_BY_RE.search(gold_sql))
    return MatchOutcome(results_match(predicted_rows, gold_rows, ordered=ordered))


def execution_match(database: Database, predicted_sql: str, gold_sql: str) -> bool:
    """True when the two queries produce the same result on ``database``.

    An unexecutable prediction counts as a miss; an unexecutable gold
    query raises, because that indicates a broken benchmark.
    """
    gold_rows = database.execute(gold_sql)
    try:
        predicted_rows = database.execute(predicted_sql)
    except ExecutionError:
        return False
    ordered = bool(_ORDER_BY_RE.search(gold_sql))
    return results_match(predicted_rows, gold_rows, ordered=ordered)


def execution_accuracy(
    database_pairs: Sequence[tuple[Database, str, str]],
) -> float:
    """Mean EX over ``(database, predicted_sql, gold_sql)`` triples."""
    if not database_pairs:
        return 0.0
    hits = sum(
        1 for database, predicted, gold in database_pairs
        if execution_match(database, predicted, gold)
    )
    return hits / len(database_pairs)
