"""Valid efficiency score (VES), BIRD's execution-efficiency metric.

For a correctly predicted query the score is the ratio of the gold
query's execution time to the predicted query's execution time (so a
prediction faster than gold scores above 1); incorrect predictions
score 0.  The paper notes VES is noisy, so the number of timing runs is
a parameter (BIRD uses 100; we default lower for CPU-bound runs).
"""

from __future__ import annotations

from repro.db.backends.sqlite import Database
from repro.errors import ExecutionError
from repro.eval.execution import execution_match
from repro.reliability.clock import SYSTEM_CLOCK, Clock


def _median_runtime(
    database: Database, sql: str, runs: int, clock: Clock
) -> float:
    samples: list[float] = []
    for _ in range(runs):
        start = clock.now()
        database.execute(sql)
        samples.append(clock.now() - start)
    samples.sort()
    return samples[len(samples) // 2]


def valid_efficiency_score(
    database: Database,
    predicted_sql: str,
    gold_sql: str,
    runs: int = 5,
    clock: Clock | None = None,
) -> float:
    """VES of one prediction (0.0 when the prediction is wrong).

    Timing reads the injectable ``clock`` (the real monotonic clock by
    default), so tests can measure with a fake clock and no real time.
    """
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    clock = clock or SYSTEM_CLOCK
    if not execution_match(database, predicted_sql, gold_sql):
        return 0.0
    try:
        predicted_time = _median_runtime(database, predicted_sql, runs, clock)
    except ExecutionError:
        return 0.0
    gold_time = _median_runtime(database, gold_sql, runs, clock)
    if predicted_time <= 0.0:
        return 1.0
    return gold_time / predicted_time
