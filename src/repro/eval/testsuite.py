"""Test-suite accuracy (TS) via automated database augmentation.

EX can produce false positives: a wrong SQL query may coincidentally
return the right rows on one database instance.  Following Zhong et
al. [85], TS re-checks execution equivalence on several content
variants of the database; only predictions that agree with the gold
query on *every* variant pass.

Variants are generated deterministically: rows are resampled (dropped /
duplicated) and numeric cells are jittered, while text values are kept
so that value predicates still have something to match.
"""

from __future__ import annotations

import random
from typing import Any

from repro.db.backends.sqlite import Database
from repro.eval.execution import execution_match

Row = tuple[Any, ...]


def _perturb_rows(
    rows: list[Row],
    schema_types: list[str],
    rng: random.Random,
) -> list[Row]:
    if not rows:
        return []
    resampled: list[Row] = []
    for row in rows:
        if rng.random() < 0.2:
            continue  # drop this row in the variant
        new_row = []
        for cell, col_type in zip(row, schema_types):
            numeric = isinstance(cell, (int, float)) and not isinstance(cell, bool)
            if not numeric or col_type == "KEY":
                new_row.append(cell)
            elif col_type == "INTEGER":
                new_row.append(int(cell) + rng.randint(-2, 2))
            else:
                new_row.append(round(float(cell) * rng.uniform(0.8, 1.2), 2))
        resampled.append(tuple(new_row))
    if not resampled:
        resampled = [rows[0]]
    return resampled


class TestSuite:
    """A set of database variants used for TS evaluation."""

    __test__ = False  # not a pytest test class

    def __init__(self, database: Database, n_variants: int = 4, seed: int = 0):
        if n_variants < 1:
            raise ValueError(f"need at least one variant, got {n_variants}")
        self.original = database
        self.variants: list[Database] = []
        snapshot = database.all_rows()
        # Key columns (PKs and FK endpoints) must keep their values or
        # joins in the evaluated queries would silently break.
        key_columns: set[tuple[str, str]] = set()
        for fkey in database.schema.foreign_keys:
            key_columns.add((fkey.src_table.lower(), fkey.src_column.lower()))
            key_columns.add((fkey.dst_table.lower(), fkey.dst_column.lower()))
        for index in range(n_variants):
            rng = random.Random(f"{seed}:{index}")
            rows: dict[str, list[Row]] = {}
            for table in database.schema.tables:
                types = [
                    "KEY"
                    if column.is_primary
                    or (table.name.lower(), column.name.lower()) in key_columns
                    else column.type.upper()
                    for column in table.columns
                ]
                rows[table.name] = _perturb_rows(snapshot[table.name], types, rng)
            self.variants.append(database.clone_with_rows(rows))

    def databases(self) -> list[Database]:
        """Original plus all variants."""
        return [self.original, *self.variants]

    def check(self, predicted_sql: str, gold_sql: str) -> bool:
        """TS check: prediction must match gold on every database."""
        return all(
            execution_match(db, predicted_sql, gold_sql) for db in self.databases()
        )

    def close(self) -> None:
        for variant in self.variants:
            variant.close()


def test_suite_accuracy(
    suites: list[TestSuite], predictions: list[str], golds: list[str]
) -> float:
    """Mean TS over aligned (suite, prediction, gold) triples."""
    if not suites:
        return 0.0
    if not (len(suites) == len(predictions) == len(golds)):
        raise ValueError("suites, predictions and golds must align")
    hits = sum(
        1 for suite, pred, gold in zip(suites, predictions, golds)
        if suite.check(pred, gold)
    )
    return hits / len(suites)
