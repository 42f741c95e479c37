"""Synthetic pre-training corpus generators (paper §5.1).

Three slices mirror the curated 21.5 GB corpus:

- **SQL-related** — standalone SQL queries over randomly drawn schemas
  (the StarCoder SQL segment);
- **NL-related** — instruction-following dialog turns
  (alpaca-cleaned / unnatural-instructions / UltraChat stand-ins);
- **NL-to-code** — natural-language/code pairs, including
  NL-SQL-458K-style (question, SQL) pairs.

A fourth generator produces generic (non-SQL) code for the *base* mix
that StarCoder-style models are pre-trained on before the incremental
phase.  Everything is seeded and deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.db.values import CATEGORIES, CITIES, WORDS

_AGGS = ["COUNT", "SUM", "AVG", "MIN", "MAX"]
_OPS = ["=", ">", "<", ">=", "<="]

_INSTRUCTION_TEMPLATES = [
    "Explain the difference between {a} and {b} in one paragraph.",
    "Summarize the following passage about {a}.",
    "Write a short note describing how {a} relates to {b}.",
    "List three advantages of using {a} for {b}.",
    "Rewrite this sentence to be more formal: the {a} was very {b}.",
    "Answer the question: why does {a} affect {b}?",
    "Translate the phrase '{a} {b}' into a formal register.",
    "Provide step by step instructions for organizing a {a}.",
]

_PYTHON_TEMPLATES = [
    "def {a}_{b}(items):\n    return [x for x in items if x.{a}]",
    "for {a} in {b}:\n    total += {a}.value",
    "class {a}:\n    def __init__(self, {b}):\n        self.{b} = {b}",
    "with open('{a}.txt') as f:\n    {b} = f.read()",
    "import {a}\nresult = {a}.process({b})",
    "if {a} > {b}:\n    raise ValueError('{a} out of range')",
]

_NL2CODE_QUESTIONS = [
    "how do I filter {a} rows by {b}",
    "count the number of {a} grouped by {b}",
    "find the {a} with the largest {b}",
    "select all {a} where {b} is missing",
    "sort the {a} by {b} in descending order",
    "what is the average {b} per {a}",
]


def _identifier(rng: random.Random) -> str:
    return rng.choice(WORDS)


def random_sql(rng: random.Random) -> str:
    """One random SQL query over a random throwaway schema.

    Queries are built compositionally (projection x predicates x
    grouping x ordering x joins x subqueries), so the corpus contains a
    long, frequency-skewed tail of SQL *skeletons*: simple selects are
    common, subqueries and compound predicates are rare.  How much of
    that tail a model absorbs is exactly what differs between a
    SQL-heavy and a code-mixed pre-training run.
    """
    table = _identifier(rng)
    col_a = f"{_identifier(rng)}_{rng.choice(['id', 'name', 'code', 'date', 'amount'])}"
    col_b = f"{_identifier(rng)}_{rng.choice(['type', 'year', 'status', 'count'])}"
    col_c = f"{_identifier(rng)}_{rng.choice(['score', 'total', 'label'])}"

    # Projection.
    roll = rng.random()
    if roll < 0.15:
        select = "COUNT(*)"
    elif roll < 0.30:
        agg = rng.choice(_AGGS)
        inner = f"DISTINCT {col_a}" if rng.random() < 0.2 else col_a
        select = f"{agg}({inner})"
    elif roll < 0.40:
        select = f"{col_a}, {col_b}"
    else:
        prefix = "DISTINCT " if rng.random() < 0.15 else ""
        select = f"{prefix}{col_a}"

    sql = f"SELECT {select} FROM {table}"

    # Optional join.
    joined = rng.random() < 0.22
    if joined:
        other = _identifier(rng) + "_rel"
        if "(" not in select and "DISTINCT" not in select:
            qualified = select.replace(", ", f", {table}.")
            sql = (
                f"SELECT {table}.{qualified} FROM {table} "
                f"JOIN {other} ON {table}.{col_b} = {other}.{col_b}"
            )
        else:
            sql += f" JOIN {other} ON {table}.{col_b} = {other}.{col_b}"

    # Predicates: 0-2, drawn from several kinds.
    predicates = []
    n_predicates = rng.choices([0, 1, 2], weights=[35, 50, 15])[0]
    for _ in range(n_predicates):
        kind = rng.random()
        if kind < 0.35:
            predicates.append(f"{col_b} {rng.choice(_OPS)} {rng.randint(0, 500)}")
        elif kind < 0.60:
            predicates.append(f"{col_c} = '{rng.choice(CATEGORIES)}'")
        elif kind < 0.72:
            predicates.append(
                f"{col_b} BETWEEN {rng.randint(0, 100)} AND {rng.randint(101, 500)}"
            )
        elif kind < 0.82:
            predicates.append(
                f"{col_c} IN ('{rng.choice(CITIES)}', '{rng.choice(CITIES)}')"
            )
        elif kind < 0.90:
            predicates.append(f"{col_a} LIKE '{rng.choice(CATEGORIES)[:1].upper()}%'")
        elif kind < 0.96:
            predicates.append(f"{col_a} IS NOT NULL")
        else:
            predicates.append(
                f"{col_b} > (SELECT AVG({col_b}) FROM {table})"
            )
    if predicates:
        joiner = " OR " if (len(predicates) == 2 and rng.random() < 0.3) else " AND "
        sql += " WHERE " + joiner.join(predicates)

    # Grouping / having.
    if "COUNT(*)" in select and rng.random() < 0.5:
        sql = sql.replace("SELECT COUNT(*)", f"SELECT {col_c}, COUNT(*)", 1)
        sql += f" GROUP BY {col_c}"
        if rng.random() < 0.4:
            sql += f" HAVING COUNT(*) > {rng.randint(1, 5)}"
    elif "(" not in select and rng.random() < 0.08:
        sql += f" GROUP BY {col_a}"

    # Ordering / limit.
    if rng.random() < 0.3:
        direction = rng.choice(["ASC", "DESC"])
        sql += f" ORDER BY {col_b} {direction}"
        if rng.random() < 0.6:
            sql += f" LIMIT {rng.randint(1, 10)}"
    return sql


def sql_corpus(n: int, seed: int = 0) -> list[str]:
    """The SQL-related slice: standalone SQL queries."""
    rng = random.Random(f"sql:{seed}")
    return [random_sql(rng) for _ in range(n)]


def nl_corpus(n: int, seed: int = 0) -> list[str]:
    """The NL-related slice: instruction-style dialog turns."""
    rng = random.Random(f"nl:{seed}")
    out = []
    for _ in range(n):
        template = rng.choice(_INSTRUCTION_TEMPLATES)
        out.append(template.format(a=rng.choice(WORDS), b=rng.choice(WORDS)))
    return out


def code_corpus(n: int, seed: int = 0) -> list[str]:
    """Generic non-SQL code (the bulk of a StarCoder-style base mix)."""
    rng = random.Random(f"code:{seed}")
    out = []
    for _ in range(n):
        template = rng.choice(_PYTHON_TEMPLATES)
        out.append(template.format(a=rng.choice(WORDS), b=rng.choice(WORDS)))
    return out


def nl2code_corpus(n: int, seed: int = 0) -> list[str]:
    """The NL-to-code slice, including NL-SQL pair documents."""
    rng = random.Random(f"nl2code:{seed}")
    out = []
    for _ in range(n):
        question = rng.choice(_NL2CODE_QUESTIONS).format(
            a=rng.choice(WORDS), b=rng.choice(WORDS)
        )
        if rng.random() < 0.6:
            body = random_sql(rng)  # NL-SQL-458K style pair
        else:
            body = rng.choice(_PYTHON_TEMPLATES).format(
                a=rng.choice(WORDS), b=rng.choice(WORDS)
            )
        out.append(f"-- question: {question}\n{body}")
    return out


@dataclass(frozen=True)
class CorpusConfig:
    """Sizes of the corpus slices (documents, not GB).

    The default ratio 11 : 4.5 : 6 matches the paper's SQL / NL /
    NL-to-code byte proportions.
    """

    sql_docs: int = 1100
    nl_docs: int = 450
    nl2code_docs: int = 600
    base_code_docs: int = 2000
    seed: int = 0


@dataclass(frozen=True)
class PretrainCorpus:
    """Materialized corpus slices."""

    sql: list[str] = field(default_factory=list)
    nl: list[str] = field(default_factory=list)
    nl2code: list[str] = field(default_factory=list)
    base_code: list[str] = field(default_factory=list)


def build_corpus(config: CorpusConfig | None = None) -> PretrainCorpus:
    """Generate all corpus slices for ``config``."""
    config = config or CorpusConfig()
    return PretrainCorpus(
        sql=sql_corpus(config.sql_docs, config.seed),
        nl=nl_corpus(config.nl_docs, config.seed),
        nl2code=nl2code_corpus(config.nl2code_docs, config.seed),
        base_code=code_corpus(config.base_code_docs, config.seed),
    )
