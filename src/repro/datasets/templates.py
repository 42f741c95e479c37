"""Paired question/SQL templates over generated databases.

Every template builds a SQL AST against a :class:`GeneratedDatabase`
and a natural-language question that a user could plausibly ask for it.
Questions refer to columns by their *readable phrase* (the blueprint
meaning), not the stored column name — so when a benchmark renames
columns to cryptic abbreviations (BIRD-style), questions stay natural
and the linking problem becomes genuinely hard.  For such references an
external-knowledge note ("phrase refers to table.column") is emitted,
mirroring BIRD's EK annotations.

The bank doubles as the SQL-template library for the SQL-to-question
augmentation direction (§7): :func:`template_ids` exposes the family
identifiers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.datasets.generator import GeneratedDatabase
from repro.db.schema import Table
from repro.sqlgen.ast import (
    Aggregation,
    BetweenCondition,
    BinaryCondition,
    ColumnRef,
    CompoundCondition,
    InCondition,
    JoinEdge,
    LikeCondition,
    Literal,
    OrderItem,
    Query,
    SelectItem,
)
from repro.sqlgen.dialects.sqlite import SQLITE_EMITTER

_NAMEISH = ("person_name", "title", "word", "city", "country")
_TEXTUAL = ("person_name", "title", "word", "city", "country", "category",
            "status", "gender", "flag")
_NUMERIC = ("amount", "count", "small_count", "score", "year")

_CARRIERS = ["", "Please ", "Could you ", "I would like you to "]


@dataclass(frozen=True)
class QuestionSQL:
    """A generated (question, SQL) pair with optional external knowledge."""

    question: str
    sql: str
    template_id: str
    external_knowledge: str = ""


class _Context:
    """Helper bundling the database and the rng for one sample."""

    def __init__(self, gdb: GeneratedDatabase, rng: random.Random):
        self.gdb = gdb
        self.rng = rng
        self.ek_parts: list[str] = []

    # -- selection helpers ---------------------------------------------------

    def tables_with(self, semantics: tuple[str, ...]) -> list[Table]:
        out = []
        for table in self.gdb.schema.tables:
            if self.gdb.columns_with_semantic(table.name, semantics):
                out.append(table)
        return out

    def pick_table_with(self, semantics: tuple[str, ...]) -> Table | None:
        candidates = self.tables_with(semantics)
        if not candidates:
            return None
        return self.rng.choice(candidates)

    def pick_column(self, table: Table, semantics: tuple[str, ...]) -> str | None:
        candidates = self.gdb.columns_with_semantic(table.name, semantics)
        if not candidates:
            return None
        return self.rng.choice(candidates)

    def phrase(self, table: Table, column: str) -> str:
        """Readable phrase for a column, recording EK for ambiguous names."""
        text = self.gdb.readable_phrase(table.name, column)
        if self.gdb.is_ambiguous(table.name, column):
            self.ek_parts.append(f"'{text}' refers to {table.name}.{column}")
        return text

    def value_of(self, table: Table, column: str) -> str | None:
        values = self.gdb.database.distinct_values(table.name, column, limit=200)
        values = [v for v in values if isinstance(v, str) and v.strip()]
        if not values:
            return None
        return self.rng.choice(values)

    def numeric_threshold(self, table: Table, column: str) -> float | int | None:
        values = self.gdb.database.distinct_values(table.name, column, limit=500)
        numbers = sorted(
            v for v in values if isinstance(v, (int, float)) and not isinstance(v, bool)
        )
        if len(numbers) < 3:
            return None
        pivot = numbers[len(numbers) // 2]
        if isinstance(pivot, float):
            return round(pivot, 2)
        return pivot

    def noun(self, table: Table) -> str:
        return self.gdb.table_noun(table.name)

    def singular(self, table: Table) -> str:
        return table.name.replace("_", " ")

    def carrier(self) -> str:
        return self.rng.choice(_CARRIERS)

    def external_knowledge(self) -> str:
        return "; ".join(dict.fromkeys(self.ek_parts))


def _col(table: Table, column: str) -> ColumnRef:
    return ColumnRef(table=table.name, column=column)


def _surface(value) -> str:
    """How a question mentions a stored value (cleaned surface form)."""
    if isinstance(value, str):
        return value.strip()
    return str(value)


# ---------------------------------------------------------------------------
# Template implementations.  Each returns QuestionSQL or None when the
# database lacks the required structure.
# ---------------------------------------------------------------------------


def _t_count_all(ctx: _Context) -> QuestionSQL | None:
    table = ctx.rng.choice(list(ctx.gdb.schema.tables))
    question = ctx.rng.choice(
        [
            f"How many {ctx.noun(table)} are there?",
            f"Count the total number of {ctx.noun(table)}.",
            f"What is the number of {ctx.noun(table)}?",
        ]
    )
    query = Query(
        select_items=(SelectItem(Aggregation("count", ColumnRef("", "*"))),),
        from_table=table.name,
    )
    return QuestionSQL(question, SQLITE_EMITTER.serialize(query), "count_all")


def _t_select_where_text(ctx: _Context) -> QuestionSQL | None:
    table = ctx.pick_table_with(_NAMEISH)
    if table is None:
        return None
    select_col = ctx.pick_column(table, _NAMEISH)
    filter_col = ctx.pick_column(table, _TEXTUAL)
    if select_col is None or filter_col is None or select_col == filter_col:
        return None
    value = ctx.value_of(table, filter_col)
    if value is None:
        return None
    select_phrase = ctx.phrase(table, select_col)
    filter_phrase = ctx.phrase(table, filter_col)
    question = ctx.carrier() + ctx.rng.choice(
        [
            f"list the {select_phrase} of {ctx.noun(table)} whose {filter_phrase} is {_surface(value)}.",
            f"show the {select_phrase} of every {ctx.singular(table)} with {filter_phrase} {_surface(value)}.",
            f"what is the {select_phrase} of the {ctx.singular(table)} whose {filter_phrase} equals {_surface(value)}?",
        ]
    )
    query = Query(
        select_items=(SelectItem(_col(table, select_col)),),
        from_table=table.name,
        where=BinaryCondition(_col(table, filter_col), "=", Literal(value)),
    )
    return QuestionSQL(
        question[0].upper() + question[1:],
        SQLITE_EMITTER.serialize(query),
        "select_where_text",
        ctx.external_knowledge(),
    )


def _t_select_where_numeric(ctx: _Context) -> QuestionSQL | None:
    table = ctx.pick_table_with(_NAMEISH)
    if table is None:
        return None
    select_col = ctx.pick_column(table, _NAMEISH)
    num_col = ctx.pick_column(table, _NUMERIC)
    if select_col is None or num_col is None:
        return None
    threshold = ctx.numeric_threshold(table, num_col)
    if threshold is None:
        return None
    op, word = ctx.rng.choice([(">", "more than"), ("<", "less than"), (">=", "at least")])
    select_phrase = ctx.phrase(table, select_col)
    num_phrase = ctx.phrase(table, num_col)
    question = ctx.rng.choice(
        [
            f"List the {select_phrase} of {ctx.noun(table)} with {num_phrase} {word} {threshold}.",
            f"Which {ctx.noun(table)} have a {num_phrase} {word} {threshold}? Give their {select_phrase}.",
            f"Find the {select_phrase} of all {ctx.noun(table)} whose {num_phrase} is {word} {threshold}.",
        ]
    )
    query = Query(
        select_items=(SelectItem(_col(table, select_col)),),
        from_table=table.name,
        where=BinaryCondition(_col(table, num_col), op, Literal(threshold)),
    )
    return QuestionSQL(question, SQLITE_EMITTER.serialize(query),
                       "select_where_numeric", ctx.external_knowledge())


def _t_count_where(ctx: _Context) -> QuestionSQL | None:
    table = ctx.pick_table_with(_TEXTUAL)
    if table is None:
        return None
    filter_col = ctx.pick_column(table, _TEXTUAL)
    if filter_col is None:
        return None
    value = ctx.value_of(table, filter_col)
    if value is None:
        return None
    filter_phrase = ctx.phrase(table, filter_col)
    question = ctx.rng.choice(
        [
            f"How many {ctx.noun(table)} have {filter_phrase} {_surface(value)}?",
            f"Count the {ctx.noun(table)} whose {filter_phrase} is {_surface(value)}.",
            f"What is the number of {ctx.noun(table)} with a {filter_phrase} of {_surface(value)}?",
        ]
    )
    query = Query(
        select_items=(SelectItem(Aggregation("count", ColumnRef("", "*"))),),
        from_table=table.name,
        where=BinaryCondition(_col(table, filter_col), "=", Literal(value)),
    )
    return QuestionSQL(question, SQLITE_EMITTER.serialize(query), "count_where",
                       ctx.external_knowledge())


def _t_aggregate(ctx: _Context) -> QuestionSQL | None:
    table = ctx.pick_table_with(_NUMERIC)
    if table is None:
        return None
    num_col = ctx.pick_column(table, _NUMERIC)
    if num_col is None:
        return None
    func, word = ctx.rng.choice(
        [("avg", "average"), ("max", "maximum"), ("min", "minimum"), ("sum", "total")]
    )
    num_phrase = ctx.phrase(table, num_col)
    question = ctx.rng.choice(
        [
            f"What is the {word} {num_phrase} of all {ctx.noun(table)}?",
            f"Give the {word} {num_phrase} across {ctx.noun(table)}.",
            f"Compute the {word} {num_phrase} over every {ctx.singular(table)}.",
        ]
    )
    query = Query(
        select_items=(SelectItem(Aggregation(func, _col(table, num_col))),),
        from_table=table.name,
    )
    return QuestionSQL(question, SQLITE_EMITTER.serialize(query), "aggregate",
                       ctx.external_knowledge())


def _t_top_k(ctx: _Context) -> QuestionSQL | None:
    table = ctx.pick_table_with(_NAMEISH)
    if table is None:
        return None
    select_col = ctx.pick_column(table, _NAMEISH)
    num_col = ctx.pick_column(table, _NUMERIC)
    if select_col is None or num_col is None:
        return None
    descending = ctx.rng.random() < 0.7
    k = ctx.rng.choice([1, 1, 3, 5])
    direction = "highest" if descending else "lowest"
    select_phrase = ctx.phrase(table, select_col)
    num_phrase = ctx.phrase(table, num_col)
    if k == 1:
        question = ctx.rng.choice(
            [
                f"What is the {select_phrase} of the {ctx.singular(table)} with the {direction} {num_phrase}?",
                f"Find the {select_phrase} of the {ctx.singular(table)} that has the {direction} {num_phrase}.",
            ]
        )
    else:
        phrasings = [
            f"List the {select_phrase} of the {k} {ctx.noun(table)} with the {direction} {num_phrase}.",
        ]
        if descending:
            # "top k by X" implies descending; only valid for that branch.
            phrasings.append(
                f"Show the top {k} {ctx.noun(table)} by {num_phrase}: give their {select_phrase}."
            )
        question = ctx.rng.choice(phrasings)
    query = Query(
        select_items=(SelectItem(_col(table, select_col)),),
        from_table=table.name,
        order_by=(OrderItem(_col(table, num_col), descending=descending),),
        limit=k,
    )
    return QuestionSQL(question, SQLITE_EMITTER.serialize(query), "top_k",
                       ctx.external_knowledge())


def _t_group_count(ctx: _Context) -> QuestionSQL | None:
    table = ctx.pick_table_with(("category", "status", "gender", "city", "country"))
    if table is None:
        return None
    group_col = ctx.pick_column(
        table, ("category", "status", "gender", "city", "country")
    )
    if group_col is None:
        return None
    group_phrase = ctx.phrase(table, group_col)
    question = ctx.rng.choice(
        [
            f"How many {ctx.noun(table)} are there for each {group_phrase}?",
            f"Count the number of {ctx.noun(table)} per {group_phrase}.",
            f"For each {group_phrase}, how many {ctx.noun(table)} are there?",
        ]
    )
    query = Query(
        select_items=(
            SelectItem(_col(table, group_col)),
            SelectItem(Aggregation("count", ColumnRef("", "*"))),
        ),
        from_table=table.name,
        group_by=(_col(table, group_col),),
    )
    return QuestionSQL(question, SQLITE_EMITTER.serialize(query), "group_count",
                       ctx.external_knowledge())


def _t_group_having(ctx: _Context) -> QuestionSQL | None:
    table = ctx.pick_table_with(("category", "status", "city", "country"))
    if table is None:
        return None
    group_col = ctx.pick_column(table, ("category", "status", "city", "country"))
    if group_col is None:
        return None
    threshold = ctx.rng.randint(2, 5)
    group_phrase = ctx.phrase(table, group_col)
    question = ctx.rng.choice(
        [
            f"Which {group_phrase} values appear in more than {threshold} {ctx.noun(table)}?",
            f"List every {group_phrase} shared by at least {threshold + 1} {ctx.noun(table)}.",
        ]
    )
    query = Query(
        select_items=(SelectItem(_col(table, group_col)),),
        from_table=table.name,
        group_by=(_col(table, group_col),),
        having=BinaryCondition(
            Aggregation("count", ColumnRef("", "*")), ">", Literal(threshold)
        ),
    )
    return QuestionSQL(question, SQLITE_EMITTER.serialize(query), "group_having",
                       ctx.external_knowledge())


def _pick_fk(ctx: _Context):
    """A random FK edge, canonicalized to the first edge between its pair.

    When two tables are linked by several foreign keys (e.g. home/away
    team), the question cannot distinguish them, so the benchmark always
    uses the canonical (first-declared) edge.
    """
    if not ctx.gdb.schema.foreign_keys:
        return None
    sampled = ctx.rng.choice(list(ctx.gdb.schema.foreign_keys))
    return ctx.gdb.schema.join_edge(sampled.src_table, sampled.dst_table) or sampled


def _t_join_select(ctx: _Context) -> QuestionSQL | None:
    fkey = _pick_fk(ctx)
    if fkey is None:
        return None
    entity = ctx.gdb.schema.table(fkey.dst_table)
    relation = ctx.gdb.schema.table(fkey.src_table)
    select_col = ctx.pick_column(entity, _NAMEISH)
    filter_col = ctx.pick_column(relation, _TEXTUAL)
    if select_col is None or filter_col is None:
        return None
    value = ctx.value_of(relation, filter_col)
    if value is None:
        return None
    select_phrase = ctx.phrase(entity, select_col)
    filter_phrase = ctx.phrase(relation, filter_col)
    question = ctx.rng.choice(
        [
            f"List the {select_phrase} of {ctx.noun(entity)} that have a {ctx.singular(relation)} with {filter_phrase} {_surface(value)}.",
            f"Which {ctx.noun(entity)} are linked to a {ctx.singular(relation)} whose {filter_phrase} is {_surface(value)}? Show their {select_phrase}.",
        ]
    )
    query = Query(
        select_items=(SelectItem(_col(entity, select_col)),),
        from_table=entity.name,
        joins=(
            JoinEdge(
                table=relation.name,
                left=ColumnRef(entity.name, fkey.dst_column),
                right=ColumnRef(relation.name, fkey.src_column),
            ),
        ),
        where=BinaryCondition(_col(relation, filter_col), "=", Literal(value)),
    )
    return QuestionSQL(question, SQLITE_EMITTER.serialize(query), "join_select",
                       ctx.external_knowledge())


def _t_join_count(ctx: _Context) -> QuestionSQL | None:
    fkey = _pick_fk(ctx)
    if fkey is None:
        return None
    entity = ctx.gdb.schema.table(fkey.dst_table)
    relation = ctx.gdb.schema.table(fkey.src_table)
    name_col = ctx.pick_column(entity, _NAMEISH)
    if name_col is None:
        return None
    name_phrase = ctx.phrase(entity, name_col)
    question = ctx.rng.choice(
        [
            f"For each {ctx.singular(entity)}, how many {ctx.noun(relation)} does it have? Show the {name_phrase} and the count.",
            f"Count the {ctx.noun(relation)} of every {ctx.singular(entity)}, listing its {name_phrase}.",
        ]
    )
    query = Query(
        select_items=(
            SelectItem(_col(entity, name_col)),
            SelectItem(Aggregation("count", ColumnRef("", "*"))),
        ),
        from_table=entity.name,
        joins=(
            JoinEdge(
                table=relation.name,
                left=ColumnRef(entity.name, fkey.dst_column),
                right=ColumnRef(relation.name, fkey.src_column),
            ),
        ),
        group_by=(_col(entity, name_col),),
    )
    return QuestionSQL(question, SQLITE_EMITTER.serialize(query), "join_count",
                       ctx.external_knowledge())


def _t_distinct(ctx: _Context) -> QuestionSQL | None:
    table = ctx.pick_table_with(("category", "status", "city", "country"))
    if table is None:
        return None
    col = ctx.pick_column(table, ("category", "status", "city", "country"))
    if col is None:
        return None
    phrase = ctx.phrase(table, col)
    question = ctx.rng.choice(
        [
            f"What are the distinct {phrase} values among {ctx.noun(table)}?",
            f"List all different {phrase} values of {ctx.noun(table)}.",
        ]
    )
    query = Query(
        select_items=(SelectItem(_col(table, col)),),
        from_table=table.name,
        distinct=True,
    )
    return QuestionSQL(question, SQLITE_EMITTER.serialize(query), "distinct",
                       ctx.external_knowledge())


def _t_between(ctx: _Context) -> QuestionSQL | None:
    table = ctx.pick_table_with(_NAMEISH)
    if table is None:
        return None
    select_col = ctx.pick_column(table, _NAMEISH)
    num_col = ctx.pick_column(table, ("year",))
    if select_col is None or num_col is None:
        return None
    low = ctx.rng.randint(1950, 2000)
    high = low + ctx.rng.randint(5, 20)
    select_phrase = ctx.phrase(table, select_col)
    num_phrase = ctx.phrase(table, num_col)
    question = ctx.rng.choice(
        [
            f"Show the {select_phrase} of {ctx.noun(table)} whose {num_phrase} is between {low} and {high}.",
            f"Which {ctx.noun(table)} have a {num_phrase} from {low} to {high}? List their {select_phrase}.",
        ]
    )
    query = Query(
        select_items=(SelectItem(_col(table, select_col)),),
        from_table=table.name,
        where=BetweenCondition(_col(table, num_col), Literal(low), Literal(high)),
    )
    return QuestionSQL(question, SQLITE_EMITTER.serialize(query), "between",
                       ctx.external_knowledge())


def _t_in_list(ctx: _Context) -> QuestionSQL | None:
    table = ctx.pick_table_with(_NAMEISH)
    if table is None:
        return None
    select_col = ctx.pick_column(table, _NAMEISH)
    filter_col = ctx.pick_column(table, ("city", "country", "category"))
    if select_col is None or filter_col is None or select_col == filter_col:
        return None
    values = ctx.gdb.database.distinct_values(table.name, filter_col, limit=50)
    values = [v for v in values if isinstance(v, str)]
    if len(values) < 2:
        return None
    first, second = ctx.rng.sample(values, 2)
    select_phrase = ctx.phrase(table, select_col)
    filter_phrase = ctx.phrase(table, filter_col)
    question = ctx.rng.choice(
        [
            f"List the {select_phrase} of {ctx.noun(table)} whose {filter_phrase} is either {_surface(first)} or {_surface(second)}.",
            f"Show the {select_phrase} of {ctx.noun(table)} from {_surface(first)} or {_surface(second)}.",
        ]
    )
    query = Query(
        select_items=(SelectItem(_col(table, select_col)),),
        from_table=table.name,
        where=InCondition(
            _col(table, filter_col), values=(Literal(first), Literal(second))
        ),
    )
    return QuestionSQL(question, SQLITE_EMITTER.serialize(query), "in_list",
                       ctx.external_knowledge())


def _t_order_list(ctx: _Context) -> QuestionSQL | None:
    table = ctx.pick_table_with(_NAMEISH)
    if table is None:
        return None
    select_col = ctx.pick_column(table, _NAMEISH)
    order_col = ctx.pick_column(table, _NUMERIC)
    if select_col is None or order_col is None:
        return None
    select_phrase = ctx.phrase(table, select_col)
    order_phrase = ctx.phrase(table, order_col)
    question = ctx.rng.choice(
        [
            f"List the {select_phrase} of all {ctx.noun(table)} sorted by {order_phrase} in ascending order.",
            f"Show every {ctx.singular(table)}'s {select_phrase} ordered by {order_phrase} from smallest to largest.",
        ]
    )
    query = Query(
        select_items=(SelectItem(_col(table, select_col)),),
        from_table=table.name,
        order_by=(OrderItem(_col(table, order_col), descending=False),),
    )
    return QuestionSQL(question, SQLITE_EMITTER.serialize(query), "order_list",
                       ctx.external_knowledge())


def _t_count_distinct(ctx: _Context) -> QuestionSQL | None:
    table = ctx.pick_table_with(("category", "city", "country", "status"))
    if table is None:
        return None
    col = ctx.pick_column(table, ("category", "city", "country", "status"))
    if col is None:
        return None
    phrase = ctx.phrase(table, col)
    question = ctx.rng.choice(
        [
            f"How many different {phrase} values do the {ctx.noun(table)} have?",
            f"Count the distinct {phrase} values among {ctx.noun(table)}.",
        ]
    )
    query = Query(
        select_items=(
            SelectItem(Aggregation("count", _col(table, col), distinct=True)),
        ),
        from_table=table.name,
    )
    return QuestionSQL(question, SQLITE_EMITTER.serialize(query), "count_distinct",
                       ctx.external_knowledge())


def _t_and_conditions(ctx: _Context) -> QuestionSQL | None:
    table = ctx.pick_table_with(_NAMEISH)
    if table is None:
        return None
    select_col = ctx.pick_column(table, _NAMEISH)
    text_col = ctx.pick_column(table, _TEXTUAL)
    num_col = ctx.pick_column(table, _NUMERIC)
    if None in (select_col, text_col, num_col) or select_col == text_col:
        return None
    value = ctx.value_of(table, text_col)
    threshold = ctx.numeric_threshold(table, num_col)
    if value is None or threshold is None:
        return None
    select_phrase = ctx.phrase(table, select_col)
    text_phrase = ctx.phrase(table, text_col)
    num_phrase = ctx.phrase(table, num_col)
    question = (
        f"Find the {select_phrase} of {ctx.noun(table)} whose {text_phrase} is "
        f"{_surface(value)} and whose {num_phrase} is greater than {threshold}."
    )
    query = Query(
        select_items=(SelectItem(_col(table, select_col)),),
        from_table=table.name,
        where=CompoundCondition(
            op="AND",
            conditions=(
                BinaryCondition(_col(table, text_col), "=", Literal(value)),
                BinaryCondition(_col(table, num_col), ">", Literal(threshold)),
            ),
        ),
    )
    return QuestionSQL(question, SQLITE_EMITTER.serialize(query), "and_conditions",
                       ctx.external_knowledge())


def _t_or_conditions(ctx: _Context) -> QuestionSQL | None:
    table = ctx.pick_table_with(_NAMEISH)
    if table is None:
        return None
    select_col = ctx.pick_column(table, _NAMEISH)
    num_col = ctx.pick_column(table, ("year",))
    if select_col is None or num_col is None:
        return None
    first = ctx.rng.randint(1950, 2000)
    second = first + 1
    select_phrase = ctx.phrase(table, select_col)
    num_phrase = ctx.phrase(table, num_col)
    question = ctx.rng.choice(
        [
            f"Show the {select_phrase} of {ctx.noun(table)} whose {num_phrase} is {first} or {second}.",
            f"List the {select_phrase} of every {ctx.singular(table)} with a {num_phrase} of {first} or {second}.",
        ]
    )
    query = Query(
        select_items=(SelectItem(_col(table, select_col)),),
        from_table=table.name,
        where=CompoundCondition(
            op="OR",
            conditions=(
                BinaryCondition(_col(table, num_col), "=", Literal(first)),
                BinaryCondition(_col(table, num_col), "=", Literal(second)),
            ),
        ),
    )
    return QuestionSQL(question, SQLITE_EMITTER.serialize(query), "or_conditions",
                       ctx.external_knowledge())


def _t_subquery_gt_avg(ctx: _Context) -> QuestionSQL | None:
    table = ctx.pick_table_with(_NAMEISH)
    if table is None:
        return None
    select_col = ctx.pick_column(table, _NAMEISH)
    num_col = ctx.pick_column(table, ("amount", "count", "score"))
    if select_col is None or num_col is None:
        return None
    select_phrase = ctx.phrase(table, select_col)
    num_phrase = ctx.phrase(table, num_col)
    question = ctx.rng.choice(
        [
            f"List the {select_phrase} of {ctx.noun(table)} whose {num_phrase} is above the average.",
            f"Which {ctx.noun(table)} have a {num_phrase} higher than the average {num_phrase}? Show their {select_phrase}.",
        ]
    )
    inner = Query(
        select_items=(SelectItem(Aggregation("avg", _col(table, num_col))),),
        from_table=table.name,
    )
    query = Query(
        select_items=(SelectItem(_col(table, select_col)),),
        from_table=table.name,
        where=BinaryCondition(_col(table, num_col), ">", inner),
    )
    return QuestionSQL(question, SQLITE_EMITTER.serialize(query), "subquery_gt_avg",
                       ctx.external_knowledge())


def _t_like_prefix(ctx: _Context) -> QuestionSQL | None:
    table = ctx.pick_table_with(("person_name", "title"))
    if table is None:
        return None
    col = ctx.pick_column(table, ("person_name", "title"))
    if col is None:
        return None
    value = ctx.value_of(table, col)
    if value is None or not value.strip():
        return None
    prefix = value.strip()[0].upper()
    phrase = ctx.phrase(table, col)
    question = ctx.rng.choice(
        [
            f"List the {phrase} of {ctx.noun(table)} whose {phrase} starts with the letter {prefix}.",
            f"Which {ctx.noun(table)} have a {phrase} beginning with {prefix}?",
        ]
    )
    query = Query(
        select_items=(SelectItem(_col(table, col)),),
        from_table=table.name,
        where=LikeCondition(_col(table, col), Literal(f"{prefix}%")),
    )
    return QuestionSQL(question, SQLITE_EMITTER.serialize(query), "like_prefix",
                       ctx.external_knowledge())


#: Template id -> builder.  Order defines sampling weights (uniform).
TEMPLATES = {
    "count_all": _t_count_all,
    "select_where_text": _t_select_where_text,
    "select_where_numeric": _t_select_where_numeric,
    "count_where": _t_count_where,
    "aggregate": _t_aggregate,
    "top_k": _t_top_k,
    "group_count": _t_group_count,
    "group_having": _t_group_having,
    "join_select": _t_join_select,
    "join_count": _t_join_count,
    "distinct": _t_distinct,
    "between": _t_between,
    "in_list": _t_in_list,
    "order_list": _t_order_list,
    "count_distinct": _t_count_distinct,
    "and_conditions": _t_and_conditions,
    "or_conditions": _t_or_conditions,
    "subquery_gt_avg": _t_subquery_gt_avg,
    "like_prefix": _t_like_prefix,
}


def template_ids() -> list[str]:
    """All template family identifiers."""
    return list(TEMPLATES)


def sample_question_sql(
    gdb: GeneratedDatabase,
    rng: random.Random,
    template_id: str | None = None,
    max_attempts: int = 20,
) -> QuestionSQL | None:
    """Draw one (question, SQL) pair from ``gdb``.

    Retries across templates until one applies; returns ``None`` only if
    the database supports none of them (shouldn't happen for blueprint
    databases).
    """
    ids = [template_id] if template_id else list(TEMPLATES)
    for _ in range(max_attempts):
        chosen = rng.choice(ids)
        ctx = _Context(gdb, rng)
        result = TEMPLATES[chosen](ctx)
        if result is not None and gdb.database.is_executable(result.sql):
            return result
    return None
