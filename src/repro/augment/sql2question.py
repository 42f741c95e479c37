"""SQL-to-question augmentation (§7, Figure 5b).

SQL templates (the benchmark's template families, standing in for the
75 Spider templates) are slot-filled with the new database's schema;
their *templated questions* — stiff renderings that insert raw table
and column names — are then refined into natural phrasing by the LLM.
"""

from __future__ import annotations

import random

from repro.analysis.analyzer import SemanticAnalyzer
from repro.analysis.catalog import SchemaCatalog
from repro.analysis.diagnostics import has_errors
from repro.augment.synthetic_llm import SyntheticLLM
from repro.datasets.base import Text2SQLExample
from repro.datasets.generator import GeneratedDatabase
from repro.datasets.templates import sample_question_sql, template_ids
from repro.sqlgen.ast import Aggregation, ColumnRef, Query
from repro.sqlgen.parser import parse_sql
from repro.sqlgen.dialects.sqlite import SQLITE_EMITTER


def templated_question(query: Query) -> str:
    """A stiff, template-style question for ``query``.

    Inserts raw schema identifiers ("Return the open_date of account
    ...") exactly like the paper's pre-refinement templated questions.
    """
    select_parts = []
    for item in query.select_items:
        expr = item.expr
        if isinstance(expr, Aggregation):
            if expr.arg.column == "*":
                select_parts.append(f"the {expr.func} of rows")
            else:
                select_parts.append(f"the {expr.func} of {expr.arg.column}")
        elif isinstance(expr, ColumnRef):
            target = "all columns" if expr.column == "*" else f"the {expr.column}"
            select_parts.append(target)
    text = f"Return {' and '.join(select_parts)} of {query.from_table}"
    for edge in query.joins:
        text += f" joined with {edge.table}"
    if query.where is not None:
        text += f" where {SQLITE_EMITTER.serialize_condition(query.where).lower()}"
    if query.group_by:
        text += f" grouped by {', '.join(col.column for col in query.group_by)}"
    if query.order_by:
        directions = ", ".join(
            f"{_order_column(item.expr)} {'descending' if item.descending else 'ascending'}"
            for item in query.order_by
        )
        text += f" ordered by {directions}"
    if query.limit is not None:
        text += f" limited to {query.limit}"
    return text + "."


def _order_column(expr) -> str:
    if isinstance(expr, ColumnRef):
        return expr.column
    if isinstance(expr, Aggregation):
        return f"{expr.func} of {expr.arg.column}"
    return str(expr)


def _name_map(gdb: GeneratedDatabase) -> dict[str, str]:
    """Raw identifier -> human phrase for the refinement step."""
    mapping: dict[str, str] = {}
    for (table, column), spec in gdb.column_specs.items():
        mapping[column] = spec.readable()
    for table in gdb.schema.tables:
        mapping[table.name] = gdb.table_noun(table.name)
    return mapping


class SQLToQuestionAugmenter:
    """Generates generic template pairs and refines their questions."""

    def __init__(self, llm: SyntheticLLM | None = None, seed: int = 0):
        self.llm = llm or SyntheticLLM(seed=seed)
        self._rng = random.Random(f"sql2question:{seed}")

    def augment(self, gdb: GeneratedDatabase, n_pairs: int) -> list[Text2SQLExample]:
        """Up to ``n_pairs`` refined (question, SQL) pairs for ``gdb``.

        Sampled SQL is admitted only when it lints clean against the
        database's schema catalog: a dirty template instantiation would
        train the parser to reproduce hallucinated or ill-typed SQL, so
        it is rejected here and another sample is drawn instead.
        """
        ids = template_ids()
        analyzer = SemanticAnalyzer(SchemaCatalog.from_database(gdb.database))
        pairs: list[Text2SQLExample] = []
        seen_sql: set[str] = set()
        attempts = 0
        while len(pairs) < n_pairs and attempts < n_pairs * 15:
            attempts += 1
            template_id = self._rng.choice(ids)
            sampled = sample_question_sql(gdb, self._rng, template_id=template_id)
            if sampled is None or sampled.sql in seen_sql:
                continue
            seen_sql.add(sampled.sql)
            if has_errors(analyzer.analyze_sql(sampled.sql)):
                continue
            stiff = templated_question(parse_sql(sampled.sql))
            refined = self.llm.refine_question(stiff, name_map=_name_map(gdb))
            pairs.append(
                Text2SQLExample(question=refined, sql=sampled.sql, db_id=gdb.db_id)
            )
        return pairs
