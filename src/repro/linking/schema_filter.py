"""Schema filter: keep the top-k1 tables and top-k2 columns (§6.1).

At inference time, tables and columns are ranked by the schema-item
classifier.  At training time (when the gold SQL is known) the used
tables/columns are kept and *padded* with randomly selected unused ones
up to k1/k2 so that train and test prompt distributions match — exactly
the padding trick the paper describes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.db.schema import ForeignKey, Schema, Table
from repro.linking.classifier import SchemaItemClassifier
from repro.retrieval.value_retriever import MatchedValue
from repro.sqlgen.ast import identifier_key
from repro.sqlgen.parser import parse_sql


@dataclass(frozen=True)
class FilteredSchema:
    """A reduced schema plus the ranking that produced it."""

    schema: Schema
    kept_tables: tuple[str, ...]
    kept_columns: dict[str, tuple[str, ...]]


def _project_schema(schema: Schema, keep: dict[str, list[str]]) -> Schema:
    """Build a sub-schema containing only the kept tables/columns."""
    tables: list[Table] = []
    for table in schema.tables:
        kept = keep.get(table.name.lower())
        if kept is None:
            continue
        kept_set = {name.lower() for name in kept}
        columns = tuple(
            column for column in table.columns if column.name.lower() in kept_set
        )
        if not columns:
            columns = table.columns[:1]
        tables.append(Table(name=table.name, columns=columns, comment=table.comment))
    by_key = {identifier_key(table.name): table for table in tables}
    foreign_keys: list[ForeignKey] = []
    for fkey in schema.foreign_keys:
        src = by_key.get(identifier_key(fkey.src_table))
        dst = by_key.get(identifier_key(fkey.dst_table))
        if src is not None and dst is not None:
            if src.has_column(fkey.src_column) and dst.has_column(fkey.dst_column):
                foreign_keys.append(fkey)
    return Schema(
        name=schema.name,
        tables=tuple(tables),
        foreign_keys=tuple(foreign_keys),
        domain=schema.domain,
    )


class SchemaFilter:
    """Classifier-driven schema reduction with train-time padding."""

    def __init__(
        self,
        classifier: SchemaItemClassifier | None = None,
        top_k1: int = 6,
        top_k2: int = 10,
    ):
        if top_k1 < 1 or top_k2 < 1:
            raise ValueError("top_k1 and top_k2 must be at least 1")
        self.classifier = classifier
        self.top_k1 = top_k1
        self.top_k2 = top_k2

    def filter(
        self,
        question: str,
        schema: Schema,
        matched_values: list[MatchedValue] | None = None,
    ) -> FilteredSchema:
        """Inference-time filtering driven by classifier scores.

        Without a trained classifier the lexical scorer ranks items
        (the zero-training path used by few-shot ICL).
        """
        if self.classifier is not None and self.classifier.trained:
            scores = self.classifier.score_schema(question, schema, matched_values)
        else:
            from repro.linking.lexical import LexicalSchemaScorer

            scores = LexicalSchemaScorer().score_schema(
                question, schema, matched_values
            )
        tables = scores.top_tables(self.top_k1)
        keep = {
            name: list(scores.top_columns(name, self.top_k2)) for name in tables
        }
        # Primary/foreign-key columns must survive filtering or the model
        # cannot generate JOIN clauses; re-add them where needed.
        keep = self._ensure_key_columns(schema, keep)
        projected = _project_schema(schema, keep)
        return FilteredSchema(
            schema=projected,
            kept_tables=tuple(keep),
            kept_columns={name: tuple(cols) for name, cols in keep.items()},
        )

    def filter_training(
        self, question: str, schema: Schema, gold_sql: str, seed: int = 0
    ) -> FilteredSchema:
        """Gold-driven filtering with random padding (train-time path)."""
        from repro.sqlgen.transform import qualify_columns

        del question  # labels come from the SQL, not the question
        query = qualify_columns(parse_sql(gold_sql))
        used_columns = query.columns_used()
        rng = random.Random(f"{seed}:{gold_sql}")

        all_tables = [t.name.lower() for t in schema.tables]
        # Schema order: ``tables_used()`` is a set, iterated in hash order.
        used = query.tables_used()
        used_tables = [name for name in all_tables if name in used]
        unused = [name for name in all_tables if name not in used]
        rng.shuffle(unused)
        tables = (used_tables + unused)[: max(self.top_k1, len(used_tables))]

        keep: dict[str, list[str]] = {}
        for table_name in tables:
            table = schema.table(table_name)
            used_here = [
                column.name
                for column in table.columns
                if f"{table.name.lower()}.{column.name.lower()}" in used_columns
            ]
            unused_here = [
                column.name for column in table.columns if column.name not in used_here
            ]
            rng.shuffle(unused_here)
            budget = max(self.top_k2, len(used_here))
            keep[table_name] = (used_here + unused_here)[:budget]
        keep = self._ensure_key_columns(schema, keep)
        projected = _project_schema(schema, keep)
        return FilteredSchema(
            schema=projected,
            kept_tables=tuple(keep),
            kept_columns={name: tuple(cols) for name, cols in keep.items()},
        )

    def _ensure_key_columns(
        self, schema: Schema, keep: dict[str, list[str]]
    ) -> dict[str, list[str]]:
        result = {name: list(cols) for name, cols in keep.items()}
        for table_name, columns in result.items():
            table = schema.table(table_name)
            lowered = {c.lower() for c in columns}
            primary = table.primary_key
            if primary is not None and primary.name.lower() not in lowered:
                columns.append(primary.name)
                lowered.add(primary.name.lower())
            for fkey in schema.foreign_keys_of(table_name):
                for side_table, side_column in (
                    (fkey.src_table, fkey.src_column),
                    (fkey.dst_table, fkey.dst_column),
                ):
                    other = (
                        fkey.dst_table
                        if identifier_key(side_table) == identifier_key(fkey.src_table)
                        else fkey.src_table
                    )
                    if (
                        identifier_key(side_table) == table_name
                        and other.lower() in result
                        and side_column.lower() not in lowered
                    ):
                        columns.append(side_column)
                        lowered.add(side_column.lower())
        return result
