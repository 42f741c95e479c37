"""The database prompt builder (Algorithm 1).

Pipeline per question:

1. value retriever — BM25 coarse search then LCS re-ranking (§6.2);
2. schema filter — classifier-ranked top-k1 tables / top-k2 columns,
   or gold-driven selection with random padding at training time (§6.1);
3. serialization — schema with metadata (types, comments, representative
   values, keys) plus the matched values, concatenated (§6.3, Figure 4).

If the serialized prompt exceeds the character budget, metadata is
dropped in order of dispensability (representative values, comments,
types) before hard truncation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable

from repro.db.backends.sqlite import Database
from repro.db.schema import Schema
from repro.errors import SQLSyntaxError
from repro.linking.classifier import SchemaItemClassifier
from repro.linking.schema_filter import FilteredSchema, SchemaFilter
from repro.promptgen.options import PromptOptions
from repro.retrieval.value_retriever import MatchedValue, ValueRetriever


@dataclass(frozen=True)
class DatabasePrompt:
    """The constructed prompt plus the intermediate artifacts.

    ``schema`` is the *effective* schema view downstream consumers see:
    when keys or comments are ablated away, they are removed here too,
    not just from the serialized text.  The text itself is serialized
    by ``render`` on its first read: generation never reads it.
    """

    schema: Schema
    matched_values: tuple[MatchedValue, ...]
    kept_tables: tuple[str, ...]
    render: Callable[[], str] = field(repr=False, compare=False)
    options: PromptOptions = PromptOptions()

    @cached_property
    def text(self) -> str:
        """The serialized prompt (§6.3, Figure 4)."""
        return self.render()


def apply_schema_ablations(schema: Schema, options: PromptOptions) -> Schema:
    """Strip keys/comments from the structured schema per the options."""
    if options.include_keys and options.include_comments:
        return schema
    from repro.db.schema import Column, Table  # local to avoid import noise

    tables = []
    for table in schema.tables:
        columns = tuple(
            Column(
                name=column.name,
                type=column.type,
                comment=column.comment if options.include_comments else "",
                is_primary=column.is_primary if options.include_keys else False,
            )
            for column in table.columns
        )
        tables.append(
            Table(
                name=table.name,
                columns=columns,
                comment=table.comment if options.include_comments else "",
            )
        )
    return Schema(
        name=schema.name,
        tables=tuple(tables),
        foreign_keys=schema.foreign_keys if options.include_keys else (),
        domain=schema.domain,
    )


class PromptBuilder:
    """Builds database prompts for one database."""

    def __init__(
        self,
        database: Database,
        classifier: SchemaItemClassifier | None = None,
        options: PromptOptions | None = None,
    ):
        self.database = database
        self.options = options or PromptOptions()
        self.classifier = classifier
        self._value_retriever = (
            ValueRetriever(database) if self.options.use_value_retriever else None
        )
        self._schema_filter = SchemaFilter(
            classifier=classifier,
            top_k1=self.options.top_k1,
            top_k2=self.options.top_k2,
        )
        self._representative_cache: dict[tuple[str, str], list] = {}

    # -- public API ---------------------------------------------------------

    def build(
        self,
        question: str,
        gold_sql: str | None = None,
        linking_question: str | None = None,
        matched_values: list[MatchedValue] | None = None,
    ) -> DatabasePrompt:
        """Construct the prompt for ``question``.

        ``gold_sql`` switches to the training-time path: used schema
        items are kept and padded, so train/test prompt distributions
        match (§6.1).  ``linking_question`` (question + external
        knowledge) drives the schema filter; value retrieval always uses
        the bare question, whose words are what the database stores.
        ``matched_values`` short-circuits retrieval when the caller (the
        engine's value_retrieve stage) already ran it.
        """
        linking_question = linking_question or question
        matched = (
            self.retrieve_values(question)
            if matched_values is None
            else list(matched_values)
        )
        filtered = self.filter_schema(
            linking_question, matched, gold_sql=gold_sql, question=question
        )
        return DatabasePrompt(
            schema=apply_schema_ablations(filtered.schema, self.options),
            matched_values=tuple(matched),
            kept_tables=filtered.kept_tables,
            options=self.options,
            render=partial(self.serialize_prompt, filtered.schema, matched),
        )

    def retrieve_values(self, question: str) -> list[MatchedValue]:
        """Database values matching the question (§6.2), possibly none."""
        if self._value_retriever is None:
            return []
        return self._value_retriever.retrieve(question)

    def filter_schema(
        self,
        linking_question: str,
        matched: list[MatchedValue],
        gold_sql: str | None = None,
        question: str | None = None,
    ) -> FilteredSchema:
        """Classifier-ranked schema filtering (§6.1).

        With ``gold_sql`` the training-time path keeps the used schema
        items (padded); it falls back to the test-time filter when the
        gold SQL does not parse.  ``question`` is the bare question the
        training filter matches against (defaults to
        ``linking_question``).
        """
        schema = self.database.schema
        if not self.options.use_schema_filter:
            return FilteredSchema(
                schema=schema,
                kept_tables=tuple(t.name.lower() for t in schema.tables),
                kept_columns={
                    t.name.lower(): tuple(c.name for c in t.columns)
                    for t in schema.tables
                },
            )
        if gold_sql is not None:
            try:
                return self._schema_filter.filter_training(
                    question if question is not None else linking_question,
                    schema,
                    gold_sql,
                )
            except SQLSyntaxError:  # staticcheck: disable=EXC001 (unparseable gold SQL falls back to the heuristic filter below)
                pass
        return self._schema_filter.filter(linking_question, schema, matched)

    def serialize_prompt(
        self, schema: Schema, matched: list[MatchedValue]
    ) -> str:
        """Serialize ``schema`` + matched values within the char budget."""
        text = self._serialize(schema, matched, self.options)
        budget = self.options.max_prompt_chars
        if len(text) > budget:
            text = self._shrink(schema, matched, budget)
        return text

    # -- serialization ------------------------------------------------------

    def representative_values(self, table: str, column: str) -> list:
        """Cached representative cell values for one column (§6.3).

        Public accessor: the engine's prompt_build stage hands this to
        slot filling so literal grounding sees the same values the
        serialized prompt shows.
        """
        key = (table.lower(), column.lower())
        if key not in self._representative_cache:
            self._representative_cache[key] = self.database.representative_values(
                table, column, k=self.options.representative_k
            )
        return self._representative_cache[key]

    def _serialize(
        self,
        schema: Schema,
        matched: list[MatchedValue],
        options: PromptOptions,
    ) -> str:
        lines: list[str] = ["database schema :"]
        for table in schema.tables:
            column_parts: list[str] = []
            for column in table.columns:
                attributes: list[str] = []
                if options.include_column_types:
                    attributes.append(column.type.upper())
                if options.include_keys and column.is_primary:
                    attributes.append("primary key")
                if options.include_comments and column.comment:
                    attributes.append(f"comment : {column.comment}")
                if options.include_representative_values:
                    values = self.representative_values(table.name, column.name)
                    if values:
                        rendered = " , ".join(_render_value(v) for v in values)
                        attributes.append(f"values : {rendered}")
                qualified = f"{table.name}.{column.name}"
                if attributes:
                    column_parts.append(f"{qualified} ( {' | '.join(attributes)} )")
                else:
                    column_parts.append(qualified)
            line = f"table {table.name} , columns = [ {' , '.join(column_parts)} ]"
            if options.include_comments and table.comment:
                line += f" -- {table.comment}"
            lines.append(line)
        if options.include_keys and schema.foreign_keys:
            lines.append("foreign keys :")
            for fkey in schema.foreign_keys:
                lines.append(fkey.render())
        if matched:
            lines.append("matched values :")
            lines.extend(match.render() for match in matched)
        return "\n".join(lines)

    def _shrink(
        self, schema: Schema, matched: list[MatchedValue], budget: int
    ) -> str:
        """Drop metadata in order of dispensability to fit the budget."""
        reductions = (
            {"include_representative_values": False},
            {"include_representative_values": False, "include_comments": False},
            {
                "include_representative_values": False,
                "include_comments": False,
                "include_column_types": False,
            },
        )
        for overrides in reductions:
            text = self._serialize(schema, matched, replace(self.options, **overrides))
            if len(text) <= budget:
                return text
        return text[:budget]


def _render_value(value) -> str:
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return str(value)
