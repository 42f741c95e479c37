"""Dr.Spider: 17 perturbation test sets in three categories (§9.1.1).

- **DB** perturbations rebuild the databases (schema renamed to
  synonyms or abbreviations, or stored content re-expressed) and
  rewrite the gold SQL accordingly, leaving questions untouched;
- **NLQ** perturbations rewrite the dev questions;
- **SQL** perturbations are fresh test sets concentrated on specific
  SQL phenomena (comparisons, sort orders, numbers absent from the DB,
  text vs numeric predicates).
"""

from __future__ import annotations

import random
from typing import Callable

from repro.datasets.base import Text2SQLDataset, Text2SQLExample
from repro.datasets.generator import GeneratedDatabase
from repro.datasets.perturb import (
    SCHEMA_SYNONYMS,
    VALUE_VARIANTS,
    carrier_question,
    column_attribute_question,
    column_carrier_question,
    column_value_question,
    keyword_synonym_question,
    multitype_question,
    others_question,
    synonym_question,
    value_synonym_question,
)
from repro.datasets.spider import SpiderConfig, build_spider
from repro.datasets.templates import sample_question_sql
from repro.db.backends.sqlite import Database
from repro.db.schema import Column, ForeignKey, Schema, Table
from repro.errors import DatasetError
from repro.sqlgen.parser import parse_sql
from repro.sqlgen.dialects.sqlite import SQLITE_EMITTER
from repro.sqlgen.transform import map_literals, rename_query

#: Table-name synonyms for the schema-synonym perturbation.
TABLE_SYNONYMS: dict[str, str] = {
    "singer": "vocalist",
    "customer": "client",
    "employee": "staff_member",
    "doctor": "physician",
    "student": "pupil",
    "team": "club",
    "movie": "film",
    "book": "publication",
    "restaurant": "eatery",
    "property": "listing",
}

DR_SPIDER_PERTURBATIONS: dict[str, tuple[str, ...]] = {
    "DB": ("schema-synonym", "schema-abbreviation", "DBcontent-equivalence"),
    "NLQ": (
        "keyword-synonym", "keyword-carrier", "column-synonym",
        "column-carrier", "column-attribute", "column-value",
        "value-synonym", "multitype", "others",
    ),
    "SQL": ("comparison", "sort-order", "nonDB-number", "DB-text", "DB-number"),
}

_NLQ_PERTURBERS: dict[str, Callable] = {
    "keyword-synonym": keyword_synonym_question,
    "keyword-carrier": carrier_question,
    "column-synonym": synonym_question,
    "column-carrier": column_carrier_question,
    "column-attribute": column_attribute_question,
    "column-value": column_value_question,
    "value-synonym": value_synonym_question,
    "multitype": multitype_question,
    "others": others_question,
}

_SQL_SIDE_TEMPLATES: dict[str, tuple[str, ...]] = {
    "comparison": ("select_where_numeric", "and_conditions"),
    "sort-order": ("top_k", "order_list"),
    "nonDB-number": ("count_all", "count_where", "group_having"),
    "DB-text": ("select_where_text", "join_select", "in_list"),
    "DB-number": ("between", "or_conditions", "select_where_numeric"),
}


def all_perturbation_names() -> list[str]:
    return [name for names in DR_SPIDER_PERTURBATIONS.values() for name in names]


def category_of(perturbation: str) -> str:
    for category, names in DR_SPIDER_PERTURBATIONS.items():
        if perturbation in names:
            return category
    raise DatasetError(f"unknown Dr.Spider perturbation {perturbation!r}")


# ---------------------------------------------------------------------------
# DB-side helpers
# ---------------------------------------------------------------------------


def _rename_database(
    database: Database,
    table_map: dict[str, str],
    column_map: dict[tuple[str, str], str],
    comment_from_old_name: bool,
) -> Database:
    """Rebuild ``database`` under renamed tables/columns, same content."""
    old_schema = database.schema
    tables = []
    for table in old_schema.tables:
        new_columns = []
        for column in table.columns:
            new_name = column_map.get(
                (table.name.lower(), column.name.lower()), column.name
            )
            comment = column.comment
            if comment_from_old_name and new_name != column.name:
                comment = column.name.replace("_", " ")
            new_columns.append(
                Column(
                    name=new_name, type=column.type, comment=comment,
                    is_primary=column.is_primary,
                )
            )
        tables.append(
            Table(
                name=table_map.get(table.name.lower(), table.name),
                columns=tuple(new_columns),
                comment=table.comment,
            )
        )
    foreign_keys = tuple(
        ForeignKey(
            src_table=table_map.get(fk.src_table.lower(), fk.src_table),
            src_column=column_map.get(
                (fk.src_table.lower(), fk.src_column.lower()), fk.src_column
            ),
            dst_table=table_map.get(fk.dst_table.lower(), fk.dst_table),
            dst_column=column_map.get(
                (fk.dst_table.lower(), fk.dst_column.lower()), fk.dst_column
            ),
        )
        for fk in old_schema.foreign_keys
    )
    schema = Schema(
        name=old_schema.name, tables=tuple(tables), foreign_keys=foreign_keys,
        domain=old_schema.domain,
    )
    rows = database.all_rows()
    renamed_rows = {
        table_map.get(name.lower(), name): content for name, content in rows.items()
    }
    return Database.from_schema(schema, renamed_rows)


def _synonym_name(name: str) -> str:
    replacement = SCHEMA_SYNONYMS.get(name.replace("_", " "))
    if replacement is None:
        # Try the last component ("home_city" -> "home_town").
        parts = name.split("_")
        tail = SCHEMA_SYNONYMS.get(parts[-1])
        if tail is None:
            return name
        return "_".join([*parts[:-1], tail.replace(" ", "_")])
    return replacement.replace(" ", "_")


def _abbreviate_name(name: str, index: int) -> str:
    initials = "".join(part[0] for part in name.split("_") if part)
    return f"{initials or name[0]}{index}"


def _build_db_perturbation(
    perturbation: str, spider: Text2SQLDataset, seed: int
) -> Text2SQLDataset:
    databases: dict[str, Database] = {}
    rename_tables: dict[str, dict[str, str]] = {}
    rename_columns: dict[str, dict[tuple[str, str], str]] = {}
    value_maps: dict[str, dict[str, str]] = {}

    for db_id, database in spider.databases.items():
        if perturbation == "DBcontent-equivalence":
            value_map = VALUE_VARIANTS
            rows = database.all_rows()
            mapped_rows = {
                table: [
                    tuple(
                        value_map.get(cell, cell) if isinstance(cell, str) else cell
                        for cell in row
                    )
                    for row in content
                ]
                for table, content in rows.items()
            }
            databases[db_id] = database.clone_with_rows(mapped_rows)
            value_maps[db_id] = value_map
            continue
        table_map: dict[str, str] = {}
        column_map: dict[tuple[str, str], str] = {}
        for table in database.schema.tables:
            if perturbation == "schema-synonym":
                new_table = TABLE_SYNONYMS.get(table.name.lower(), table.name)
                if new_table != table.name:
                    table_map[table.name.lower()] = new_table
            for index, column in enumerate(table.columns):
                is_key = column.is_primary or column.name.lower().endswith("_id")
                if is_key:
                    continue
                if perturbation == "schema-synonym":
                    new_name = _synonym_name(column.name)
                else:  # schema-abbreviation
                    new_name = _abbreviate_name(column.name, index)
                if new_name != column.name:
                    column_map[(table.name.lower(), column.name.lower())] = new_name
        databases[db_id] = _rename_database(
            database, table_map, column_map,
            comment_from_old_name=(perturbation == "schema-abbreviation"),
        )
        rename_tables[db_id] = table_map
        rename_columns[db_id] = column_map

    def rewrite(example: Text2SQLExample) -> Text2SQLExample:
        query = parse_sql(example.sql)
        if perturbation == "DBcontent-equivalence":
            query = map_literals(query, value_maps[example.db_id])
        else:
            query = rename_query(
                query,
                rename_tables.get(example.db_id, {}),
                rename_columns.get(example.db_id, {}),
            )
        return Text2SQLExample(
            question=example.question,
            sql=SQLITE_EMITTER.serialize(query),
            db_id=example.db_id,
            external_knowledge=example.external_knowledge,
        )

    dev = [rewrite(example) for example in spider.dev]
    if perturbation == "DBcontent-equivalence":
        # Dr.Spider's content-equivalence set consists of samples whose
        # answer depends on re-expressed values; keep the affected
        # examples and top up with fresh value-centric ones.
        affected = [
            new for old, new in zip(spider.dev, dev) if old.sql != new.sql
        ]
        dev = affected + _fresh_value_examples(
            spider, value_maps, rewrite_count=max(0, 20 - len(affected)), seed=seed
        )
    # Training happens on the *unperturbed* Spider benchmark (the
    # evaluation protocol of §9.1.1); the perturbed dataset only carries
    # the rewritten dev split over the rebuilt databases.
    return Text2SQLDataset(
        name=f"dr-spider-{perturbation}",
        databases=databases,
        train=[],
        dev=dev,
    )


def _fresh_value_examples(
    spider: Text2SQLDataset,
    value_maps: dict[str, dict[str, str]],
    rewrite_count: int,
    seed: int,
) -> list[Text2SQLExample]:
    """Generate extra dev examples whose gold SQL hits a mapped value."""
    rng = random.Random(f"drspider:content:{seed}")
    templates = ("select_where_text", "in_list", "count_where", "join_select")
    dev_db_ids = sorted({example.db_id for example in spider.dev})
    out: list[Text2SQLExample] = []
    attempts = 0
    while len(out) < rewrite_count and attempts < rewrite_count * 40:
        attempts += 1
        db_id = rng.choice(dev_db_ids)
        gdb = spider.generated.get(db_id)
        if gdb is None:
            break
        pair = sample_question_sql(gdb, rng, template_id=rng.choice(templates))
        if pair is None:
            continue
        value_map = value_maps.get(db_id, {})
        query = map_literals(parse_sql(pair.sql), value_map)
        rewritten = SQLITE_EMITTER.serialize(query)
        if rewritten == pair.sql:
            continue  # no mapped value involved; not a content-equivalence probe
        out.append(Text2SQLExample(question=pair.question, sql=rewritten, db_id=db_id))
    return out


# ---------------------------------------------------------------------------
# public builder
# ---------------------------------------------------------------------------


def build_dr_spider(
    perturbation: str,
    spider: Text2SQLDataset | None = None,
    seed: int = 0,
    config: SpiderConfig | None = None,
    sql_side_examples_per_db: int = 12,
) -> Text2SQLDataset:
    """Build one of the 17 Dr.Spider perturbation test sets."""
    category = category_of(perturbation)
    spider = spider or build_spider(config)
    rng = random.Random(f"drspider:{perturbation}:{seed}")

    if category == "NLQ":
        perturb = _NLQ_PERTURBERS[perturbation]
        dev = [perturb(example, rng) for example in spider.dev]
        return Text2SQLDataset(
            name=f"dr-spider-{perturbation}",
            databases=spider.databases,
            train=spider.train,
            dev=dev,
            generated=spider.generated,
        )

    if category == "DB":
        return _build_db_perturbation(perturbation, spider, seed)

    # SQL-side: fresh dev examples concentrated on specific templates,
    # drawn from the dev databases only.
    template_pool = _SQL_SIDE_TEMPLATES[perturbation]
    dev_db_ids = {example.db_id for example in spider.dev}
    dev: list[Text2SQLExample] = []
    for db_id in sorted(dev_db_ids):
        gdb: GeneratedDatabase = spider.generated[db_id]
        produced = 0
        attempts = 0
        while produced < sql_side_examples_per_db and attempts < 200:
            attempts += 1
            pair = sample_question_sql(gdb, rng, template_id=rng.choice(template_pool))
            if pair is None:
                continue
            dev.append(
                Text2SQLExample(question=pair.question, sql=pair.sql, db_id=db_id)
            )
            produced += 1
    return Text2SQLDataset(
        name=f"dr-spider-{perturbation}",
        databases=spider.databases,
        train=spider.train,
        dev=dev,
        generated=spider.generated,
    )
