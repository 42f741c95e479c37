"""Tests for the synthetic benchmark builders."""

import random

import pytest

from repro.datasets import (
    DATASET_BUILDERS,
    DR_SPIDER_PERTURBATIONS,
    SPIDER_VARIANTS,
    build_aminer_simplified,
    build_bank_financials,
    build_bird,
    build_dr_spider,
    build_spider,
    build_spider_variant,
)
from repro.datasets.bird import BirdConfig
from repro.datasets.blueprints import BLUEPRINTS, blueprint_by_name
from repro.datasets.drspider import all_perturbation_names, category_of
from repro.datasets.generator import GenerationOptions, instantiate_blueprint
from repro.datasets.spider import SpiderConfig
from repro.datasets.templates import sample_question_sql, template_ids
from repro.errors import DatasetError
from repro.eval.harness import evaluate_parser, pair_samples
from repro.sqlgen.parser import parse_sql

_SMALL_SPIDER = SpiderConfig(
    n_train_databases=2, n_dev_databases=1,
    train_per_database=8, dev_per_database=6, rows_per_table=20,
)


@pytest.fixture(scope="module")
def small_spider():
    return build_spider(_SMALL_SPIDER)


class TestBlueprints:
    def test_all_blueprints_instantiate(self):
        for blueprint in BLUEPRINTS:
            gdb = instantiate_blueprint(
                blueprint, f"t_{blueprint.name}",
                GenerationOptions(rows_per_table=10),
            )
            assert gdb.database.row_count(blueprint.tables[0].name) == 10

    def test_blueprint_lookup(self):
        assert blueprint_by_name("college").domain == "education"
        with pytest.raises(KeyError):
            blueprint_by_name("missing")

    def test_foreign_keys_reference_valid_rows(self):
        gdb = instantiate_blueprint(
            blueprint_by_name("college"), "fk_test",
            GenerationOptions(rows_per_table=15),
        )
        orphans = gdb.database.execute(
            "SELECT COUNT(*) FROM enrollment WHERE student_id NOT IN "
            "(SELECT student_id FROM student)"
        )
        assert orphans[0][0] == 0


class TestGenerator:
    def test_ambiguous_naming_renames_and_comments(self):
        gdb = instantiate_blueprint(
            blueprint_by_name("college"), "amb",
            GenerationOptions(ambiguous_naming=True, ambiguous_fraction=1.0,
                              rows_per_table=5),
        )
        assert gdb.ambiguous_columns
        table, column = next(iter(gdb.ambiguous_columns))
        comment = gdb.schema.table(table).column(column).comment
        assert comment  # full coverage keeps comments informative

    def test_comment_coverage_zero_leaves_undocumented(self):
        gdb = instantiate_blueprint(
            blueprint_by_name("college"), "undoc",
            GenerationOptions(ambiguous_naming=True, ambiguous_fraction=1.0,
                              comment_coverage=0.0, rows_per_table=5),
        )
        comments = [
            gdb.schema.table(t).column(c).comment
            for t, c in gdb.ambiguous_columns
        ]
        assert all(comment == "" for comment in comments)

    def test_extra_columns_widen_tables(self):
        narrow = instantiate_blueprint(
            blueprint_by_name("college"), "narrow", GenerationOptions(rows_per_table=5)
        )
        wide = instantiate_blueprint(
            blueprint_by_name("college"), "narrow",
            GenerationOptions(rows_per_table=5, extra_columns=4),
        )
        assert (
            len(wide.schema.tables[0].columns)
            == len(narrow.schema.tables[0].columns) + 4
        )

    def test_keys_never_renamed(self):
        gdb = instantiate_blueprint(
            blueprint_by_name("college"), "keys",
            GenerationOptions(ambiguous_naming=True, ambiguous_fraction=1.0,
                              rows_per_table=5),
        )
        assert gdb.schema.table("student").has_column("student_id")

    def test_deterministic_across_calls(self):
        options = GenerationOptions(rows_per_table=8, seed=4)
        first = instantiate_blueprint(blueprint_by_name("retail"), "d", options)
        second = instantiate_blueprint(blueprint_by_name("retail"), "d", options)
        assert first.database.all_rows() == second.database.all_rows()


class TestTemplates:
    def test_every_template_produces_valid_sql(self):
        gdb = instantiate_blueprint(
            blueprint_by_name("concert_hall"), "tmpl",
            GenerationOptions(rows_per_table=25),
        )
        rng = random.Random(0)
        produced = set()
        for template_id in template_ids():
            for attempt in range(5):
                pair = sample_question_sql(gdb, rng, template_id=template_id)
                if pair is not None:
                    break
            assert pair is not None, template_id
            parse_sql(pair.sql)  # must be inside the supported subset
            assert gdb.database.is_executable(pair.sql)
            produced.add(pair.template_id)
        assert produced == set(template_ids())

    def test_questions_mention_values(self):
        gdb = instantiate_blueprint(
            blueprint_by_name("concert_hall"), "vals",
            GenerationOptions(rows_per_table=25),
        )
        rng = random.Random(1)
        pair = sample_question_sql(gdb, rng, template_id="select_where_text")
        query = parse_sql(pair.sql)
        literal = query.literals_used()[0]
        assert str(literal.value).strip().lower() in pair.question.lower()


class TestSpider:
    def test_structure(self, small_spider):
        assert len(small_spider.databases) == 3
        assert len(small_spider.train) == 16
        assert len(small_spider.dev) == 6

    def test_dev_databases_unseen_in_train(self, small_spider):
        train_dbs = {e.db_id for e in small_spider.train}
        dev_dbs = {e.db_id for e in small_spider.dev}
        assert not train_dbs & dev_dbs

    def test_gold_queries_execute(self, small_spider):
        small_spider.validate()  # raises on any broken gold query

    def test_no_external_knowledge(self, small_spider):
        assert all(not e.external_knowledge for e in small_spider.train)

    def test_split_accessor(self, small_spider):
        assert small_spider.split("train") is small_spider.train
        assert small_spider.split("dev") is small_spider.dev

    @pytest.mark.parametrize(
        "read",
        [
            lambda dataset: dataset.split("test"),
            lambda dataset: evaluate_parser(None, dataset, split="test"),
            lambda dataset: pair_samples(dataset, split="test"),
            lambda dataset: dataset.lint(splits=("bogus",)),
        ],
        ids=["split", "evaluate_parser", "pair_samples", "lint"],
    )
    def test_unknown_split_raises(self, small_spider, read):
        # No reader falls back to the other split.
        with pytest.raises(DatasetError, match="unknown split"):
            read(small_spider)


class TestBird:
    def test_carries_external_knowledge(self):
        bird = build_bird(BirdConfig(
            n_train_databases=1, n_dev_databases=1,
            train_per_database=8, dev_per_database=8, rows_per_table=30,
        ))
        assert any(e.external_knowledge for e in bird.dev)

    def test_question_with_knowledge_format(self):
        bird = build_bird(BirdConfig(
            n_train_databases=1, n_dev_databases=1,
            train_per_database=4, dev_per_database=8, rows_per_table=30,
        ))
        example = next(e for e in bird.dev if e.external_knowledge)
        enriched = example.question_with_knowledge()
        assert example.question in enriched
        assert example.external_knowledge in enriched


class TestVariants:
    def test_all_variants_build(self, small_spider):
        for name in SPIDER_VARIANTS:
            variant = build_spider_variant(name, spider=small_spider)
            assert len(variant.dev) == len(small_spider.dev)
            variant.validate()

    def test_syn_changes_questions(self, small_spider):
        variant = build_spider_variant("spider-syn", spider=small_spider)
        changed = sum(
            1 for old, new in zip(small_spider.dev, variant.dev)
            if old.question != new.question
        )
        assert changed > 0

    def test_gold_sql_unchanged(self, small_spider):
        variant = build_spider_variant("spider-syn", spider=small_spider)
        assert [e.sql for e in variant.dev] == [e.sql for e in small_spider.dev]

    def test_unknown_variant_raises(self):
        with pytest.raises(DatasetError):
            build_spider_variant("spider-unknown")


class TestDrSpider:
    def test_seventeen_perturbations(self):
        assert len(all_perturbation_names()) == 17
        assert len(DR_SPIDER_PERTURBATIONS["NLQ"]) == 9
        assert len(DR_SPIDER_PERTURBATIONS["DB"]) == 3
        assert len(DR_SPIDER_PERTURBATIONS["SQL"]) == 5

    def test_category_lookup(self):
        assert category_of("schema-synonym") == "DB"
        with pytest.raises(DatasetError):
            category_of("nonsense")

    def test_db_perturbation_rewrites_gold(self, small_spider):
        perturbed = build_dr_spider("schema-abbreviation", spider=small_spider)
        perturbed.validate()
        # At least one gold query must reference a renamed column.
        assert any(
            old.sql != new.sql
            for old, new in zip(small_spider.dev, perturbed.dev)
        )

    def test_nlq_perturbation_keeps_databases(self, small_spider):
        perturbed = build_dr_spider("keyword-carrier", spider=small_spider)
        assert perturbed.databases is small_spider.databases
        perturbed.validate()

    def test_sql_side_builds_fresh_dev(self, small_spider):
        perturbed = build_dr_spider(
            "sort-order", spider=small_spider, sql_side_examples_per_db=5
        )
        perturbed.validate()
        assert all("ORDER BY" in e.sql for e in perturbed.dev)

    def test_content_equivalence_changes_values(self, small_spider):
        perturbed = build_dr_spider("DBcontent-equivalence", spider=small_spider)
        perturbed.validate()


class TestDomains:
    def test_bank_financials(self):
        bank = build_bank_financials()
        assert bank.name == "bank_financials"
        assert len(bank.train) == 15  # the small "annotated" seed set
        assert len(bank.dev) == 40
        bank.validate()

    def test_aminer(self):
        aminer = build_aminer_simplified()
        assert "writes" in {t.name for t in
                            next(iter(aminer.databases.values())).schema.tables}
        aminer.validate()


class TestDatasetTable:
    def test_every_builder_is_keyed_by_its_datasets_name(self):
        assert len(DATASET_BUILDERS) == 4 + len(SPIDER_VARIANTS) + 17
        for name, build in DATASET_BUILDERS.items():
            assert build().name == name
