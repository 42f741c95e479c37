"""Tests for evaluation metrics: EX, TS, VES, AUC."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExecutionError
from repro.eval import (
    TestSuite,
    execution_match,
    results_match,
    roc_auc,
    valid_efficiency_score,
)

from tests.fixtures import bank_database


class TestResultsMatch:
    def test_unordered_multiset(self):
        assert results_match([(1,), (2,)], [(2,), (1,)])

    def test_unordered_respects_duplicates(self):
        assert not results_match([(1,), (1,)], [(1,)])

    def test_ordered(self):
        assert not results_match([(1,), (2,)], [(2,), (1,)], ordered=True)
        assert results_match([(1,), (2,)], [(1,), (2,)], ordered=True)

    def test_int_float_equivalence(self):
        assert results_match([(1.0,)], [(1,)])

    def test_float_tolerance(self):
        assert results_match([(0.3333333,)], [(0.333333349,)])


class TestExecutionMatch:
    def test_equivalent_queries_match(self):
        db = bank_database()
        assert execution_match(
            db,
            "SELECT name FROM client WHERE district = 'Jesenik'",
            "SELECT name FROM client WHERE district = 'Jesenik' AND 1 = 1",
        )

    def test_wrong_query_misses(self):
        db = bank_database()
        assert not execution_match(
            db,
            "SELECT name FROM client WHERE district = 'Prague'",
            "SELECT name FROM client WHERE district = 'Jesenik'",
        )

    def test_unexecutable_prediction_is_miss(self):
        db = bank_database()
        assert not execution_match(db, "SELECT FROM nothing", "SELECT * FROM client")

    def test_unexecutable_gold_raises(self):
        db = bank_database()
        with pytest.raises(ExecutionError):
            execution_match(db, "SELECT * FROM client", "BROKEN GOLD")

    def test_order_by_gold_requires_order(self):
        db = bank_database()
        gold = "SELECT name FROM client ORDER BY name ASC"
        shuffled = "SELECT name FROM client ORDER BY name DESC"
        assert not execution_match(db, shuffled, gold)


class TestTestSuite:
    def test_correct_query_passes_all_variants(self):
        suite = TestSuite(bank_database(), n_variants=3, seed=1)
        gold = "SELECT name FROM client WHERE district = 'Jesenik'"
        assert suite.check(gold, gold)

    def test_coincidental_match_is_caught(self):
        # On the original content both queries return 2 rows, but they
        # are semantically different; at least one variant separates them.
        db = bank_database()
        gold = "SELECT COUNT(*) FROM client WHERE district = 'Jesenik'"
        coincidence = "SELECT COUNT(*) FROM client WHERE gender = 'M'"
        assert execution_match(db, coincidence, gold)  # false positive under EX
        suite = TestSuite(db, n_variants=6, seed=3)
        assert not suite.check(coincidence, gold)

    def test_variant_count(self):
        suite = TestSuite(bank_database(), n_variants=2, seed=0)
        assert len(suite.databases()) == 3

    def test_deterministic_for_seed(self):
        first = TestSuite(bank_database(), n_variants=2, seed=5)
        second = TestSuite(bank_database(), n_variants=2, seed=5)
        assert first.variants[0].all_rows() == second.variants[0].all_rows()

    def test_invalid_variant_count(self):
        with pytest.raises(ValueError):
            TestSuite(bank_database(), n_variants=0)


class TestVES:
    def test_correct_prediction_scores_positive(self):
        db = bank_database()
        gold = "SELECT name FROM client WHERE district = 'Jesenik'"
        score = valid_efficiency_score(db, gold, gold, runs=3)
        assert score > 0.0

    def test_wrong_prediction_scores_zero(self):
        db = bank_database()
        score = valid_efficiency_score(
            db,
            "SELECT name FROM client WHERE district = 'Prague'",
            "SELECT name FROM client WHERE district = 'Jesenik'",
            runs=2,
        )
        assert score == 0.0

    def test_invalid_runs(self):
        with pytest.raises(ValueError):
            valid_efficiency_score(bank_database(), "SELECT 1", "SELECT 1", runs=0)


class TestROCAUC:
    def test_perfect_ranking(self):
        assert roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_inverted_ranking(self):
        assert roc_auc([1, 1, 0, 0], [0.1, 0.2, 0.8, 0.9]) == 0.0

    def test_random_ties(self):
        assert roc_auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == pytest.approx(0.5)

    def test_single_class_is_half(self):
        assert roc_auc([1, 1, 1], [0.1, 0.5, 0.9]) == 0.5

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            roc_auc([0, 1], [0.5])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=1),
                      st.floats(min_value=0, max_value=1, allow_nan=False)),
            min_size=2, max_size=30,
        )
    )
    def test_auc_bounded(self, pairs):
        labels = [label for label, _ in pairs]
        scores = [score for _, score in pairs]
        value = roc_auc(labels, scores)
        assert 0.0 <= value <= 1.0

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=1),
                      st.floats(min_value=0, max_value=1, allow_nan=False)),
            min_size=4, max_size=20,
        )
    )
    def test_auc_complementary_under_score_negation(self, pairs):
        labels = [label for label, _ in pairs]
        if len(set(labels)) < 2:
            return
        scores = [score for _, score in pairs]
        negated = [-score for score in scores]
        assert roc_auc(labels, scores) + roc_auc(labels, negated) == pytest.approx(1.0)
