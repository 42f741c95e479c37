"""Tests for BM25, LCS, and the coarse-to-fine value retriever."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.retrieval import (
    BM25Index,
    ValueRetriever,
    lcs_match_degree,
    longest_common_substring,
)

from tests.fixtures import bank_database


def _dp_longest_common_substring(left: str, right: str) -> str:
    """The textbook O(len(left) * len(right)) dynamic program: the
    reference ``longest_common_substring`` must agree with exactly."""
    if not left or not right:
        return ""
    low_left = left.lower()
    low_right = right.lower()
    best_len = 0
    best_end = 0
    previous = [0] * (len(low_left) + 1)
    for j in range(1, len(low_right) + 1):
        current = [0] * (len(low_left) + 1)
        right_char = low_right[j - 1]
        for i in range(1, len(low_left) + 1):
            if low_left[i - 1] == right_char:
                current[i] = previous[i - 1] + 1
                if current[i] > best_len:
                    best_len = current[i]
                    best_end = j
        previous = current
    return right[best_end - best_len:best_end]


#: Few letters, so texts share long runs; both casings, a space, and
#: letters whose lowercase is longer ("İ" -> "i̇") or which fold to one.
_LCS_TEXT = st.text(alphabet="abAB iIİı", max_size=16)


class TestBM25:
    def _index(self):
        index = BM25Index()
        index.add_all(
            [
                (0, "Jesenik"),
                (1, "Prague"),
                (2, "Sarah Martinez"),
                (3, "James Chen"),
                (4, "approved"),
                (5, "rejected"),
            ]
        )
        return index

    def test_exact_term_ranks_first(self):
        hits = self._index().search("clients in the Jesenik branch")
        assert hits[0].doc_id == 0

    def test_multiword_document(self):
        hits = self._index().search("who is Sarah Martinez")
        assert hits[0].doc_id == 2

    def test_no_match_returns_empty(self):
        assert self._index().search("zzz qqq") == []

    def test_top_k_limits(self):
        index = BM25Index()
        for i in range(20):
            index.add(i, "common term")
        assert len(index.search("common", top_k=5)) == 5

    def test_top_k_zero(self):
        assert self._index().search("Jesenik", top_k=0) == []

    def test_empty_index(self):
        assert BM25Index().search("anything") == []

    def test_scores_non_increasing(self):
        index = BM25Index()
        index.add_all([(i, f"value {w}") for i, w in enumerate("abcdef")])
        hits = index.search("value a b")
        scores = [hit.score for hit in hits]
        assert scores == sorted(scores, reverse=True)

    def test_rare_term_scores_higher_than_common(self):
        index = BM25Index()
        for i in range(10):
            index.add(i, "common")
        index.add(99, "rareterm")
        hits = index.search("common rareterm")
        assert hits[0].doc_id == 99

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BM25Index(k1=-1.0)
        with pytest.raises(ValueError):
            BM25Index(b=1.5)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.text(alphabet="abcde ", min_size=1, max_size=12), max_size=8),
           st.text(alphabet="abcde ", max_size=12))
    def test_search_never_crashes(self, docs, query):
        index = BM25Index()
        index.add_all(list(enumerate(docs)))
        hits = index.search(query)
        assert all(hit.score > 0.0 for hit in hits)


class TestLCS:
    def test_basic(self):
        assert longest_common_substring("the Jesenik branch", "Jesenik") == "Jesenik"

    def test_case_insensitive_keeps_right_casing(self):
        assert longest_common_substring("jesenik", "Jesenik") == "Jesenik"

    def test_empty_inputs(self):
        assert longest_common_substring("", "abc") == ""
        assert longest_common_substring("abc", "") == ""

    def test_no_overlap(self):
        assert longest_common_substring("xyz", "abc") == ""

    def test_degree_full_containment(self):
        assert lcs_match_degree("accounts in Jesenik branch", "Jesenik") == 1.0

    def test_degree_partial(self):
        degree = lcs_match_degree("Jese", "Jesenik")
        assert degree == pytest.approx(4 / 7)

    def test_degree_empty_value(self):
        assert lcs_match_degree("anything", "") == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.text(max_size=20), st.text(max_size=20))
    def test_lcs_is_substring_of_both(self, left, right):
        shared = longest_common_substring(left, right)
        assert shared.lower() in left.lower()
        assert shared.lower() in right.lower()

    @settings(max_examples=60, deadline=None)
    @given(st.text(max_size=20), st.text(max_size=20))
    def test_lcs_symmetric_length(self, left, right):
        assert len(longest_common_substring(left, right)) == len(
            longest_common_substring(right, left)
        )

    @settings(max_examples=40, deadline=None)
    @given(st.text(min_size=1, max_size=20))
    def test_degree_identity(self, text):
        assert lcs_match_degree(text, text) == 1.0

    @settings(max_examples=300, deadline=None)
    @given(_LCS_TEXT, _LCS_TEXT)
    def test_equals_the_dynamic_program(self, left, right):
        # Same text: casing from ``right``, earliest-ending tie.
        assert longest_common_substring(left, right) == (
            _dp_longest_common_substring(left, right)
        )
        assert lcs_match_degree(left, right) == (
            len(_dp_longest_common_substring(left, right)) / len(right)
            if right
            else 0.0
        )

    @pytest.mark.parametrize(
        "left, right",
        [
            ("abXab", "zzab ab"),  # tie: earliest end in right wins
            ("İstanbul", "istanbul"),  # lowering lengthens the left
            ("istanbul", "İstanbul"),  # ... and the right: slice of right
            ("clients in Graz", "City of Graz"),
        ],
    )
    def test_equals_the_dynamic_program_on_edge_cases(self, left, right):
        assert longest_common_substring(left, right) == (
            _dp_longest_common_substring(left, right)
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.text(alphabet="GrazCity of gİ", max_size=20),
        st.text(alphabet="GrazCity of gİ", max_size=12),
    )
    def test_entity_containment_reads_the_dynamic_programs_casing(
        self, question, value
    ):
        shared = _dp_longest_common_substring(question, value).strip()
        expected = (
            len(shared) >= 3
            and shared[0].isupper()
            and bool(re.search(rf"\b{re.escape(shared)}\b", question))
        )
        assert ValueRetriever._entity_containment(question, value) == expected


class TestValueRetriever:
    def test_finds_mentioned_value(self):
        retriever = ValueRetriever(bank_database())
        matches = retriever.retrieve("How many clients live in Jesenik?")
        rendered = [match.render() for match in matches]
        assert "client.district = 'Jesenik'" in rendered

    def test_finds_person(self):
        retriever = ValueRetriever(bank_database())
        matches = retriever.retrieve("What is the balance of Sarah Martinez?")
        assert any(match.value == "Sarah Martinez" for match in matches)

    def test_irrelevant_question_no_matches(self):
        retriever = ValueRetriever(bank_database(), min_degree=0.6)
        assert retriever.retrieve("completely unrelated gibberish zzz") == []

    def test_exhaustive_agrees_on_top_match(self):
        retriever = ValueRetriever(bank_database())
        question = "clients from Jesenik"
        coarse = retriever.retrieve(question)
        exhaustive = retriever.retrieve_exhaustive(question)
        assert coarse[0].value == exhaustive[0].value

    def test_max_matches_respected(self):
        retriever = ValueRetriever(bank_database(), max_matches=1, min_degree=0.1)
        matches = retriever.retrieve("approved rejected Jesenik Prague")
        assert len(matches) == 1

    def test_indexed_value_count(self):
        retriever = ValueRetriever(bank_database())
        assert retriever.indexed_value_count > 0

    def test_render_escapes_quotes(self):
        from repro.retrieval import MatchedValue

        match = MatchedValue(table="t", column="c", value="O'Brien", degree=1.0)
        assert match.render() == "t.c = 'O''Brien'"

    def test_invalid_coarse_k(self):
        with pytest.raises(ValueError):
            ValueRetriever(bank_database(), coarse_k=0)
