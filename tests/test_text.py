"""Tests for repro.text: tokenization, embedding, patterns, similarity."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.text import (
    HashedNgramEmbedder,
    cosine_similarity,
    extract_pattern,
    jaccard_similarity,
    normalize,
    sentence_tokens,
    strip_entities,
    token_overlap,
    word_tokens,
)
from repro.text.embedder import _salted_digests, _stable_hash
from repro.text.tokenize import character_ngrams


class TestTokenize:
    def test_normalize_lowercases_and_collapses(self):
        assert normalize("  How  MANY  Clients? ") == "how many clients?"

    def test_word_tokens_keep_quoted_strings(self):
        assert word_tokens("name = 'Sarah Martinez'") == ["name", "=", "'Sarah Martinez'"]

    def test_sentence_tokens_split_snake_case(self):
        assert sentence_tokens("account_id") == ["account", "id"]

    def test_sentence_tokens_split_camel_case(self):
        assert sentence_tokens("accountId openDate") == ["account", "id", "open", "date"]

    def test_sentence_tokens_unquote(self):
        assert "sarah martinez" in " ".join(sentence_tokens("x = 'Sarah Martinez'"))

    def test_character_ngrams_pads_boundaries(self):
        grams = character_ngrams("ab", 3)
        assert grams == ["#ab", "ab#"]

    def test_character_ngrams_rejects_bad_order(self):
        with pytest.raises(ValueError):
            character_ngrams("abc", 0)

    def test_character_ngrams_short_string(self):
        assert character_ngrams("a", 5) == ["#a#"]


class TestEmbedder:
    def test_identical_texts_similarity_one(self):
        embedder = HashedNgramEmbedder(dim=128)
        assert embedder.similarity("list all papers", "list all papers") == pytest.approx(1.0)

    def test_near_duplicates_score_high(self):
        embedder = HashedNgramEmbedder(dim=256)
        close = embedder.similarity(
            "how many clients opened accounts",
            "how many clients opened their accounts",
        )
        far = embedder.similarity("how many clients", "papers sorted by year")
        assert close > 0.7
        assert close > far + 0.3

    def test_empty_string_zero_vector(self):
        embedder = HashedNgramEmbedder(dim=64)
        assert np.allclose(embedder.embed(""), 0.0)

    def test_rejects_nonpositive_dim(self):
        with pytest.raises(ValueError):
            HashedNgramEmbedder(dim=0)

    def test_deterministic_across_instances(self):
        first = HashedNgramEmbedder(dim=64).embed("bank branch in Jesenik")
        second = HashedNgramEmbedder(dim=64).embed("bank branch in Jesenik")
        assert np.array_equal(first, second)

    @given(st.text(max_size=40))
    def test_embeddings_are_unit_or_zero(self, text):
        embedder = HashedNgramEmbedder(dim=64)
        norm = float(np.linalg.norm(embedder.embed(text)))
        assert norm == pytest.approx(0.0) or norm == pytest.approx(1.0)

    @given(st.text(max_size=24))
    def test_presalted_digests_equal_the_salted_hash(self, feature):
        slot, sign = _salted_digests(feature)
        assert int.from_bytes(slot, "little") == _stable_hash(feature, salt=1)
        assert int.from_bytes(sign, "little") == _stable_hash(feature, salt=2)

    @given(st.text(max_size=40))
    def test_embedding_is_bit_identical_to_the_salted_hash_reference(self, text):
        embedder = HashedNgramEmbedder(dim=97)
        reference = np.zeros(97)
        for feature in embedder._features(text):
            index = _stable_hash(feature, salt=1) % 97
            reference[index] += 1.0 if _stable_hash(feature, salt=2) % 2 == 0 else -1.0
        norm = float(np.linalg.norm(reference))
        if norm > 0.0:
            reference /= norm
        assert embedder.embed(text).tobytes() == reference.tobytes()

    @given(st.text(max_size=30), st.text(max_size=30))
    def test_similarity_bounded(self, left, right):
        embedder = HashedNgramEmbedder(dim=64)
        value = embedder.similarity(left, right)
        assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9


class TestPattern:
    def test_strips_numbers(self):
        assert strip_entities("Show singers born in 1948 or 1949") == (
            "Show singers born in _ or _"
        )

    def test_strips_quoted_strings(self):
        assert "_" in strip_entities("Members from 'United States'")
        assert "United" not in strip_entities("Members from 'United States'")

    def test_strips_capitalized_entities(self):
        stripped = strip_entities("How many clients live in Jesenik")
        assert "Jesenik" not in stripped

    def test_keeps_question_words(self):
        stripped = strip_entities("How many clients are there")
        assert stripped == "How many clients are there"

    def test_collapses_adjacent_placeholders(self):
        stripped = strip_entities("Born between 1948 1949")
        assert "_ _" not in stripped

    def test_extract_pattern_is_lowercase(self):
        assert extract_pattern("Show NAMES") == extract_pattern("show names")

    @given(st.text(max_size=60))
    def test_strip_entities_total(self, text):
        strip_entities(text)  # must never raise


class TestSimilarity:
    def test_cosine_zero_vectors(self):
        assert cosine_similarity(np.zeros(4), np.ones(4)) == 0.0

    def test_cosine_identical(self):
        vec = np.array([1.0, 2.0, 3.0])
        assert cosine_similarity(vec, vec) == pytest.approx(1.0)

    def test_jaccard_identical(self):
        assert jaccard_similarity("list names", "list names") == 1.0

    def test_jaccard_disjoint(self):
        assert jaccard_similarity("alpha beta", "gamma delta") == 0.0

    def test_jaccard_both_empty(self):
        assert jaccard_similarity("", "") == 1.0

    def test_token_overlap_full(self):
        assert token_overlap("show the account id", "account_id") == 1.0

    def test_token_overlap_partial(self):
        assert token_overlap("show the account", "account_id") == pytest.approx(0.5)

    def test_token_overlap_empty_target(self):
        assert token_overlap("anything", "") == 0.0
