"""Tests for the LM stack: tokenizer, vocab, n-gram LM, transformer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import MODEL_REGISTRY
from repro.datasets import build_spider
from repro.datasets.spider import SpiderConfig
from repro.errors import TrainingError
from repro.lm import (
    CodeTokenizer,
    CorpusConfig,
    IncrementalPretrainer,
    NgramLanguageModel,
    TransformerConfig,
    TransformerLM,
    Vocabulary,
    build_corpus,
    pretrain_base_lm,
)
from repro.lm.corpus import code_corpus, nl2code_corpus, nl_corpus, sql_corpus
from repro.lm.registry import DEFAULT_LM_REGISTRY
from repro.lm.vocab import BOS, EOS

#: Training-like SQL, so the property also hits well-predicted tokens.
_SQL_TEXTS = sql_corpus(40, seed=3)


class TestTokenizer:
    def test_sql_tokens(self):
        tokens = CodeTokenizer().tokenize("SELECT name FROM t WHERE x >= 3")
        assert tokens == ["select", "name", "from", "t", "where", "x", ">=", "<num>"]

    def test_strings_collapse(self):
        tokens = CodeTokenizer().tokenize("WHERE city = 'Praha'")
        assert tokens[-1] == "<str>"

    def test_empty(self):
        assert CodeTokenizer().tokenize("") == []


class TestVocabulary:
    def test_build_and_encode(self):
        vocab = Vocabulary.build(["select a from b", "select c from b"])
        ids = vocab.encode(["select", "a"])
        assert ids[0] == vocab.bos_id and ids[-1] == vocab.eos_id
        assert vocab.decode(ids) == ["select", "a"]

    def test_unknown_maps_to_unk(self):
        vocab = Vocabulary.build(["alpha beta"])
        assert vocab.id_of("gamma") == vocab.unk_id

    def test_max_size_cap(self):
        vocab = Vocabulary.build(["a b c d e f g h"], max_size=6)
        assert len(vocab) == 6

    def test_max_size_too_small(self):
        with pytest.raises(TrainingError):
            Vocabulary.build(["a"], max_size=4)

    def test_empty_corpus_raises(self):
        with pytest.raises(TrainingError):
            Vocabulary.build([])

    def test_token_of_out_of_range(self):
        vocab = Vocabulary.build(["a"])
        with pytest.raises(ValueError):
            vocab.token_of(10_000)

    def test_frequency_ordering(self):
        # max_size 5 leaves room for exactly one non-special token: the
        # most frequent one must win.
        vocab = Vocabulary.build(["x x x y"], max_size=5)
        assert "x" in vocab
        assert "y" not in vocab


def _reference_mean_log_prob(lm, text):
    """The n-gram score with every context total summed afresh."""
    body = lm.tokenizer.tokenize(text)
    if not body:
        return 0.0
    tokens = [BOS, *body, EOS]
    total = 0.0
    for position in range(1, len(tokens)):
        context = tokens[max(0, position - lm.order + 1):position]
        prob = 1.0 / (lm.vocab_size + 1)
        for k in range(min(lm.order, len(context) + 1)):
            counter = lm._counts[k].get(tuple(context[len(context) - k:]) if k else ())
            if counter is None:
                continue
            mle = counter.get(tokens[position], 0) / sum(counter.values())
            prob = (1.0 - lm.interpolation) * prob + lm.interpolation * mle
        total += math.log(prob)
    return total / (len(body) + 1)


@pytest.fixture(scope="module")
def warm_gold_sql():
    """Gold SQL of the ``warm_15b_30ms`` benchmark's databases."""
    return [example.sql for example in build_spider(SpiderConfig(n_dev_databases=3)).dev]


class TestNgramLM:
    def test_scores_equal_the_reference_formula(self, warm_gold_sql):
        lm = DEFAULT_LM_REGISTRY.lm_for(MODEL_REGISTRY["codes-15b"]).model
        for _ in range(2):  # the second pass reads memoized totals
            for sql in warm_gold_sql:
                assert lm.mean_log_prob(sql) == _reference_mean_log_prob(lm, sql)

    def test_a_second_fit_moves_the_scores(self, warm_gold_sql):
        lm = NgramLanguageModel(order=3)
        lm.fit(warm_gold_sql[::2])
        before = [lm.mean_log_prob(sql) for sql in warm_gold_sql]
        lm.fit(sql_corpus(60, seed=5))
        after = [lm.mean_log_prob(sql) for sql in warm_gold_sql]
        assert after == [_reference_mean_log_prob(lm, sql) for sql in warm_gold_sql]
        assert all(new != old for new, old in zip(after, before))

    def test_fit_and_score(self):
        lm = NgramLanguageModel(order=3)
        lm.fit(["select a from t"] * 20)
        fluent = lm.mean_log_prob("select a from t")
        weird = lm.mean_log_prob("from from from select")
        assert fluent > weird

    def test_perplexity_drops_with_training(self):
        held_out = sql_corpus(50, seed=99)
        untrained = NgramLanguageModel(order=3)
        untrained.fit(nl_corpus(50, seed=1))
        trained = NgramLanguageModel(order=3)
        trained.fit(sql_corpus(400, seed=1))
        assert trained.perplexity(held_out) < untrained.perplexity(held_out)

    def test_weight_multiplies_counts(self):
        lm_single = NgramLanguageModel(order=2)
        lm_single.fit(["a b"], weight=3)
        lm_triple = NgramLanguageModel(order=2)
        lm_triple.fit(["a b", "a b", "a b"])
        assert lm_single.log_prob("a b") == pytest.approx(lm_triple.log_prob("a b"))

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            NgramLanguageModel(order=0)

    def test_invalid_interpolation(self):
        with pytest.raises(ValueError):
            NgramLanguageModel(interpolation=1.0)

    def test_invalid_weight(self):
        with pytest.raises(TrainingError):
            NgramLanguageModel().fit(["a"], weight=0)

    def test_empty_perplexity_raises(self):
        with pytest.raises(TrainingError):
            NgramLanguageModel().perplexity([])

    def test_higher_order_fits_training_data_better(self):
        corpus = sql_corpus(200, seed=0)
        low = NgramLanguageModel(order=1)
        low.fit(corpus)
        high = NgramLanguageModel(order=4)
        high.fit(corpus)
        assert high.perplexity(corpus[:50]) < low.perplexity(corpus[:50])

    @settings(max_examples=30, deadline=None)
    @given(st.text(alphabet="abc ", max_size=20))
    def test_log_prob_finite(self, text):
        lm = NgramLanguageModel(order=2)
        lm.fit(["a b c"])
        assert np.isfinite(lm.log_prob(text))

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            st.text(max_size=60),
            st.sampled_from(_SQL_TEXTS),
            st.lists(st.sampled_from(_SQL_TEXTS), min_size=2, max_size=3).map(" ".join),
        )
    )
    def test_every_tier_mean_log_prob_is_never_positive(self, text):
        """The ranking's LM-prior feature declares its range as <= 0;
        candidate pruning is exact only if that holds on any text."""
        for config in MODEL_REGISTRY.values():
            lm = DEFAULT_LM_REGISTRY.lm_for(config)
            assert lm.model.mean_log_prob(text) <= 0.0, config.name


class TestTransformer:
    def _tiny_model(self):
        vocab = Vocabulary.build(["select a from t where a > 1"])
        config = TransformerConfig(
            vocab_size=len(vocab), dim=8, n_heads=2, n_layers=2, max_len=16
        )
        return TransformerLM(config, seed=0), vocab

    def test_logits_shape(self):
        model, vocab = self._tiny_model()
        ids = np.array([[1, 2, 3, 4]])
        assert model.logits(ids).shape == (1, 4, len(vocab))

    def test_gradients_match_numerical(self):
        model, vocab = self._tiny_model()
        ids = np.array([[vocab.bos_id, 5, 6, 7, vocab.eos_id]])
        loss, grads = model.loss_and_grads(ids, pad_id=vocab.pad_id)
        params = model.params()
        eps = 1e-5
        rng = np.random.default_rng(0)
        for p_index in range(len(params)):
            flat = params[p_index].ravel()
            flat_grad = grads[p_index].ravel()
            for __ in range(3):
                index = int(rng.integers(0, flat.size))
                original = flat[index]
                flat[index] = original + eps
                loss_plus, _ = model.loss_and_grads(ids, pad_id=vocab.pad_id)
                flat[index] = original - eps
                loss_minus, _ = model.loss_and_grads(ids, pad_id=vocab.pad_id)
                flat[index] = original
                numeric = (loss_plus - loss_minus) / (2 * eps)
                assert numeric == pytest.approx(flat_grad[index], abs=2e-4), (
                    f"param {p_index} entry {index}"
                )

    def test_training_reduces_loss(self):
        model, vocab = self._tiny_model()
        text = "select a from t where a > 1"
        seqs = [vocab.encode(CodeTokenizer().tokenize(text)) for _ in range(8)]
        history = model.fit(seqs, vocab, epochs=15, lr=1e-2)
        assert history[-1] < history[0]

    def test_perplexity_improves_with_training(self):
        model, vocab = self._tiny_model()
        text = "select a from t where a > 1"
        seqs = [vocab.encode(CodeTokenizer().tokenize(text)) for _ in range(8)]
        before = model.perplexity(seqs, vocab)
        model.fit(seqs, vocab, epochs=15, lr=1e-2)
        assert model.perplexity(seqs, vocab) < before

    def test_memorizes_sequence(self):
        model, vocab = self._tiny_model()
        tokens = CodeTokenizer().tokenize("select a from t")
        seq = vocab.encode(tokens)
        model.fit([seq] * 16, vocab, epochs=40, lr=2e-2)
        generated = model.generate([vocab.bos_id, vocab.id_of("select")], vocab)
        decoded = vocab.decode(generated)
        assert decoded[:4] == ["select", "a", "from", "t"]

    def test_causality(self):
        """Changing a future token must not affect earlier logits."""
        model, vocab = self._tiny_model()
        base = np.array([[1, 2, 3, 4]])
        altered = np.array([[1, 2, 3, 9]])
        logits_base = model.logits(base)
        logits_altered = model.logits(altered)
        assert np.allclose(logits_base[0, :3], logits_altered[0, :3])

    def test_sequence_too_long_raises(self):
        model, vocab = self._tiny_model()
        with pytest.raises(TrainingError):
            model.logits(np.zeros((1, 40), dtype=np.int64))

    def test_empty_fit_raises(self):
        model, vocab = self._tiny_model()
        with pytest.raises(TrainingError):
            model.fit([], vocab)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TransformerConfig(vocab_size=10, dim=7, n_heads=2)
        with pytest.raises(ValueError):
            TransformerConfig(vocab_size=0)

    def test_parameter_count_matches_arrays(self):
        model, vocab = self._tiny_model()
        total = sum(p.size for p in model.params())
        assert total == model.config.parameter_count


class TestCorpus:
    def test_deterministic(self):
        assert sql_corpus(10, seed=3) == sql_corpus(10, seed=3)
        assert nl_corpus(5, seed=3) == nl_corpus(5, seed=3)

    def test_slices_differ_by_seed(self):
        assert sql_corpus(10, seed=1) != sql_corpus(10, seed=2)

    def test_sql_docs_are_parseable_mostly(self):
        from repro.sqlgen.skeleton import try_extract_skeleton

        docs = sql_corpus(100, seed=0)
        parseable = sum(1 for doc in docs if try_extract_skeleton(doc))
        assert parseable >= 95

    def test_nl2code_pairs_have_question_header(self):
        docs = nl2code_corpus(20, seed=0)
        assert all(doc.startswith("-- question:") for doc in docs)

    def test_build_corpus_ratio(self):
        corpus = build_corpus(CorpusConfig(sql_docs=11, nl_docs=4, nl2code_docs=6))
        assert len(corpus.sql) == 11
        assert len(corpus.nl) == 4
        assert len(corpus.nl2code) == 6

    def test_code_corpus_is_not_sql(self):
        docs = code_corpus(20, seed=0)
        assert not any(doc.upper().startswith("SELECT") for doc in docs)


class TestPretraining:
    def test_unknown_family_raises(self):
        with pytest.raises(TrainingError):
            pretrain_base_lm("gpt4")

    def test_incremental_improves_sql_perplexity(self):
        corpus = build_corpus(CorpusConfig(seed=0))
        held_out = sql_corpus(80, seed=123)
        base = pretrain_base_lm("starcoder", corpus=corpus)
        before = base.perplexity(held_out)
        codes = IncrementalPretrainer(corpus=corpus).run(base)
        after = codes.perplexity(held_out)
        assert after < before

    def test_incremental_widens_sql_exposure(self):
        corpus = build_corpus(CorpusConfig(seed=0))
        base = pretrain_base_lm("starcoder", corpus=corpus)
        codes = IncrementalPretrainer(corpus=corpus).run(base)
        assert len(codes.seen_sql) > len(base.seen_sql)
        assert codes.incremental

    def test_codegen_sees_less_sql_than_starcoder(self):
        corpus = build_corpus(CorpusConfig(seed=0))
        starcoder = pretrain_base_lm("starcoder", corpus=corpus)
        codegen = pretrain_base_lm("codegen", corpus=corpus)
        assert len(codegen.seen_sql) < len(starcoder.seen_sql)

    def test_history_records_recipe(self):
        corpus = build_corpus(CorpusConfig(seed=0))
        codes = IncrementalPretrainer(corpus=corpus).run(
            pretrain_base_lm("starcoder", corpus=corpus)
        )
        assert any("incremental" in entry for entry in codes.history)
