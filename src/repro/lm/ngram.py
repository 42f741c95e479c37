"""Interpolated n-gram language model.

This is the fast sequence prior the text-to-SQL parser uses to rank
candidate queries.  The model interpolates all orders up to ``order``
with Jelinek–Mercer smoothing, so unseen contexts back off gracefully
to shorter histories and ultimately to a uniform floor.

Why an n-gram LM here: candidate ranking needs tens of scores per
question at interactive speed; the transformer in
:mod:`repro.lm.transformer` demonstrates the pre-training recipe itself
but would be orders of magnitude slower as an inner-loop scorer on CPU.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Iterable, Sequence

from repro.errors import TrainingError
from repro.lm.vocab import BOS, EOS, CodeTokenizer


class NgramLanguageModel:
    """Jelinek–Mercer interpolated n-gram LM over code tokens."""

    def __init__(
        self,
        order: int = 3,
        interpolation: float = 0.4,
        tokenizer: CodeTokenizer | None = None,
    ):
        if order < 1:
            raise ValueError(f"order must be at least 1, got {order}")
        if not 0.0 < interpolation < 1.0:
            raise ValueError(f"interpolation must lie in (0, 1), got {interpolation}")
        self.order = order
        self.interpolation = interpolation
        self.tokenizer = tokenizer or CodeTokenizer()
        # counts[k] maps a length-k context tuple to a Counter of next tokens.
        self._counts: list[dict[tuple[str, ...], Counter[str]]] = [
            defaultdict(Counter) for _ in range(order)
        ]
        # totals[k] memoizes sum(counts[k][context].values()); fit resets it.
        self._totals: list[dict[tuple[str, ...], int]] = [{} for _ in range(order)]
        self._vocab: set[str] = set()

    # -- training -----------------------------------------------------------

    def fit(self, texts: Iterable[str], weight: int = 1) -> int:
        """Accumulate counts from ``texts``; returns tokens consumed.

        ``weight`` repeats the counts, which is how multiple epochs over
        a corpus slice are expressed (the paper trains two epochs on the
        SQL slice, one on the others).
        """
        if weight < 1:
            raise TrainingError(f"weight must be at least 1, got {weight}")
        consumed = 0
        for totals in self._totals:
            totals.clear()
        for text in texts:
            tokens = [BOS, *self.tokenizer.tokenize(text), EOS]
            consumed += len(tokens)
            self._vocab.update(tokens)
            for position in range(1, len(tokens)):
                token = tokens[position]
                for k in range(self.order):
                    if position - k < 0:
                        break
                    context = tuple(tokens[position - k:position])
                    self._counts[k][context][token] += weight
        return consumed

    @property
    def vocab_size(self) -> int:
        return max(1, len(self._vocab))

    # -- scoring ------------------------------------------------------------

    def _interpolated_prob(self, context: Sequence[str], token: str) -> float:
        """P(token | context) interpolating orders 0..order-1."""
        prob = 1.0 / (self.vocab_size + 1)  # uniform floor (+1 for OOV mass)
        for k in range(self.order):
            if k > len(context):
                break
            ctx = tuple(context[len(context) - k:]) if k else ()
            counter = self._counts[k].get(ctx)
            if counter is None:
                continue
            total = self._totals[k].get(ctx)
            if total is None:
                total = self._totals[k][ctx] = sum(counter.values())
            if total == 0:
                continue
            mle = counter.get(token, 0) / total
            prob = (1.0 - self.interpolation) * prob + self.interpolation * mle
        return prob

    def log_prob(self, text: str) -> float:
        """Total natural-log probability of ``text``."""
        return self._log_prob(self.tokenizer.tokenize(text))

    def _log_prob(self, body: list[str]) -> float:
        tokens = [BOS, *body, EOS]
        total = 0.0
        for position in range(1, len(tokens)):
            context = tokens[max(0, position - self.order + 1):position]
            total += math.log(self._interpolated_prob(context, tokens[position]))
        return total

    def mean_log_prob(self, text: str) -> float:
        """Per-token log probability (length-normalized score)."""
        tokens = self.tokenizer.tokenize(text)
        if not tokens:
            return 0.0
        return self._log_prob(tokens) / (len(tokens) + 1)

    def perplexity(self, texts: Iterable[str]) -> float:
        """Corpus perplexity under this model."""
        total_log = 0.0
        total_tokens = 0
        for text in texts:
            tokens = self.tokenizer.tokenize(text)
            total_log += self._log_prob(tokens)
            total_tokens += len(tokens) + 1
        if total_tokens == 0:
            raise TrainingError("cannot compute perplexity on an empty corpus")
        return math.exp(-total_log / total_tokens)
