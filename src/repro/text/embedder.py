"""Hashed character-n-gram sentence embedder.

The paper uses SimCSE to embed questions for the demonstration
retriever.  Offline we substitute a deterministic feature-hashing
embedder: every character n-gram of the sentence is hashed into a
``dim``-sized vector with a signed hash, and the result is
L2-normalized.  Cosine similarity in this space behaves like a smoothed
string-overlap kernel, which is exactly the property the retriever
needs (semantically near-duplicate questions score high, unrelated
questions score near zero).

Larger ``dim`` means fewer hash collisions and therefore a sharper
similarity signal — this is one of the capacity knobs that scale with
model tier (see :mod:`repro.config`).
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.memo import Memo
from repro.text.tokenize import character_ngrams, sentence_tokens

#: Texts a :class:`MemoizedEmbedder` keeps embedded.
MEMO_CAPACITY = 4096


def _stable_hash(token: str, salt: int) -> int:
    """``token``'s salted 64-bit hash: salt 1 picks a feature's slot,
    salt 2 its sign."""
    digest = hashlib.blake2b(
        token.encode("utf-8"), digest_size=8, salt=salt.to_bytes(8, "little")
    ).digest()
    return int.from_bytes(digest, "little")


_SLOT_HASHER = hashlib.blake2b(digest_size=8, salt=(1).to_bytes(8, "little"))
_SIGN_HASHER = hashlib.blake2b(digest_size=8, salt=(2).to_bytes(8, "little"))


def _salted_digests(token: str) -> tuple[bytes, bytes]:
    """The digests behind ``_stable_hash(token, 1)`` and ``(token, 2)``,
    from copies of pre-salted states: cheaper than building a salted
    hasher per call, and the same bytes hashed give the same digest."""
    data = token.encode("utf-8")
    slot = _SLOT_HASHER.copy()
    slot.update(data)
    sign = _SIGN_HASHER.copy()
    sign.update(data)
    return slot.digest(), sign.digest()


class HashedNgramEmbedder:
    """Deterministic sentence embedder based on hashed n-gram features.

    Parameters
    ----------
    dim:
        Dimensionality of the embedding space.
    orders:
        Character n-gram orders to extract (defaults to 3 and 4 grams).
    use_words:
        Also hash whole word tokens, which boosts exact-word matches.
    """

    def __init__(
        self,
        dim: int = 256,
        orders: tuple[int, ...] = (3, 4),
        use_words: bool = True,
    ):
        if dim <= 0:
            raise ValueError(f"embedding dim must be positive, got {dim}")
        self.dim = dim
        self.orders = orders
        self.use_words = use_words

    def _features(self, text: str) -> list[str]:
        if not text.strip():
            return []
        feats: list[str] = []
        for order in self.orders:
            feats.extend(character_ngrams(text, order))
        if self.use_words:
            feats.extend(f"w:{tok}" for tok in sentence_tokens(text))
        return feats

    def embed(self, text: str) -> np.ndarray:
        """Embed ``text`` into a unit-norm ``dim``-vector.

        The empty string maps to the zero vector.
        """
        vec = np.zeros(self.dim, dtype=np.float64)
        for feat in self._features(text):
            slot, sign = _salted_digests(feat)
            index = int.from_bytes(slot, "little") % self.dim
            # A little-endian integer's parity is its first byte's.
            vec[index] += 1.0 if sign[0] % 2 == 0 else -1.0
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec /= norm
        return vec

    def similarity(self, left: str, right: str) -> float:
        """Cosine similarity between two texts under this embedder."""
        return float(np.dot(self.embed(left), self.embed(right)))


class MemoizedEmbedder:
    """An embedder wrapper memoizing ``embed`` by exact text, with LRU bounds.

    Schema linking embeds the same handful of texts over and over: the
    question once per schema item per scoring pass, and every schema
    item's name/comment once per question.  Memoizing by exact text
    makes the repeats free while producing bit-identical vectors, so
    rankings (and the golden parity suite) are unaffected.  Cached
    vectors are returned read-only because every caller treats them as
    values.

    The memo is meant to be *scoped*: the engine resolves one instance
    per database through its :class:`~repro.engine.cache.StageCache`,
    so schema-item embeddings are shared across every question served
    on that database and evicted with the engine's cache.  It keeps the
    :data:`MEMO_CAPACITY` most recently used texts (questions churn,
    item texts stay hot).
    """

    def __init__(self, base: HashedNgramEmbedder):
        self.base = base
        self._memo = Memo(MEMO_CAPACITY)

    @property
    def dim(self) -> int:
        return self.base.dim

    def _embed_frozen(self, text: str) -> np.ndarray:
        vec = self.base.embed(text)
        vec.flags.writeable = False
        return vec

    def embed(self, text: str) -> np.ndarray:
        return self._memo.get(text, self._embed_frozen, text)

    def similarity(self, left: str, right: str) -> float:
        return float(np.dot(self.embed(left), self.embed(right)))
