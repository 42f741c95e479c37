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
from repro.text.tokenize import multi_order_ngrams, sentence_tokens

#: Texts a :class:`MemoizedEmbedder` keeps embedded.
MEMO_CAPACITY = 4096


_SLOT_HASHER = hashlib.blake2b(digest_size=8, salt=(1).to_bytes(8, "little"))
_SIGN_HASHER = hashlib.blake2b(digest_size=8, salt=(2).to_bytes(8, "little"))

#: Distinct features one embedder keeps a signed slot for.
SLOT_TABLE_CAPACITY = 1 << 15


def _salted_digests(token: str) -> tuple[bytes, bytes]:
    """``token``'s 8-byte blake2b digests salted with 1 (its slot) and
    2 (its sign), from copies of pre-salted states: cheaper than
    building a salted hasher per call, and the same bytes hashed give
    the same digest."""
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
        # feature -> slot + 1, negated when the feature's sign is -1.
        # Insert-only and capped (never evicted), so threads embedding
        # at once only ever add the same value under a key, and a
        # feature met past the cap is hashed on every embed instead.
        self._slots: dict[str, int] = {}

    def _features(self, text: str) -> list[str]:
        if not text.strip():
            return []
        feats = multi_order_ngrams(text, self.orders)
        if self.use_words:
            feats.extend(f"w:{tok}" for tok in sentence_tokens(text))
        return feats

    def _signed_slot(self, feat: str) -> int:
        slot, sign = _salted_digests(feat)
        code = int.from_bytes(slot, "little") % self.dim + 1
        # A little-endian integer's parity is its first byte's.
        if sign[0] % 2:
            code = -code
        if len(self._slots) < SLOT_TABLE_CAPACITY:
            self._slots[feat] = code
        return code

    def embed(self, text: str) -> np.ndarray:
        """Embed ``text`` into a unit-norm ``dim``-vector.

        The empty string maps to the zero vector.  Each feature adds
        its sign to its slot; every term is +-1, so the counts, and
        the vector, are exact whatever the order of the sum.
        """
        feats = self._features(text)
        if not feats:
            return np.zeros(self.dim, dtype=np.float64)
        slots = self._slots
        codes = np.fromiter(
            (slots.get(feat) or self._signed_slot(feat) for feat in feats),
            dtype=np.intp,
            count=len(feats),
        )
        vec = np.bincount(
            np.abs(codes) - 1, weights=np.sign(codes), minlength=self.dim
        )
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
