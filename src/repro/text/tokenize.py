"""Deterministic word-level tokenization helpers."""

from __future__ import annotations

import re
from typing import Iterable

_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+(?:\.\d+)?|'[^']*'|\"[^\"]*\"|\S")
_CAMEL_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")


def normalize(text: str) -> str:
    """Lowercase and collapse whitespace.

    >>> normalize("  How  MANY  Clients? ")
    'how many clients?'
    """
    return " ".join(text.lower().split())


def word_tokens(text: str) -> list[str]:
    """Split ``text`` into word-level tokens, keeping quoted strings intact.

    >>> word_tokens("name = 'Sarah Martinez'")
    ['name', '=', "'Sarah Martinez'"]
    """
    return _WORD_RE.findall(text)


def sentence_tokens(text: str) -> list[str]:
    """Lowercased word tokens with identifier splitting.

    Identifiers written in snake_case or camelCase are split into their
    component words so that schema names and questions share vocabulary,
    e.g. ``account_id`` -> ``account``, ``id``.
    """
    tokens: list[str] = []
    for raw in word_tokens(text):
        if raw.startswith(("'", '"')):
            tokens.append(raw.strip("'\"").lower())
            continue
        decamel = _CAMEL_RE.sub(" ", raw)
        for part in decamel.replace("_", " ").split():
            tokens.append(part.lower())
    return tokens


def stem(token: str) -> str:
    """Light plural stemming: clients -> client, cities -> city.

    Deliberately conservative — only plural suffixes, so schema words
    and question words meet without a full morphological analyzer.
    """
    if len(token) > 3 and token.endswith("ies"):
        return token[:-3] + "y"
    if len(token) > 3 and token.endswith(("ses", "xes", "zes", "hes")):
        return token[:-2]
    if len(token) > 3 and token.endswith("s") and not token.endswith("ss"):
        return token[:-1]
    return token


def stemmed_tokens(text: str) -> list[str]:
    """Lower-cased, identifier-split, plural-stemmed tokens."""
    return [stem(token) for token in sentence_tokens(text)]


def character_ngrams(text: str, order: int) -> list[str]:
    """Return all character n-grams of a padded, normalized string.

    Padding with ``#`` marks word boundaries, which makes short words
    distinguishable from substrings of longer words.
    """
    return multi_order_ngrams(text, (order,))


def multi_order_ngrams(text: str, orders: Iterable[int]) -> list[str]:
    """:func:`character_ngrams` of each of ``orders`` in turn, in one
    list: the text is normalized and padded once for every order."""
    padded = f"#{normalize(text)}#"
    grams: list[str] = []
    for order in orders:
        if order <= 0:
            raise ValueError(f"n-gram order must be positive, got {order}")
        if len(padded) < order:
            grams.append(padded)
        else:
            grams += [padded[i:i + order] for i in range(len(padded) - order + 1)]
    return grams
