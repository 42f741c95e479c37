"""Longest common substring, the fine-grained value matcher (§6.2).

The paper notes the O(f*u) cost of the LCS dynamic program is why the
coarse BM25 stage exists.  We compute the same answer by growing a
window over the right string and asking whether the left contains it:
each start either extends the best length found so far or moves on,
so there are at most ``2 * len(right)`` containment tests, each a
native substring search.  Per call it is much cheaper than the DP,
but the work still grows with every (question, value) pair, so the
speed benchmark (``bench_value_retriever_speed``) still measures the
coarse stage's saving over an exhaustive LCS scan.
"""

from __future__ import annotations


def longest_common_substring(left: str, right: str) -> str:
    """The longest contiguous substring shared by the two strings.

    Comparison is case-insensitive; the returned substring preserves the
    casing of ``right``.  Ties favor the earliest occurrence in
    ``right``.  Positions are found in ``right.lower()`` and sliced out
    of ``right``, as the textbook DP does, which differs from a slice of
    the lowered text only where lowering changes a string's length.
    """
    if not left or not right:
        return ""
    low_left = left.lower()
    low_right = right.lower()
    best = start = cursor = 0
    # Invariant: ``best`` is the longest shared length starting before
    # ``cursor``, first reached at ``start``; a longer one starting at
    # ``cursor`` has the next-longer window as a prefix.
    while cursor + best < len(low_right):
        if low_right[cursor:cursor + best + 1] in low_left:
            best += 1
            start = cursor
        else:
            cursor += 1
    return right[start:start + best]


def lcs_match_degree(question: str, value: str) -> float:
    """Degree in [0, 1] to which ``value`` is mentioned by ``question``.

    The longest shared substring is normalized by the value's length, so
    a value fully contained in the question scores 1.0.
    """
    if not value:
        return 0.0
    shared = longest_common_substring(question, value)
    return len(shared) / len(value)
