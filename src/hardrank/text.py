"""Corpus-wide tokenizer and the embedded stopword list.

Every component (indexing, retrieval, feature extraction, hardness rules)
shares the same tokenization so that scores computed in one place can be
reproduced by hand in another: lowercase, split on non-alphanumeric
characters, drop empty tokens. No stemming, no stopword removal at index
time.
"""

from __future__ import annotations

import re

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase `text` and return its alphanumeric tokens."""
    return _TOKEN_RE.findall(text.lower())


def raw_tokens(text: str) -> list[str]:
    """Alphanumeric tokens with original casing preserved (for acronym checks)."""
    return _TOKEN_RE.findall(text)


def tokenize_with_spans(text: str) -> list[tuple[str, int, int]]:
    """Tokens plus their (start, end) character offsets in the original text."""
    return [(m.group().lower(), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]


# Fixed 100-word English stopword list used by the hardness heuristics
# (never by the index itself).
STOPWORDS = frozenset(
    """
    a about after again all an and any are as at be because been before
    being between both but by can could did do does down during each
    for from had has have having he her here him his how i if in
    into is it its just me more most my no not now of off on only or other
    our out over same she should so some such than that the their them
    then there these they this those through to too under up was
    we were what when where which while who will with would you your
    """.split()
)


def content_terms(tokens: list[str]) -> list[str]:
    """Tokens that are not stopwords."""
    return [t for t in tokens if t not in STOPWORDS]
