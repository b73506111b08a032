"""Corpus-wide tokenizer and the embedded stopword list.

Every component (indexing, retrieval, feature extraction, hardness rules)
shares the same tokenization so that scores computed in one place can be
reproduced by hand in another: split on non-alphanumeric characters, drop
empty tokens, lowercase each token. No stemming, no stopword removal at
index time.

ASCII text is split by one `str.translate`, which turns every ASCII
character that is not a letter or digit into a space (`_` included), and
one `str.split`; other text goes through `_TOKEN_RE`, which gives the same
tokens. Tokens are lowercased one by one, not the text before splitting:
`'İ'.lower()` adds a combining dot the split would cut on, and a final
sigma depends on what follows it in the text.
"""

from __future__ import annotations

import re

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# Indexed by code point below 128: the character if alphanumeric, else a space.
_ASCII_TABLE = "".join(c if c.isalnum() else " " for c in map(chr, range(128)))


def tokenize(text: str) -> list[str]:
    """The lowercased alphanumeric tokens of `text`."""
    if text.isascii():
        return text.lower().translate(_ASCII_TABLE).split()
    return [token.lower() for token in _TOKEN_RE.findall(text)]


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
