"""The tokenizer's two views of a text agree, on ASCII and on any Unicode.

`tokenize` splits ASCII text by a translate table and other text by
`_TOKEN_RE`; `tokenize_with_spans` always uses the regex. The regex is the
reference: each view must give its tokens, lowercased one by one, and the
spans must slice its raw tokens out of the text.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardrank.text import _TOKEN_RE, tokenize, tokenize_with_spans

# Each ASCII character is drawn as often as a letter, `_`, `\x0b`, `\x0c`,
# `\x1c`-`\x1f` and `\x7f` included; half the texts are ASCII only, so they
# take the translate path.
ASCII = st.sampled_from([chr(i) for i in range(128)])
TEXTS = st.one_of(st.text(ASCII), st.text(st.one_of(ASCII, st.characters())))


@settings(max_examples=1000, deadline=None)
@given(TEXTS)
@example("")
@example("İ")  # lowercases to "i" and a combining dot, which the regex splits off
@example("İstanbul")
@example("AΣ.B")  # a whole-text lowercase reads the sigma as mid-word: "aσ"
@example("\x85")
@example("\xa0")
@example(" ")
@example("a_b\x0b\x1fC\x7fd")
def test_the_two_views_agree_with_the_regex(text):
    raw = _TOKEN_RE.findall(text)
    spans = tokenize_with_spans(text)
    assert [text[start:end] for _, start, end in spans] == raw
    assert tokenize(text) == [token.lower() for token in raw] == [token for token, _, _ in spans]
