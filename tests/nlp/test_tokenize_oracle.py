"""The tokenizer against its unconditional form.

``tokenize`` runs each regex pass only behind a test that is necessary for
the pass to match. ``reference`` is the same tokenizer with every pass run
on every text; the two must return equal lists on any input.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlp.tokenize import EMOTICONS, tokenize

_EMOTICON_RE = re.compile(
    "|".join(re.escape(e) for e in sorted(EMOTICONS, key=len, reverse=True))
)
_SCORE_RE = re.compile(r"\b\d+-\d+\b")


def reference(text, keep_emoticons=True):
    """``tokenize`` as it stood before the guards: eight passes, always."""
    emoticons = _EMOTICON_RE.findall(text) if keep_emoticons else []
    stripped = re.sub(r"https?://\S+", " ", text)
    stripped = re.sub(r"@\w+", " ", stripped)
    stripped = _EMOTICON_RE.sub(" ", stripped)
    lowered = stripped.lower().replace("#", " ")
    scores = _SCORE_RE.findall(lowered)
    without_scores = _SCORE_RE.sub(" ", lowered)
    words = re.findall(r"[a-z0-9']+", without_scores)
    return words + scores + emoticons


#: Pieces that reach every guard and its edge, concatenated with and
#: without separators so they also collide with each other. U+0130 (dotted
#: capital I) and U+212A (Kelvin sign) lower into ASCII letters; U+0663 and
#: U+0660 are digits to ``\d``.
PIECES = sorted(EMOTICONS) + [
    "http://t.co/a", "https://t.co/b", "xhttp://a", "http", "https:/", "HTTP://A",
    "http://t.co/a:)b", "@ref", "a@b", "@", "@@x_1",
    "3-0", "3-0-1", "a3-0", "#3-0", "3-", "-0", "10-2", "\u0663-\u0660", "-", "--",
    "#mcfc", "#", "can't", "'", "GOAL", "Tevez", "\u0130", "\u01303-0", "\u212a", "\u212a:)",
    "ß", "é", "D", ":", ")", "(", "=", "<", "3", ";", " ", "  ", "\n", "\t", ".", "_",
]
texts = st.lists(
    st.one_of(st.sampled_from(PIECES), st.text(max_size=3)), max_size=12
).map("".join)


@settings(max_examples=600, deadline=None)
@given(text=texts, keep_emoticons=st.booleans())
def test_tokenize_equals_the_unconditional_passes(text, keep_emoticons):
    assert tokenize(text, keep_emoticons) == reference(text, keep_emoticons)


def test_every_piece_and_every_pair_of_pieces():
    for a in PIECES:
        for b in [""] + PIECES:
            for text in (a + b, f"{a} {b}"):
                for keep in (True, False):
                    assert tokenize(text, keep) == reference(text, keep), text


def test_tokenize_equals_the_unconditional_passes_on_soccer(soccer):
    for tweet in soccer.tweets:
        for keep in (True, False):
            assert tokenize(tweet.text, keep) == reference(tweet.text, keep)
