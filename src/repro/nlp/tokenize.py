"""Tweet-aware tokenization.

Tweets are not newswire: they carry hashtags, @-mentions, URLs, emoticons,
and score strings like "3-0" that downstream features care about. The
tokenizer:

- lowercases,
- replaces URLs with nothing (the links panel extracts them separately),
- keeps hashtag bodies as plain tokens (``#mcfc`` → ``mcfc``),
- drops @-mentions (they name accounts, not content),
- keeps emoticons as standalone tokens,
- keeps hyphenated number patterns (``3-0``) intact — TwitInfo's peak
  labels depend on them,
- splits the rest on non-word characters.

Most tweets carry none of the special shapes, so each regex pass runs
only behind a test that is necessary for it to match — the output is
what running every pass unconditionally gives
(``tests/nlp/test_tokenize_oracle.py`` holds that form as the oracle):

- URL removal only when ``"http" in text``: the pattern starts with the
  literal ``http``.
- mention removal only when ``"@" in text``: the pattern starts with ``@``.
- emoticon collection and removal only when the emoticon pattern matches
  the raw text. Removing URLs and mentions only ever inserts spaces, and
  no emoticon contains one, so an emoticon present after those passes was
  present before them.
- score collection only when ``"-"`` is in the lowered text, and score
  removal only when a score was collected: the pattern contains a literal
  ``-``.
- ``#`` is left in place: the score pattern (word boundaries, digits, a
  hyphen) and the word pattern (``[a-z0-9']``) treat it as one more
  non-word character, exactly like the space it used to be replaced with.
"""

from __future__ import annotations

import re
from collections.abc import Iterable

#: Emoticons recognized as standalone tokens.
EMOTICONS: frozenset[str] = frozenset(
    {":)", ":-)", ":D", ";)", "=)", "<3", ":(", ":-(", ":'(", "D:", "=("}
)

POSITIVE_EMOTICONS: frozenset[str] = frozenset({":)", ":-)", ":D", ";)", "=)", "<3"})
NEGATIVE_EMOTICONS: frozenset[str] = frozenset({":(", ":-(", ":'(", "D:", "=("})

_URL_RE = re.compile(r"https?://\S+")
_MENTION_RE = re.compile(r"@\w+")
_EMOTICON_RE = re.compile(
    "|".join(re.escape(e) for e in sorted(EMOTICONS, key=len, reverse=True))
)
_SCORE_RE = re.compile(r"\b\d+-\d+\b")
_WORD_RE = re.compile(r"[a-z0-9']+")

#: Function words excluded from keyword extraction and similarity.
STOPWORDS: frozenset[str] = frozenset(
    """a about after again all also am an and any are as at be because been
    before being between both but by can cannot could did do does doing down
    during each few for from further had has have having he her here hers him
    his how i if in into is it its itself just like me more most my myself no
    nor not now of off on once only or other our ours out over own re s same
    she so some such t than that the their theirs them then there these they
    this those through to too under until up very was we were what when where
    which while who whom why will with you your yours yourself
    rt via amp im dont cant wont didnt doesnt isnt arent thats whats gonna
    gotta lol omg wow hey ok okay yeah yes no right really think know get got
    one two going go day today day""".split()
)


def tokenize(text: str, keep_emoticons: bool = True) -> list[str]:
    """Tokenize tweet text into lowercase tokens.

    Args:
        text: raw tweet body.
        keep_emoticons: include emoticons as tokens (the sentiment pipeline
            strips them from *training* features because they are the
            distant-supervision labels).
    """
    has_emoticon = _EMOTICON_RE.search(text) is not None
    emoticons = _EMOTICON_RE.findall(text) if keep_emoticons and has_emoticon else ()
    if "http" in text:
        text = _URL_RE.sub(" ", text)
    if "@" in text:
        text = _MENTION_RE.sub(" ", text)
    if has_emoticon:
        text = _EMOTICON_RE.sub(" ", text)
    lowered = text.lower()
    scores = _SCORE_RE.findall(lowered) if "-" in lowered else ()
    if scores:
        lowered = _SCORE_RE.sub(" ", lowered)
    tokens = _WORD_RE.findall(lowered)
    tokens += scores
    tokens += emoticons
    return tokens


def content_filter(tokens: Iterable[str]) -> list[str]:
    """``tokens`` minus stopwords and one-character tokens."""
    return [
        token for token in tokens if token not in STOPWORDS and len(token) > 1
    ]


def content_tokens(text: str) -> list[str]:
    """Tokens with stopwords and emoticons removed — the keyword features."""
    return content_filter(tokenize(text, keep_emoticons=False))


def token_docs(texts: Iterable[str]) -> list[tuple[str, ...]]:
    """Each text's :func:`content_tokens` as a tuple: the documents the
    token-taking cores (``extract_tokens``, ``rank_tokens``) read."""
    return [tuple(content_tokens(text)) for text in texts]
