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
    emoticons = _EMOTICON_RE.findall(text) if keep_emoticons else []
    stripped = _URL_RE.sub(" ", text)
    stripped = _MENTION_RE.sub(" ", stripped)
    stripped = _EMOTICON_RE.sub(" ", stripped)
    lowered = stripped.lower().replace("#", " ")
    scores = _SCORE_RE.findall(lowered)
    without_scores = _SCORE_RE.sub(" ", lowered)
    words = _WORD_RE.findall(without_scores)
    return words + scores + emoticons


def content_tokens(text: str) -> list[str]:
    """Tokens with stopwords and emoticons removed — the keyword features."""
    return [
        token
        for token in tokenize(text, keep_emoticons=False)
        if token not in STOPWORDS and len(token) > 1
    ]


def token_docs(texts: Iterable[str]) -> list[tuple[str, ...]]:
    """Each text's :func:`content_tokens` as a tuple: the documents the
    token-taking cores (``extract_tokens``, ``rank_tokens``) read."""
    return [tuple(content_tokens(text)) for text in texts]
