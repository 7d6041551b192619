"""The Relevant Tweets panel.

Section 3.2: "The Relevant Tweets panel lists tweets that fall within the
event's time window. These tweets are sorted by similarity to the event or
peak keywords, so that tweets near the top are most representative of the
selected event. Tweets are colored blue, red, or white depending on whether
their detected sentiment is positive, negative, or neutral."
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass

from repro.nlp.keywords import KeywordExtractor
from repro.nlp.similarity import rank_tokens
from repro.nlp.tokenize import token_docs
from repro.twitter.models import Tweet

_URL_RE = re.compile(r"https?://\S+")
_RETWEET_PREFIX_RE = re.compile(r"^rt @\w+:\s*")


@dataclass(frozen=True)
class RelevantTweet:
    """One panel entry: the tweet, its similarity, sentiment, and color."""

    tweet: Tweet
    similarity: float
    sentiment: int

    @property
    def color(self) -> str:
        if self.sentiment > 0:
            return "blue"
        if self.sentiment < 0:
            return "red"
        return "white"


def relevant_tweets(
    tweets: Sequence[Tweet],
    keywords: Sequence[str],
    sentiments: Sequence[int],
    extractor: KeywordExtractor | None = None,
    limit: int = 10,
) -> list[RelevantTweet]:
    """Rank tweets by similarity to the (event or peak) keywords.

    Args:
        tweets: candidate tweets (already time-filtered by the caller).
        keywords: event keywords, or event keywords + peak terms when a
            peak is selected.
        sentiments: classifier labels aligned with ``tweets``.
        extractor: background model for TF-IDF weighting (the labeler's).
        limit: panel size.
    """
    return relevant_from_tokens(
        tweets,
        token_docs(tweet.text for tweet in tweets),
        keywords, sentiments, extractor, limit,
    )


def relevant_from_tokens(
    tweets: Sequence[Tweet],
    docs: Sequence[tuple[str, ...]],
    keywords: Sequence[str],
    sentiments: Sequence[int],
    extractor: KeywordExtractor | None = None,
    limit: int = 10,
) -> list[RelevantTweet]:
    """:func:`relevant_tweets` given each tweet's content tokens (``docs``
    aligned with ``tweets``), so a caller that cached them does not
    tokenize again."""
    if not len(tweets) == len(docs) == len(sentiments):
        raise ValueError("tweets, docs and sentiments must align")
    order, scores = rank_tokens(docs, keywords, extractor)
    # Deduplicate near-identical texts (Twitter is full of retweets; a
    # panel of ten copies of one tweet is useless). URLs are stripped from
    # the dedup key: the same reaction with ten different shortened links
    # is still one reaction.
    panel: list[RelevantTweet] = []
    seen_texts: set[str] = set()
    for index in order:
        tweet = tweets[index]
        stripped = _URL_RE.sub("", tweet.text.lower())
        stripped = _RETWEET_PREFIX_RE.sub("", stripped)
        normalized = " ".join(stripped.split())
        if normalized in seen_texts:
            continue
        seen_texts.add(normalized)
        panel.append(
            RelevantTweet(
                tweet=tweet,
                similarity=round(scores[index], 6),
                sentiment=sentiments[index],
            )
        )
        if len(panel) >= limit:
            break
    return panel
