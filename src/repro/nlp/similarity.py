"""Cosine-similarity ranking.

TwitInfo's Relevant Tweets panel sorts tweets "by similarity to the event
or peak keywords, so that tweets near the top are most representative".
This module implements that ranking: bag-of-words cosine between each tweet
and the keyword query, with TF-IDF weighting when an extractor's background
model is available.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from typing import TypeVar, Callable

from repro.nlp.keywords import KeywordExtractor
from repro.nlp.tokenize import content_tokens, token_docs

T = TypeVar("T")


def cosine_similarity(
    left: dict[str, float], right: dict[str, float]
) -> float:
    """Cosine between two sparse weight vectors (0.0 when either is empty)."""
    if not left or not right:
        return 0.0
    if len(right) < len(left):
        left, right = right, left
    dot = sum(weight * right.get(term, 0.0) for term, weight in left.items())
    if dot == 0.0:
        return 0.0
    norm_left = math.sqrt(sum(w * w for w in left.values()))
    norm_right = math.sqrt(sum(w * w for w in right.values()))
    return dot / (norm_left * norm_right)


def rank_tokens(
    docs: Sequence[tuple[str, ...]],
    keywords: Sequence[str],
    extractor: KeywordExtractor | None = None,
    limit: int | None = None,
) -> tuple[list[int], list[float]]:
    """Rank tokenized documents by cosine similarity to the keywords.

    Args:
        docs: each document's :func:`content_tokens`, as a tuple.
        keywords: the event or peak keywords.
        extractor: optional background model for TF-IDF weighting.
        limit: truncate the ranking.

    Returns ``(order, scores)``: ``scores[i]`` is ``docs[i]``'s similarity
    and ``order`` holds the document indices best first; ties keep input
    order (stable sort), so earlier documents win among equals. Each
    term's idf is computed once per call and each distinct token tuple is
    scored once.
    """
    idf: dict[str, float] = {}

    def vectorize(tokens: Sequence[str]) -> dict[str, float]:
        counts = Counter(tokens)
        if extractor is None:
            return dict(counts)
        for term in counts:
            if term not in idf:
                idf[term] = extractor.idf(term)
        return {term: count * idf[term] for term, count in counts.items()}

    query_vector = vectorize(
        [token for keyword in keywords for token in content_tokens(keyword)]
        or [k.lower() for k in keywords]
    )
    score_of: dict[tuple[str, ...], float] = {}
    scores: list[float] = []
    for tokens in docs:
        score = score_of.get(tokens)
        if score is None:
            score = score_of[tokens] = cosine_similarity(
                vectorize(tokens), query_vector
            )
        scores.append(score)
    order = sorted(range(len(docs)), key=scores.__getitem__, reverse=True)
    return (order[:limit] if limit is not None else order), scores


def rank_by_similarity(
    items: Sequence[T],
    keywords: Sequence[str],
    text_of: Callable[[T], str],
    extractor: KeywordExtractor | None = None,
    limit: int | None = None,
) -> list[tuple[T, float]]:
    """Rank items by cosine similarity of their text to the keywords.

    Args:
        items: anything with extractable text (tweets, rows…).
        keywords: the event or peak keywords.
        text_of: text accessor for an item.
        extractor: optional background model for TF-IDF weighting.
        limit: truncate the ranking.

    Returns (item, similarity) pairs, best first; ties broken by input
    order (stable sort), so earlier tweets win among equals.
    """
    order, scores = rank_tokens(
        token_docs(map(text_of, items)), keywords, extractor, limit
    )
    return [(items[index], scores[index]) for index in order]
