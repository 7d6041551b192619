"""Cosine similarity and ranking."""

from collections import Counter

import pytest

from repro.nlp.keywords import KeywordExtractor
from repro.nlp.similarity import (
    cosine_similarity,
    rank_by_similarity,
    rank_tokens,
)
from repro.nlp.tokenize import content_tokens


def test_cosine_identical():
    v = {"a": 1.0, "b": 2.0}
    assert cosine_similarity(v, dict(v)) == pytest.approx(1.0)


def test_cosine_orthogonal():
    assert cosine_similarity({"a": 1.0}, {"b": 1.0}) == 0.0


def test_cosine_empty():
    assert cosine_similarity({}, {"a": 1.0}) == 0.0


def test_cosine_symmetric():
    left = {"a": 1.0, "b": 3.0}
    right = {"b": 2.0, "c": 1.0}
    assert cosine_similarity(left, right) == pytest.approx(
        cosine_similarity(right, left)
    )


def test_rank_orders_by_topical_overlap():
    items = [
        "the weather is nice today",
        "tevez scored a goal for manchester",
        "goal goal goal tevez tevez",
    ]
    ranked = rank_by_similarity(items, ["tevez", "goal"], text_of=lambda s: s)
    assert ranked[0][0] == items[2]
    assert ranked[-1][0] == items[0]
    assert ranked[-1][1] == 0.0


def test_rank_limit():
    items = ["a b", "a c", "a d"]
    ranked = rank_by_similarity(items, ["a"], text_of=lambda s: s, limit=2)
    assert len(ranked) == 2


def test_rank_stable_for_ties():
    items = ["goal one", "goal two"]
    ranked = rank_by_similarity(items, ["goal"], text_of=lambda s: s)
    assert [item for item, _s in ranked] == items


def test_idf_weighting_changes_ranking():
    extractor = KeywordExtractor()
    for _ in range(100):
        extractor.observe("match talk about the match")
    extractor.observe("tevez scored")
    items = [
        "match match match",  # only the ubiquitous term
        "tevez scored",       # the rare, informative term
    ]
    query = ["tevez", "match"]
    without_idf = rank_by_similarity(items, query, text_of=lambda s: s)
    with_idf = rank_by_similarity(
        items, query, text_of=lambda s: s, extractor=extractor
    )
    # Raw counts favor the repetitive common-term tweet; IDF flips the
    # ranking toward the rare-term tweet.
    assert without_idf[0][0] == "match match match"
    assert with_idf[0][0] == "tevez scored"


def text_path_ranking(texts, keywords, extractor):
    """``rank_by_similarity`` as it stood before the token core: tokenize
    and weigh every text, one ``idf`` call per term occurrence."""
    def vector(tokens):
        counts = Counter(tokens)
        if extractor is None:
            return dict(counts)
        return {t: c * extractor.idf(t) for t, c in counts.items()}

    query = vector([t for k in keywords for t in content_tokens(k)])
    scored = [
        (text, cosine_similarity(vector(content_tokens(text)), query))
        for text in texts
    ]
    scored.sort(key=lambda pair: -pair[1])
    return scored


def test_token_ranking_equals_text_ranking_on_distinct_texts():
    """No two texts share a token tuple, so the per-tuple score memo never
    hits; many share a score, so input order decides among them."""
    texts = [
        f"goal {'tevez ' * (i % 4)}minute{i} {'match' if i % 3 else 'derby'}"
        for i in range(60)
    ]
    docs = [tuple(content_tokens(text)) for text in texts]
    assert len(set(docs)) == len(docs)
    extractor = KeywordExtractor()
    extractor.observe_all(texts)
    for model in (None, extractor):
        expected = text_path_ranking(texts, ["tevez", "goal"], model)
        assert len({score for _text, score in expected}) < len(expected)
        for limit in (None, 7):
            order, scores = rank_tokens(docs, ["tevez", "goal"], model, limit)
            assert [(texts[i], scores[i]) for i in order] == expected[:limit]
            assert rank_by_similarity(
                texts, ["tevez", "goal"], str, extractor=model, limit=limit
            ) == expected[:limit]


def test_extract_tokens_equals_extract():
    texts = ["tevez scores 3-0", "tevez again", "what a match", "match on"]
    extractor = KeywordExtractor()
    extractor.observe_all(texts)
    by_tokens = KeywordExtractor()
    for text in texts:
        by_tokens.observe_tokens(content_tokens(text))
    assert by_tokens.extract_tokens(
        [content_tokens(text) for text in texts], k=3
    ) == extractor.extract(texts, k=3)
