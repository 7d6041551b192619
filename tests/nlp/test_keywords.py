"""TF-IDF key-term extraction."""

from repro.nlp.keywords import KeywordExtractor


def corpus_background(extractor, n=200):
    for i in range(n):
        extractor.observe(f"routine match commentary number {i % 7} today")


def test_peak_terms_beat_background():
    extractor = KeywordExtractor()
    corpus_background(extractor)
    peak_texts = [
        "GOAL tevez makes it 3-0", "tevez scores 3-0 what a goal",
        "3-0 tevez unbelievable", "tevez!!! 3-0",
    ]
    terms = [t.term for t in extractor.extract(peak_texts, k=3)]
    assert "tevez" in terms
    assert "3-0" in terms
    assert "commentary" not in terms


def test_min_frequency_suppresses_one_offs():
    extractor = KeywordExtractor()
    corpus_background(extractor)
    texts = ["tevez scores", "tevez again", "random onlooker word"]
    terms = [t.term for t in extractor.extract(texts, k=5, min_frequency=2)]
    assert "tevez" in terms
    assert "onlooker" not in terms


def test_idf_decreases_with_document_frequency():
    extractor = KeywordExtractor()
    for _ in range(50):
        extractor.observe("common word everywhere")
    extractor.observe("rare gem")
    assert extractor.idf("gem") > extractor.idf("common")


def test_scores_sorted_descending():
    extractor = KeywordExtractor()
    corpus_background(extractor)
    scored = extractor.extract(
        ["alpha beta", "alpha beta", "alpha gamma", "alpha"], k=5, min_frequency=1
    )
    values = [t.score for t in scored]
    assert values == sorted(values, reverse=True)


def test_term_frequency_is_document_level():
    """A term repeated inside one tweet counts once (set semantics)."""
    extractor = KeywordExtractor()
    corpus_background(extractor)
    scored = extractor.extract(["spam spam spam spam", "ham"], k=5, min_frequency=1)
    by_term = {t.term: t.frequency for t in scored}
    assert by_term["spam"] == 1


def test_empty_window():
    extractor = KeywordExtractor()
    corpus_background(extractor)
    assert extractor.extract([], k=5) == []


def test_documents_counter():
    extractor = KeywordExtractor()
    extractor.observe_all(["a b", "c d"])
    assert extractor.documents == 2


def test_observe_term_sets_equals_observing_each_tweet():
    docs = [("goal", "tevez", "goal"), (), ("tevez", "3-0"), ("goal",)]
    one_by_one = KeywordExtractor()
    for tokens in docs:
        one_by_one.observe_tokens(tokens)
    at_once = KeywordExtractor()
    at_once.observe_term_sets([frozenset(tokens) for tokens in docs])
    assert at_once.documents == one_by_one.documents == 4
    for term in ("goal", "tevez", "3-0", "absent"):
        assert at_once.idf(term) == one_by_one.idf(term)
