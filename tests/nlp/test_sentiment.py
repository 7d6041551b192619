"""Sentiment classifier: training, inference, accuracy on ground truth."""

import math

import pytest

from repro.nlp.corpus import (
    LabeledTweet,
    has_emoticon_label,
    training_corpus,
)
from repro.nlp.corpus import test_corpus as heldout_corpus
from repro.nlp.sentiment import SentimentClassifier, train_default_classifier


@pytest.fixture(scope="module")
def classifier():
    return train_default_classifier(corpus_size=3000, seed=4)


def test_corpus_labels_are_binary():
    for example in training_corpus(size=200, seed=1):
        assert example.label in (-1, 1)


def test_corpus_deterministic():
    a = training_corpus(size=50, seed=2)
    b = training_corpus(size=50, seed=2)
    assert [e.text for e in a] == [e.text for e in b]


def test_emoticon_label_extraction():
    assert has_emoticon_label("great day :)") == 1
    assert has_emoticon_label("bad day :(") == -1
    assert has_emoticon_label("meh day") is None
    assert has_emoticon_label("mixed :) :(") is None


def test_untrained_raises():
    with pytest.raises(RuntimeError):
        SentimentClassifier().log_odds("text")


def test_training_requires_both_classes():
    classifier = SentimentClassifier()
    with pytest.raises(ValueError):
        classifier.train([LabeledTweet("good", 1)])


def test_training_rejects_neutral_labels():
    classifier = SentimentClassifier()
    with pytest.raises(ValueError):
        classifier.train([LabeledTweet("meh", 0), LabeledTweet("good", 1)])


def test_emoticon_rule_dominates(classifier):
    assert classifier.classify("whatever happened :)") == 1
    assert classifier.classify("whatever happened :(") == -1


def test_phrase_based_classification(classifier):
    assert classifier.classify("this is absolutely brilliant, so happy") == 1
    assert classifier.classify("what a disaster, gutted and furious") == -1


def test_neutral_band(classifier):
    assert classifier.classify("watching the news now") == 0


def test_score_signed_and_bounded(classifier):
    assert classifier.score("so happy, love it :)") == 1.0
    assert classifier.score("terrible, hate this :(") == -1.0
    assert -1.0 <= classifier.score("just watching stuff") <= 1.0


def test_accuracy_on_ground_truth(classifier):
    """Distant supervision must generalize to composer ground truth."""
    examples = heldout_corpus(size=600, seed=4)
    metrics = classifier.evaluate(examples)
    # 2011-era tweet sentiment classifiers sat in this band too — the
    # TwitInfo paper's recall correction exists precisely because per-class
    # recall was imperfect.
    assert metrics["accuracy"] > 0.6
    assert metrics["recall_positive"] > 0.5
    assert metrics["recall_negative"] > 0.55
    assert metrics["recall_neutral"] > 0.55


def test_vocabulary_nonempty(classifier):
    assert classifier.vocabulary_size > 100


def test_default_classifier_memoized():
    a = train_default_classifier(corpus_size=500, seed=9)
    b = train_default_classifier(corpus_size=500, seed=9)
    assert a is b


def test_unseen_tokens_are_neutral_signal(classifier):
    odds_empty = classifier.log_odds("")
    odds_unseen = classifier.log_odds("zzz qqq xxyyzz")
    assert odds_empty == pytest.approx(odds_unseen)


def three_lookup_log_odds(model: dict, tokens: list[str]) -> float:
    """``log_odds`` as it stood before the per-token table: a vocabulary
    test and two likelihood lookups per token, over ``to_dict()`` state."""
    vocabulary = set(model["vocabulary"])
    positive, negative = model["log_likelihood"]["1"], model["log_likelihood"]["-1"]
    score = model["log_prior"]["1"] - model["log_prior"]["-1"]
    for token in tokens:
        if token not in vocabulary:
            continue
        positive_ll = positive.get(token, model["default_ll"]["1"])
        negative_ll = negative.get(token, model["default_ll"]["-1"])
        score += positive_ll - negative_ll
    return score


@pytest.mark.parametrize("ngram", [1, 2])
def test_log_odds_bit_equal_to_three_lookup_loop(ngram):
    trained = SentimentClassifier(ngram=ngram)
    trained.train(training_corpus(size=1500, seed=4))
    model = trained.to_dict()
    for candidate in (trained, SentimentClassifier.from_dict(model)):
        assert candidate.to_dict() == model
        for example in heldout_corpus(size=400, seed=4):
            assert candidate.log_odds(example.text) == three_lookup_log_odds(
                model, candidate._features(example.text)
            )


def test_emoticon_rule_matches_substring_scan():
    from repro.nlp.tokenize import NEGATIVE_EMOTICONS, POSITIVE_EMOTICONS

    classifier = train_default_classifier(corpus_size=3000, seed=4)
    texts = [e.text for e in heldout_corpus(size=400, seed=4)]
    texts += ["both :) and :(", "D: oh", "<3<3", "=(", ":'(", "a:Db", ""]
    for text in texts:
        has_positive = any(e in text for e in POSITIVE_EMOTICONS)
        has_negative = any(e in text for e in NEGATIVE_EMOTICONS)
        if has_positive != has_negative:
            expected = 1 if has_positive else -1
            assert classifier.classify(text) == expected
            assert classifier.score(text) == float(expected)
        else:  # none, or both: the rule abstains and log-odds decide
            assert classifier.score(text) == math.tanh(
                classifier.log_odds(text) / 4.0
            )
