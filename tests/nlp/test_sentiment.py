"""Sentiment classifier: training, inference, accuracy on ground truth."""

import math
import os
import subprocess
import sys

import pytest

import repro
from repro.nlp.corpus import (
    LabeledTweet,
    has_emoticon_label,
    strip_emoticons,
    training_corpus,
)
from repro.nlp.corpus import test_corpus as heldout_corpus
from repro.nlp.sentiment import SentimentClassifier, train_default_classifier
from repro.nlp.tokenize import tokenize


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


def strip_then_tokenize_features(text: str, ngram: int) -> list[str]:
    """``_features`` as it stood while the classifier tokenized on its own:
    emoticons replaced first, then the tokenizer."""
    tokens = tokenize(strip_emoticons(text), keep_emoticons=False)
    if ngram == 1:
        return tokens
    return tokens + [f"{a}_{b}" for a, b in zip(tokens, tokens[1:])]


@pytest.mark.parametrize("ngram", [1, 2])
def test_log_odds_bit_equal_to_three_lookup_loop(ngram):
    trained = SentimentClassifier(ngram=ngram)
    trained.train(training_corpus(size=1500, seed=4))
    model = trained.to_dict()
    for candidate in (trained, SentimentClassifier.from_dict(model)):
        assert candidate.to_dict() == model
        for example in heldout_corpus(size=400, seed=4):
            text = example.text
            tokens = tokenize(text, keep_emoticons=False)
            expected = three_lookup_log_odds(
                model, strip_then_tokenize_features(text, ngram)
            )
            assert candidate._features(text) == strip_then_tokenize_features(
                text, ngram
            )
            assert candidate.log_odds(text) == expected
            assert candidate.log_odds_tokens(tokens) == expected
            assert candidate.classify_tokens(text, tokens) == candidate.classify(text)


def test_default_model_is_what_strip_then_tokenize_trained():
    class StripThenTokenize(SentimentClassifier):
        def _features(self, text):
            return strip_then_tokenize_features(text, self._ngram)

    before = StripThenTokenize()
    before.train(training_corpus(size=4000))
    assert train_default_classifier().to_dict() == before.to_dict()


def test_emoticon_inside_a_url_goes_with_the_url(classifier):
    """The classifier sees what ``tokenize`` says: the URL pass runs before
    the emoticon pass, so no stray ``b`` is left of ``http://t.co/a:)b``."""
    text = "see http://t.co/a:)b now"
    assert classifier._features(text) == ["see", "now"]
    assert classifier.log_odds(text) == classifier.log_odds("see now")
    assert strip_then_tokenize_features(text, 1) == ["see", "b", "now"]


OVERLAPPING = {"D:) ok": ["ok"], "x :D: y": ["x", "y"]}


def test_overlapping_emoticons_strip_leftmost_longest(classifier):
    for text, tokens in OVERLAPPING.items():
        assert tokenize(strip_emoticons(text), keep_emoticons=False) == tokens
        assert classifier._features(text) == tokens


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_overlapping_emoticons_do_not_depend_on_the_hash_seed(hash_seed):
    """``strip_emoticons`` used to replace in ``EMOTICONS`` set order, which
    ``PYTHONHASHSEED`` decides: ``"D:) ok"`` kept a stray ``d`` under some
    seeds and not others."""
    script = (
        "from repro.nlp.corpus import strip_emoticons\n"
        "from repro.nlp.tokenize import tokenize\n"
        f"print([tokenize(strip_emoticons(t), False) for t in {list(OVERLAPPING)}])"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True, timeout=60,
        env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src},
    )
    assert result.stdout.strip() == repr(list(OVERLAPPING.values()))


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
