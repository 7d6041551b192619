"""Sentiment classification.

TweeQL's classification framework "used primarily for sentiment analysis".
The classifier is a multinomial Naive Bayes over tweet tokens, trained with
emoticon distant supervision (see :mod:`repro.nlp.corpus`), with:

- emoticons stripped from training features (they are the labels),
- a high-precision emoticon rule at inference time (an emoticon in live
  text is the strongest signal there is),
- a neutral band: when the log-odds magnitude is below a threshold, the
  tweet is labeled neutral (0) — this is how a binary-trained classifier
  produces the positive/negative/neutral labels TwitInfo's pie chart and
  tweet coloring use.

Labels are integers: +1 positive, -1 negative, 0 neutral.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Sequence

from repro.nlp.corpus import LabeledTweet, training_corpus
from repro.nlp.tokenize import (
    NEGATIVE_EMOTICONS,
    POSITIVE_EMOTICONS,
    tokenize,
)

POSITIVE, NEUTRAL, NEGATIVE = 1, 0, -1

_POSITIVE_EMOTICON_RE = re.compile(
    "|".join(re.escape(e) for e in sorted(POSITIVE_EMOTICONS))
)
_NEGATIVE_EMOTICON_RE = re.compile(
    "|".join(re.escape(e) for e in sorted(NEGATIVE_EMOTICONS))
)


def _emoticon_label(text: str) -> int:
    """The emoticon rule: +1 / -1 when the text carries emoticons of one
    polarity only, 0 when it carries none or both."""
    has_positive = _POSITIVE_EMOTICON_RE.search(text) is not None
    has_negative = _NEGATIVE_EMOTICON_RE.search(text) is not None
    return has_positive - has_negative


class SentimentClassifier:
    """Multinomial Naive Bayes with an emoticon rule and a neutral band.

    Args:
        neutral_band: label neutral when |log-odds| is below this value.
        smoothing: Laplace smoothing constant for token likelihoods.
        ngram: 1 for unigram features, 2 to add adjacent-token bigrams
            ("so happy", "what a") — bigrams capture negation and
            intensity phrasing unigrams miss (ablated in benchmark E10).
    """

    def __init__(
        self,
        neutral_band: float = 2.0,
        smoothing: float = 1.0,
        ngram: int = 1,
    ) -> None:
        if smoothing <= 0:
            raise ValueError("smoothing must be positive")
        if ngram not in (1, 2):
            raise ValueError("ngram must be 1 or 2")
        self.neutral_band = neutral_band
        self._smoothing = smoothing
        self._ngram = ngram
        self._log_prior: dict[int, float] = {}
        self._log_likelihood: dict[int, dict[str, float]] = {}
        self._default_ll: dict[int, float] = {}
        self._vocabulary: set[str] = set()
        #: vocabulary token → positive_ll − negative_ll, what
        #: :meth:`log_odds` adds per token; derived by :meth:`_finish`.
        self._token_log_odds: dict[str, float] = {}
        self._trained = False

    # -- training -------------------------------------------------------------

    def _ngrams(self, tokens: list[str]) -> list[str]:
        """``tokens``, plus their adjacent bigrams when ``ngram=2``."""
        if self._ngram == 1:
            return tokens
        return tokens + [f"{a}_{b}" for a, b in zip(tokens, tokens[1:])]

    def _features(self, text: str) -> list[str]:
        """The features of ``text``: its emoticon-free tokens (and their
        bigrams when ``ngram=2``).

        The features are whatever ``tokenize(text, keep_emoticons=False)``
        says — the list the TwitInfo panels are built from too. The
        tokenizer removes URLs before emoticons, so an emoticon inside a
        URL (``"see http://t.co/a:)b now"``) goes with the URL and leaves
        no stray ``b`` behind.
        """
        return self._ngrams(tokenize(text, keep_emoticons=False))

    def train(self, examples: Sequence[LabeledTweet]) -> None:
        """Fit on emoticon-labeled examples (labels must be +1/-1)."""
        token_counts: dict[int, Counter[str]] = {POSITIVE: Counter(), NEGATIVE: Counter()}
        class_counts: Counter[int] = Counter()
        for example in examples:
            if example.label not in (POSITIVE, NEGATIVE):
                raise ValueError(
                    "training labels must be +1 or -1 (neutral emerges from "
                    "the confidence band)"
                )
            class_counts[example.label] += 1
            tokens = self._features(example.text)
            token_counts[example.label].update(tokens)
            self._vocabulary.update(tokens)
        if not class_counts[POSITIVE] or not class_counts[NEGATIVE]:
            raise ValueError("training data must include both classes")

        total_examples = sum(class_counts.values())
        vocab_size = max(1, len(self._vocabulary))
        for label in (POSITIVE, NEGATIVE):
            self._log_prior[label] = math.log(class_counts[label] / total_examples)
            total_tokens = sum(token_counts[label].values())
            denominator = total_tokens + self._smoothing * vocab_size
            self._log_likelihood[label] = {
                token: math.log((count + self._smoothing) / denominator)
                for token, count in token_counts[label].items()
            }
            self._default_ll[label] = math.log(self._smoothing / denominator)
        self._finish()

    def _finish(self) -> None:
        """Derive the per-token log-odds table from the fitted model."""
        positive, negative = (
            self._log_likelihood[POSITIVE], self._log_likelihood[NEGATIVE]
        )
        default_positive, default_negative = (
            self._default_ll[POSITIVE], self._default_ll[NEGATIVE]
        )
        self._token_log_odds = {
            token: positive.get(token, default_positive)
            - negative.get(token, default_negative)
            for token in self._vocabulary
        }
        self._trained = True

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct training tokens."""
        return len(self._vocabulary)

    # -- inference ------------------------------------------------------------

    def log_odds_tokens(self, tokens: list[str]) -> float:
        """:meth:`log_odds` of a text whose
        ``tokenize(text, keep_emoticons=False)`` is ``tokens``."""
        if not self._trained:
            raise RuntimeError("classifier is not trained; call train() first")
        token_log_odds = self._token_log_odds
        score = self._log_prior[POSITIVE] - self._log_prior[NEGATIVE]
        # An explicit left-to-right loop: ``sum()`` compensates on
        # Python >= 3.12 and would change the floats.
        for token in self._ngrams(tokens):
            delta = token_log_odds.get(token)
            if delta is not None:  # unseen tokens carry no signal either way
                score += delta
        return score

    def log_odds(self, text: str) -> float:
        """log P(positive | text) − log P(negative | text) (NB estimate)."""
        return self.log_odds_tokens(tokenize(text, keep_emoticons=False))

    def _band(self, odds: float) -> int:
        """The neutral band: log-odds → +1 / -1 / 0."""
        if odds > self.neutral_band:
            return POSITIVE
        if odds < -self.neutral_band:
            return NEGATIVE
        return NEUTRAL

    def classify(self, text: str) -> int:
        """Label a tweet: +1 / -1 / 0.

        The emoticon rule fires first: an unambiguous emoticon decides the
        label outright (and the text is never tokenized). Otherwise NB
        log-odds with the neutral band.
        """
        return _emoticon_label(text) or self._band(self.log_odds(text))

    def classify_tokens(self, text: str, tokens: list[str]) -> int:
        """:meth:`classify` for a caller that already holds
        ``tokenize(text, keep_emoticons=False)`` as ``tokens``."""
        return _emoticon_label(text) or self._band(self.log_odds_tokens(tokens))

    def score(self, text: str) -> float:
        """Signed confidence squashed to [-1, 1] (0 ≈ neutral)."""
        label = _emoticon_label(text)
        if label:
            return float(label)
        return math.tanh(self.log_odds(text) / 4.0)

    # -- persistence ------------------------------------------------------------

    def to_dict(self) -> dict:
        """Serializable model state (JSON-safe)."""
        if not self._trained:
            raise RuntimeError("cannot serialize an untrained classifier")
        return {
            "format": "tweeql-nb-v1",
            "neutral_band": self.neutral_band,
            "smoothing": self._smoothing,
            "ngram": self._ngram,
            "log_prior": {str(k): v for k, v in self._log_prior.items()},
            "log_likelihood": {
                str(label): table
                for label, table in self._log_likelihood.items()
            },
            "default_ll": {str(k): v for k, v in self._default_ll.items()},
            "vocabulary": sorted(self._vocabulary),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SentimentClassifier":
        """Rebuild a trained classifier from :meth:`to_dict` output."""
        if payload.get("format") != "tweeql-nb-v1":
            raise ValueError(f"unknown classifier format: {payload.get('format')!r}")
        classifier = cls(
            neutral_band=payload["neutral_band"],
            smoothing=payload["smoothing"],
            ngram=payload.get("ngram", 1),
        )
        classifier._log_prior = {int(k): v for k, v in payload["log_prior"].items()}
        classifier._log_likelihood = {
            int(label): dict(table)
            for label, table in payload["log_likelihood"].items()
        }
        classifier._default_ll = {
            int(k): v for k, v in payload["default_ll"].items()
        }
        classifier._vocabulary = set(payload["vocabulary"])
        classifier._finish()
        return classifier

    def save(self, path: str) -> None:
        """Write the trained model to a JSON file."""
        import json

        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f)

    @classmethod
    def load(cls, path: str) -> "SentimentClassifier":
        """Load a model previously written by :meth:`save`."""
        import json

        with open(path, encoding="utf-8") as f:
            return cls.from_dict(json.load(f))

    def confusion_matrix(
        self, examples: Sequence[LabeledTweet]
    ) -> list[list[float]]:
        """Row-normalized confusion matrix P(predicted | true).

        Rows and columns are ordered (positive, negative, neutral). Used by
        :meth:`repro.twitinfo.sentiment_view.SentimentSummary.confusion_corrected_proportions`
        to de-bias aggregate counts, the way TwitInfo calibrated its pie
        against a hand-labeled sample.
        """
        order = (POSITIVE, NEGATIVE, NEUTRAL)
        index = {label: i for i, label in enumerate(order)}
        counts = [[0.0] * 3 for _ in range(3)]
        for example in examples:
            predicted = self.classify(example.text)
            counts[index[example.label]][index[predicted]] += 1.0
        for row in counts:
            total = sum(row)
            if total == 0:
                row[:] = [1 / 3, 1 / 3, 1 / 3]
            else:
                row[:] = [value / total for value in row]
        return counts

    def evaluate(self, examples: Sequence[LabeledTweet]) -> dict[str, float]:
        """Accuracy plus per-class recall on labeled examples."""
        correct = 0
        per_class_total: Counter[int] = Counter()
        per_class_correct: Counter[int] = Counter()
        for example in examples:
            predicted = self.classify(example.text)
            per_class_total[example.label] += 1
            if predicted == example.label:
                correct += 1
                per_class_correct[example.label] += 1
        total = len(examples)
        return {
            "accuracy": correct / total if total else 0.0,
            "recall_positive": _ratio(per_class_correct[1], per_class_total[1]),
            "recall_negative": _ratio(per_class_correct[-1], per_class_total[-1]),
            "recall_neutral": _ratio(per_class_correct[0], per_class_total[0]),
        }


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


_default_cache: dict[tuple[int, int], SentimentClassifier] = {}


def train_default_classifier(
    corpus_size: int = 4000, seed: int | None = None
) -> SentimentClassifier:
    """Train (and memoize) the default classifier used by sessions."""
    from repro import rng as rng_mod

    actual_seed = rng_mod.DEFAULT_SEED if seed is None else seed
    key = (corpus_size, actual_seed)
    if key not in _default_cache:
        classifier = SentimentClassifier()
        classifier.train(training_corpus(size=corpus_size, seed=actual_seed))
        _default_cache[key] = classifier
    return _default_cache[key]
