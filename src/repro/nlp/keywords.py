"""Key-term extraction for peak labeling.

TwitInfo annotates each detected peak "with automatically-generated key
terms that appear frequently in tweets during the peak" — e.g. '3-0' and
'Tevez' for a goal. The standard formulation (and the one the TwitInfo
paper describes) is TF-IDF: a term scores highly when frequent *within the
peak* and rare in the event's background traffic.

:class:`KeywordExtractor` maintains background document frequencies
incrementally (streaming-friendly) and scores any window of tweets against
them.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence, Set as AbstractSet
from dataclasses import dataclass
from itertools import chain
import math

from repro.nlp.tokenize import content_tokens, token_docs


@dataclass(frozen=True)
class ScoredTerm:
    """One extracted term with its TF-IDF score."""

    term: str
    score: float
    frequency: int


class KeywordExtractor:
    """Incremental background model + windowed TF-IDF scoring.

    Feed every event tweet through :meth:`observe` as it arrives; call
    :meth:`extract` with the texts of a peak window to get its labels.
    A caller that already holds each tweet's :func:`content_tokens` uses
    :meth:`observe_tokens` / :meth:`extract_tokens`, and one holding each
    tweet's set of them uses :meth:`observe_term_sets`; the text-taking
    methods tokenize and call those.
    """

    def __init__(self) -> None:
        self._document_frequency: Counter[str] = Counter()
        self._documents = 0

    def observe(self, text: str) -> None:
        """Add one tweet to the background model."""
        self.observe_tokens(content_tokens(text))

    def observe_tokens(self, tokens: Iterable[str]) -> None:
        """Add one tweet, given as its content tokens."""
        self.observe_term_sets([set(tokens)])

    def observe_term_sets(self, term_sets: Sequence[AbstractSet[str]]) -> None:
        """Add one tweet per set, each given as its distinct content
        tokens: one counter update for the whole list."""
        self._documents += len(term_sets)
        self._document_frequency.update(chain.from_iterable(term_sets))

    def observe_all(self, texts: Iterable[str]) -> None:
        for text in texts:
            self.observe(text)

    @property
    def documents(self) -> int:
        """Background corpus size."""
        return self._documents

    def idf(self, term: str) -> float:
        """Smoothed inverse document frequency of ``term``."""
        df = self._document_frequency.get(term, 0)
        return math.log((self._documents + 1) / (df + 1)) + 1.0

    def extract(
        self,
        texts: Sequence[str],
        k: int = 5,
        min_frequency: int = 2,
    ) -> list[ScoredTerm]:
        """Top-``k`` TF-IDF terms for a window of tweets.

        Args:
            texts: tweet bodies inside the window (the peak).
            k: number of terms to return.
            min_frequency: drop terms appearing in fewer than this many
                window tweets (suppresses one-off noise).
        """
        return self.extract_tokens(token_docs(texts), k, min_frequency)

    def extract_tokens(
        self,
        docs: Iterable[Iterable[str]],
        k: int = 5,
        min_frequency: int = 2,
    ) -> list[ScoredTerm]:
        """:meth:`extract` over already-tokenized window tweets."""
        term_frequency: Counter[str] = Counter()
        for tokens in docs:
            term_frequency.update(set(tokens))
        scored = [
            ScoredTerm(
                term=term,
                score=frequency * self.idf(term),
                frequency=frequency,
            )
            for term, frequency in term_frequency.items()
            if frequency >= min_frequency
        ]
        scored.sort(key=lambda s: (-s.score, s.term))
        return scored[:k]
