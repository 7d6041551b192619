"""Automatic peak labeling.

Section 3.2: peaks "appear to the right of the timeline along with
automatically-generated key terms that appear frequently in tweets during
the peak. For example … TwitInfo automatically tags one of the goals … and
annotates it … with representative terms in the tweets like '3-0' (the new
score) and 'Tevez' (the soccer player who scored)."

The labeler scores terms inside the peak window by TF-IDF against the
event's background traffic (see :mod:`repro.nlp.keywords`), additionally
suppressing the event's own tracked keywords — "soccer" is frequent in
every window of a soccer event and tells the user nothing about *this*
peak.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.nlp.keywords import KeywordExtractor, ScoredTerm
from repro.nlp.tokenize import token_docs
from repro.twitinfo.event import EventDefinition, PeakAnnotation
from repro.twitinfo.peaks import Peak


class PeakLabeler:
    """Maintains the event's background model and labels peaks.

    Feed every event tweet through :meth:`observe` (or, holding its
    content tokens, through :attr:`extractor`); call :meth:`annotate`
    with a peak and the texts inside its window. The ``*_tokens`` methods
    take each tweet's content tokens instead of its text (what
    :class:`~repro.twitinfo.app.TrackedEvent` caches); the text-taking
    ones tokenize and call them.
    """

    def __init__(self, event: EventDefinition, terms_per_peak: int = 5) -> None:
        self._event = event
        self._extractor = KeywordExtractor()
        self._terms_per_peak = terms_per_peak
        self._suppressed = {k.lower() for k in event.keywords}

    @property
    def extractor(self) -> KeywordExtractor:
        """The underlying background model (shared with relevance ranking)."""
        return self._extractor

    def observe(self, text: str) -> None:
        """Add one event tweet to the background model."""
        self._extractor.observe(text)

    def observe_all(self, texts: Iterable[str]) -> None:
        self._extractor.observe_all(texts)

    def key_terms(self, texts: Sequence[str]) -> list[ScoredTerm]:
        """Top TF-IDF terms for a window, minus the tracked keywords."""
        return self.key_terms_tokens(token_docs(texts))

    def key_terms_tokens(
        self, docs: Iterable[Iterable[str]]
    ) -> list[ScoredTerm]:
        """:meth:`key_terms` over already-tokenized window tweets."""
        scored = self._extractor.extract_tokens(
            docs, k=self._terms_per_peak + len(self._suppressed)
        )
        filtered = [
            term for term in scored if term.term not in self._suppressed
        ]
        return filtered[: self._terms_per_peak]

    def annotate(self, peak: Peak, texts: Sequence[str]) -> PeakAnnotation:
        """Build the flagged, labeled peak for the interface."""
        return self.annotate_tokens(peak, token_docs(texts))

    def annotate_tokens(
        self, peak: Peak, docs: Iterable[Iterable[str]]
    ) -> PeakAnnotation:
        """:meth:`annotate` over already-tokenized window tweets."""
        terms = tuple(term.term for term in self.key_terms_tokens(docs))
        return PeakAnnotation(
            label=peak.label,
            start=peak.start,
            end=peak.end,
            apex_time=peak.apex_time,
            apex_count=peak.apex_count,
            terms=terms,
        )
