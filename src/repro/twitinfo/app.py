"""The TwitInfo application.

Glues the panels to the TweeQL stream processor exactly the way Section 3
describes: an event definition becomes a keyword TweeQL query; matching
tweets are logged; the timeline, peak detector, labeler, sentiment counts,
link aggregator, and map fill in as tweets stream through; and
:meth:`TwitInfoApp.dashboard` assembles the Figure-1 interface for the
whole event or for one selected peak (the timeline-as-filter drill-down).
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from repro.engine.session import TweeQL
from repro.fidelity.coverage import CoverageEstimate
from repro.nlp.sentiment import SentimentClassifier
from repro.nlp.tokenize import content_filter, tokenize
from repro.storage.tweetlog import MemoryTweetLog
from repro.twitinfo.dashboard import Dashboard
from repro.twitinfo.event import EventDefinition, PeakAnnotation
from repro.twitinfo.labels import PeakLabeler
from repro.twitinfo.links import LinkAggregator
from repro.twitinfo.mapview import MapMarker, MapView
from repro.twitinfo.peaks import Peak, PeakDetector, PeakDetectorParams
from repro.twitinfo.relevance import RelevantTweet, relevant_from_tokens
from repro.twitinfo.sentiment_view import SentimentSummary
from repro.twitinfo.timeline import Timeline
from repro.twitter.models import Tweet


def _connection_coverage(connections: object) -> CoverageEstimate | None:
    """Coverage estimate from a run's stream connections, if it had any.

    ``delivered / matched`` over every connection the query opened: the
    fraction of filter-matching tweets the (possibly lossy, possibly
    disconnect-ridden) stream actually handed the application.
    """
    stats = [connection.stats for connection in connections]  # type: ignore[attr-defined]
    if not stats:
        return None
    return CoverageEstimate.from_counts(
        observed=sum(s.delivered for s in stats),
        eligible=sum(s.matched for s in stats),
    )


def _chunks(
    handle, limit: int | None = None, every: int | None = None
) -> Iterator[list[Tweet]]:
    """``handle``'s tweets a batch at a time, each batch cut so that no
    list crosses a multiple of ``every`` tweets, ending with the tweet
    that reaches ``limit`` (at least one tweet is taken)."""
    cap = None if limit is None else max(limit, 1)
    seen = 0
    for tweets in handle.tweets():
        start, n = 0, len(tweets)
        while start < n:
            stop = n
            if cap is not None:
                stop = min(stop, start + cap - seen)
            if every is not None:
                stop = min(stop, start + every - seen % every)
            yield tweets if start == 0 and stop == n else tweets[start:stop]
            seen += stop - start
            if seen == cap:
                return
            start = stop


@dataclass
class LiveSnapshot:
    """One update from :meth:`TwitInfoApp.monitor`."""

    stream_time: float
    tweets_seen: int
    new_peaks: list[PeakAnnotation]
    total_peaks: int
    final: bool = False


@dataclass
class EventReport:
    """Summary numbers for one tracked event."""

    name: str
    tweets_logged: int
    peaks: int
    positive: int
    negative: int
    neutral: int
    distinct_links: int
    geotagged: int

    def as_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "tweets_logged": self.tweets_logged,
            "peaks": self.peaks,
            "positive": self.positive,
            "negative": self.negative,
            "neutral": self.neutral,
            "distinct_links": self.distinct_links,
            "geotagged": self.geotagged,
        }


class TextMemo:
    """One drain's derivations: text → (sentiment label, content-token
    tuple, term set).

    Each distinct text is tokenized once, classified with ``classifier``
    and content-filtered; equal token tuples are one object. A drain keeps
    one memo for its own call, so nothing outlives it and a retrained
    classifier is seen by the next drain.
    """

    def __init__(self, classifier: SentimentClassifier) -> None:
        self._classify = classifier.classify_tokens
        self._memo: dict[
            str, tuple[int, tuple[str, ...], frozenset[str]]
        ] = {}
        self._interned: dict[tuple[str, ...], tuple[str, ...]] = {}

    def derive(
        self, tweets: list[Tweet]
    ) -> tuple[list[int], list[tuple[str, ...]], list[frozenset[str]]]:
        """(labels, token tuples, term sets) of ``tweets``, in order."""
        memo = self._memo
        texts = [tweet.text for tweet in tweets]
        for text in [t for t in dict.fromkeys(texts) if t not in memo]:
            raw = tokenize(text, keep_emoticons=False)
            label = self._classify(text, raw)
            tokens = tuple(content_filter(raw))
            tokens = self._interned.setdefault(tokens, tokens)
            memo[text] = (label, tokens, frozenset(tokens))
        entries = list(map(memo.__getitem__, texts))
        return (
            [entry[0] for entry in entries],
            [entry[1] for entry in entries],
            [entry[2] for entry in entries],
        )


class TrackedEvent:
    """One event being tracked: the log plus every live panel's state."""

    def __init__(
        self,
        definition: EventDefinition,
        detector_params: PeakDetectorParams | None = None,
    ) -> None:
        self.definition = definition
        self.log = MemoryTweetLog()
        self.timeline = Timeline(bin_seconds=definition.bin_seconds)
        self.labeler = PeakLabeler(definition)
        self.sentiments: dict[int, int] = {}  # tweet_id → label
        #: tweet_id → the tweet's content tokens, filled once as the tweet
        #: is ingested; peak labels, Relevant Tweets and the fidelity
        #: digest read these instead of tokenizing the log again. Equal
        #: tuples are one object (a drain's :class:`TextMemo`, or
        #: ``_interned`` for :meth:`ingest`), so the cache costs one tuple
        #: per distinct text.
        self.tokens: dict[int, tuple[str, ...]] = {}
        self._interned: dict[tuple[str, ...], tuple[str, ...]] = {}
        self.links = LinkAggregator()
        self.map = MapView()
        self.detector = PeakDetector(
            params=detector_params or PeakDetectorParams(),
            bin_seconds=definition.bin_seconds,
        )
        self.peaks: list[PeakAnnotation] = []
        #: Stream-coverage estimate for this event's query, set after the
        #: query drains (delivered vs. matched on its stream connection).
        #: None while running, or when the run path exposes no connection.
        self.coverage: CoverageEstimate | None = None
        self._raw_peaks: list[Peak] = []
        self._fed_to_index: int | None = None
        self._annotated_labels: set[str] = set()

    def ingest(self, tweet: Tweet, sentiment: int) -> None:
        """Process one matching tweet, already labeled ``sentiment``,
        through every panel."""
        tokens = tuple(
            content_filter(tokenize(tweet.text, keep_emoticons=False))
        )
        tokens = self._interned.setdefault(tokens, tokens)
        self._update([tweet], [sentiment], [tokens], [frozenset(tokens)])

    def ingest_batch(self, tweets: list[Tweet], memo: TextMemo) -> None:
        """Label a list of matching tweets through ``memo`` and process
        them through every panel, in order."""
        self._update(tweets, *memo.derive(tweets))

    def _update(
        self,
        tweets: list[Tweet],
        sentiments: Sequence[int],
        tokens: Sequence[tuple[str, ...]],
        term_sets: Sequence[frozenset[str]],
    ) -> None:
        """The panel updates: each tweet's sentiment label, content tokens
        and their set, per tweet in ``tweets``' order."""
        self.log.extend(tweets)
        self.timeline.add_all([tweet.created_at for tweet in tweets])
        ids = [tweet.tweet_id for tweet in tweets]
        self.tokens.update(zip(ids, tokens))
        self.sentiments.update(zip(ids, sentiments))
        self.labeler.extractor.observe_term_sets(term_sets)
        links = self.links
        for tweet, sentiment in zip(tweets, sentiments):
            assert tweet.entities is not None
            for url in tweet.entities.urls:
                links.add(url, tweet.created_at)
            if tweet.geo is not None:
                self.map.add(
                    MapMarker(
                        lat=tweet.geo[0],
                        lon=tweet.geo[1],
                        sentiment=sentiment,
                        timestamp=tweet.created_at,
                        text=tweet.text,
                    )
                )

    # -- live (incremental) peak detection ------------------------------------

    def feed_closed_bins(self, upto_time: float) -> list[PeakAnnotation]:
        """Feed every timeline bin that closed before ``upto_time`` to the
        live detector; returns annotations for peaks that closed.

        This is the "monitor the event in realtime" path (§3.2): the
        detector state advances as stream time does, and a peak becomes
        visible (flag + key terms) as soon as its window ends.
        """
        bin_seconds = self.definition.bin_seconds
        if math.isinf(upto_time):
            last_full = max(self.timeline._counts, default=0)
        else:
            last_full = math.floor(upto_time / bin_seconds) - 1
        if self._fed_to_index is None:
            if not self.timeline._counts:
                return []
            self._fed_to_index = min(self.timeline._counts) - 1
        newly_closed: list[PeakAnnotation] = []
        counts = self.timeline._counts
        index = self._fed_to_index + 1
        while index <= last_full:
            self.detector.update(
                self.timeline.bin_start(index), float(counts.get(index, 0))
            )
            index += 1
        self._fed_to_index = max(self._fed_to_index, last_full)
        for peak in self.detector.peaks:
            if peak.closed and peak.label not in self._annotated_labels:
                annotation = self._annotate(peak)
                self._annotated_labels.add(peak.label)
                self.peaks.append(annotation)
                newly_closed.append(annotation)
        return newly_closed

    def _annotate(self, peak: Peak) -> PeakAnnotation:
        """Label a peak from the cached tokens of the tweets in its window."""
        tokens = self.tokens
        return self.labeler.annotate_tokens(
            peak,
            [tokens[t.tweet_id] for t in self.log.scan(peak.start, peak.end)],
        )

    def finish_live(self) -> list[PeakAnnotation]:
        """Close out the live detector at end of stream."""
        closed = self.feed_closed_bins(float("inf"))
        self.detector.finish()
        return closed + self.feed_closed_bins(float("inf"))

    def detect_peaks(self) -> list[PeakAnnotation]:
        """Run (batch) peak detection over the timeline and label each peak.

        Replaces any annotations accumulated by the live path — the batch
        detector sees the complete gap-filled timeline, which is the
        authoritative view once the event is over.
        """
        detector = PeakDetector(
            params=self.detector.params, bin_seconds=self.definition.bin_seconds
        )
        raw = detector.run(self.timeline.bins())
        self._raw_peaks = raw
        annotated = [self._annotate(peak) for peak in raw]
        self.peaks = annotated
        self._annotated_labels = {p.label for p in annotated}
        return annotated

    def sentiment_summary(
        self, start: float | None = None, end: float | None = None
    ) -> SentimentSummary:
        """Pie-chart counts for the event or a timeframe."""
        summary = SentimentSummary()
        for tweet in self.log.scan(start, end):
            summary.add(self.sentiments[tweet.tweet_id])
        return summary

    def relevant(
        self,
        start: float | None = None,
        end: float | None = None,
        extra_terms: tuple[str, ...] = (),
        limit: int = 10,
    ) -> list[RelevantTweet]:
        """The Relevant Tweets panel for a timeframe."""
        tweets = list(self.log.scan(start, end))
        keywords = tuple(self.definition.keywords) + extra_terms
        return relevant_from_tokens(
            tweets,
            [self.tokens[t.tweet_id] for t in tweets],
            keywords,
            [self.sentiments[t.tweet_id] for t in tweets],
            extractor=self.labeler.extractor,
            limit=limit,
        )

    def search_peaks(self, needle: str) -> list[PeakAnnotation]:
        """Text search over peak key terms (§3.2's peak search)."""
        return [p for p in self.peaks if p.matches_search(needle)]

    def report(self) -> EventReport:
        """Headline numbers for the event."""
        summary = self.sentiment_summary()
        return EventReport(
            name=self.definition.name,
            tweets_logged=len(self.log),
            peaks=len(self.peaks),
            positive=summary.positive,
            negative=summary.negative,
            neutral=summary.neutral,
            distinct_links=self.links.distinct,
            geotagged=len(self.map),
        )


class TwitInfoApp:
    """The TwitInfo web application, minus the browser.

    Args:
        session: the TweeQL session whose ``twitter`` source the events
            will track.
    """

    def __init__(self, session: TweeQL) -> None:
        self.session = session
        self.events: dict[str, TrackedEvent] = {}
        #: Shared-scan groups this app has opened (``shared_scan`` mode /
        #: :meth:`track_many`); ``/metrics`` absorbs each as ``shared.<i>``.
        self.shared_groups: list = []

    def create_event(
        self,
        name: str,
        keywords: tuple[str, ...] | list[str],
        start: float | None = None,
        end: float | None = None,
        bin_seconds: float = 60.0,
        detector_params: PeakDetectorParams | None = None,
    ) -> TrackedEvent:
        """Define an event and begin logging (§3.1)."""
        definition = EventDefinition(
            name=name,
            keywords=tuple(keywords),
            start=start,
            end=end,
            bin_seconds=bin_seconds,
        )
        tracked = TrackedEvent(definition, detector_params=detector_params)
        self.events[name] = tracked
        return tracked

    def run_event(self, tracked: TrackedEvent, limit: int | None = None) -> EventReport:
        """Drain the event's TweeQL query and build every panel.

        The query is exactly ``definition.to_tweeql()`` — keyword filters
        OR-ed for the API's ``track`` endpoint, window bounds applied
        locally. Sentiment uses the session's classifier (the same one the
        ``sentiment()`` UDF calls). With ``EngineConfig.shared_scan`` the
        query runs as the sole tenant of a shared-scan group instead of
        opening its own filtered connection.
        """
        return self.run_events([tracked], limit=limit)[0]

    def run_events(
        self,
        tracked_list: list[TrackedEvent],
        limit: int | None = None,
        shared: bool | None = None,
    ) -> list[EventReport]:
        """Run several events' queries; one shared scan when ``shared``.

        ``shared=None`` follows ``EngineConfig.shared_scan``. In shared
        mode every event's query is admitted as a tenant of one
        :class:`~repro.engine.multitenant.SharedScanGroup` — one Firehose
        connection and one scan for the whole batch of events, rather than
        one filtered connection each (the 2011 API would have run out of
        connections at 4 events). Panels are row-for-row identical either
        way under lossless delivery.
        """
        if shared is None:
            shared = getattr(self.session.config, "shared_scan", False)
        memo = TextMemo(self.session.classifier)

        def ingest(tracked: TrackedEvent, handle) -> None:
            for tweets in _chunks(handle, limit):
                tracked.ingest_batch(tweets, memo)
            handle.close()

        if shared and tracked_list:
            group = self.session.shared()
            self.shared_groups.append(group)
            handles = [
                group.query(t.definition.to_tweeql()) for t in tracked_list
            ]
            try:
                for tracked, handle in zip(tracked_list, handles):
                    ingest(tracked, handle)
            finally:
                group.close()
            # All tenants ride the one shared connection, so they share its
            # delivery accounting (and therefore its coverage estimate).
            shared_coverage = _connection_coverage(group.connections)
            for tracked in tracked_list:
                tracked.coverage = shared_coverage
        else:
            for tracked in tracked_list:
                handle = self.session.query(tracked.definition.to_tweeql())
                ingest(tracked, handle)
                tracked.coverage = _connection_coverage(
                    getattr(handle, "connections", ())
                )
        reports = []
        for tracked in tracked_list:
            tracked.detect_peaks()
            reports.append(tracked.report())
        self._persist_health(tracked_list)
        return reports

    def _persist_health(self, tracked_list: list[TrackedEvent]) -> None:
        """Archive a metrics snapshot per event into the historical store.

        With ``EngineConfig.storage_path`` set, each completed event run
        stores the app's flat metrics registry keyed by the event's
        virtual-time window (its definition bounds, falling back to the
        observed timeline span), so the dashboard can chart engine health
        over an event's life (``/health.json``).
        """
        store = getattr(self.session, "store", None)
        if store is None or not tracked_list:
            return
        from repro.obs.metrics import app_metrics

        flat = app_metrics(self).flat()
        for tracked in tracked_list:
            definition = tracked.definition
            window_start = definition.start
            window_end = definition.end
            bounds = tracked.timeline.bounds()
            if window_start is None:
                window_start = (
                    bounds[0] if bounds is not None else self.session.clock.now
                )
            if window_end is None:
                window_end = (
                    bounds[1] if bounds is not None else self.session.clock.now
                )
            store.record_metrics(
                window_start, window_end, flat, label=definition.name
            )

    def track(
        self,
        name: str,
        keywords: tuple[str, ...] | list[str],
        start: float | None = None,
        end: float | None = None,
        bin_seconds: float = 60.0,
        detector_params: PeakDetectorParams | None = None,
    ) -> TrackedEvent:
        """create_event + run_event in one call (the common path)."""
        tracked = self.create_event(
            name, keywords, start=start, end=end, bin_seconds=bin_seconds,
            detector_params=detector_params,
        )
        self.run_event(tracked)
        return tracked

    def track_many(
        self,
        events: dict[str, tuple[str, ...] | list[str]],
        start: float | None = None,
        end: float | None = None,
        bin_seconds: float = 60.0,
        detector_params: PeakDetectorParams | None = None,
    ) -> list[TrackedEvent]:
        """Track N events on **one** shared scan (name → keywords).

        The multi-tenant counterpart of :meth:`track`: every event is
        admitted onto a single shared-scan group, so the whole dashboard
        costs one stream connection and one pass over the firehose no
        matter how many events it tracks.
        """
        tracked_list = [
            self.create_event(
                name, keywords, start=start, end=end,
                bin_seconds=bin_seconds, detector_params=detector_params,
            )
            for name, keywords in events.items()
        ]
        self.run_events(tracked_list, shared=True)
        return tracked_list

    def monitor(
        self,
        tracked: TrackedEvent,
        snapshot_every: int = 500,
        limit: int | None = None,
    ):
        """Track an event *live*: yields :class:`LiveSnapshot` updates.

        Runs the event's TweeQL query incrementally; every
        ``snapshot_every`` ingested tweets, closed timeline bins are fed to
        the streaming detector, and a snapshot reports any peaks whose
        windows just ended (flag + key terms, available while the event is
        still running — §3.2's realtime monitoring). A final snapshot
        flushes the detector at end of stream.
        """
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be at least 1")
        memo = TextMemo(self.session.classifier)
        handle = self.session.query(tracked.definition.to_tweeql())
        seen = 0
        try:
            for tweets in _chunks(handle, limit, snapshot_every):
                tracked.ingest_batch(tweets, memo)
                seen += len(tweets)
                if seen % snapshot_every == 0:
                    stream_time = tweets[-1].created_at
                    new_peaks = tracked.feed_closed_bins(stream_time)
                    yield LiveSnapshot(
                        stream_time=stream_time,
                        tweets_seen=seen,
                        new_peaks=new_peaks,
                        total_peaks=len(tracked.peaks),
                    )
        finally:
            handle.close()
        tracked.coverage = _connection_coverage(
            getattr(handle, "connections", ())
        )
        final_peaks = tracked.finish_live()
        yield LiveSnapshot(
            stream_time=self.session.clock.now,
            tweets_seen=seen,
            new_peaks=final_peaks,
            total_peaks=len(tracked.peaks),
            final=True,
        )

    # -- persistence -------------------------------------------------------------

    def save_event(self, tracked: TrackedEvent, path: str) -> None:
        """Persist an event (definition + logged tweets) to a SQLite file."""
        from repro.storage.tweetlog import SqliteTweetLog

        with SqliteTweetLog(path) as db:
            db.set_meta(
                "event",
                {
                    "name": tracked.definition.name,
                    "keywords": list(tracked.definition.keywords),
                    "start": tracked.definition.start,
                    "end": tracked.definition.end,
                    "bin_seconds": tracked.definition.bin_seconds,
                },
            )
            db.extend(list(tracked.log.scan()))

    def load_event(self, path: str) -> TrackedEvent:
        """Rebuild a tracked event saved by :meth:`save_event`.

        Tweets are re-ingested through the panels (sentiment re-classified
        with the session's classifier) and peaks re-detected, so a loaded
        event behaves identically to a freshly tracked one.
        """
        from repro.storage.tweetlog import SqliteTweetLog

        with SqliteTweetLog(path) as db:
            meta = db.get_meta("event")
            if meta is None:
                raise KeyError(f"{path!r} holds no saved event")
            definition = EventDefinition(
                name=meta["name"],
                keywords=tuple(meta["keywords"]),
                start=meta["start"],
                end=meta["end"],
                bin_seconds=meta["bin_seconds"],
            )
            tracked = TrackedEvent(definition)
            tracked.ingest_batch(
                list(db.scan()), TextMemo(self.session.classifier)
            )
        tracked.detect_peaks()
        self.events[definition.name] = tracked
        return tracked

    def dashboard(
        self, tracked: TrackedEvent, peak_label: str | None = None
    ) -> Dashboard:
        """Assemble the Figure-1 dashboard.

        With ``peak_label``, every panel is filtered to that peak's window
        — "when the user clicks on a peak, the other interface elements …
        refresh to show only tweets in the time period of that peak."
        """
        start = tracked.definition.start
        end = tracked.definition.end
        selected: PeakAnnotation | None = None
        extra_terms: tuple[str, ...] = ()
        if peak_label is not None:
            selected = next(
                (p for p in tracked.peaks if p.label == peak_label), None
            )
            if selected is None:
                raise KeyError(
                    f"no peak {peak_label!r} in event {tracked.definition.name!r}"
                )
            start, end = selected.start, selected.end
            extra_terms = selected.terms
        return self._assemble(tracked, start, end, selected, extra_terms)

    def dashboard_range(
        self, tracked: TrackedEvent, start: float, end: float
    ) -> Dashboard:
        """Every panel filtered to an arbitrary [start, end) time range —
        the generalization of peak drill-down (drag-select on the
        timeline)."""
        if end <= start:
            raise ValueError("range end must be after start")
        return self._assemble(tracked, start, end, selected=None, extra_terms=())

    def _assemble(
        self,
        tracked: TrackedEvent,
        start: float | None,
        end: float | None,
        selected: PeakAnnotation | None,
        extra_terms: tuple[str, ...],
    ) -> Dashboard:
        summary = tracked.sentiment_summary(start, end)
        return Dashboard(
            event_name=tracked.definition.name,
            keywords=tracked.definition.keywords,
            window=(start, end),
            selected_peak=selected,
            timeline=tracked.timeline,
            peaks=list(tracked.peaks),
            relevant=tracked.relevant(start, end, extra_terms=extra_terms),
            sentiment=summary,
            links=tracked.links.top(3, start, end),
            markers=tracked.map.markers(start, end),
            coverage=tracked.coverage,
        )
