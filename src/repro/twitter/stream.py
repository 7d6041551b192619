"""The simulated firehose and streaming API.

Reproduces the surface of Twitter's 2011 streaming API that TweeQL consumed
(`statuses/filter` and `statuses/sample`):

- a connection carries **exactly one filter type** — keyword ``track``,
  geographic ``locations``, or userid ``follow``. The paper's "Uncertain
  Selectivities" section exists precisely because of this restriction: a
  query with both a keyword and a location predicate must choose which one
  the API applies, and apply the other locally.
- filtered streams deliver *most* matching tweets (the real API was lossy
  at high volume); the default delivery ratio is configurable.
- ``sample()`` returns a small uniform sample of the whole firehose, which
  is how TweeQL estimates the selectivity of candidate filters.
- connections are limited and metered, like the real API.

The firehose itself is a time-ordered sequence of tweets from one or more
:class:`~repro.twitter.workloads.Scenario` generators.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from itertools import chain, islice
from operator import attrgetter, length_hint
from typing import Any

from repro import rng as rng_mod
from repro.clock import VirtualClock
from repro.errors import StreamError
from repro.geo.bbox import BoundingBox
from repro.twitter.models import Tweet
from repro.twitter.workloads import Scenario

_created_at = attrgetter("created_at")

class Firehose:
    """The full simulated tweet stream, in timestamp order."""

    def __init__(self, tweets: list[Tweet]) -> None:
        self._tweets = tweets

    @classmethod
    def from_scenarios(cls, *scenarios: Scenario) -> "Firehose":
        """Merge several scenarios into one firehose.

        Tweets are merged by timestamp and re-assigned globally unique,
        increasing ids (preserving their other fields; ground truth stays
        on each scenario, under that scenario's ids). A tweet whose id
        already equals its merged position is kept as is — tweets are
        frozen, so sessions built over the same scenario share one copy
        of the stream instead of one each.
        """
        merged = heapq.merge(
            *(s.tweets for s in scenarios), key=lambda t: t.created_at
        )
        tweets = [
            tweet
            if tweet.tweet_id == index
            else replace(tweet, tweet_id=index)
            for index, tweet in enumerate(merged, start=1)
        ]
        return cls(tweets)

    @property
    def tweets(self) -> list[Tweet]:
        """All tweets in timestamp order."""
        return self._tweets

    def __len__(self) -> int:
        return len(self._tweets)

    def __iter__(self) -> Iterator[Tweet]:
        return iter(self._tweets)

    @property
    def span(self) -> tuple[float, float]:
        """(first, last) tweet timestamps; (0, 0) when empty."""
        if not self._tweets:
            return (0.0, 0.0)
        return (self._tweets[0].created_at, self._tweets[-1].created_at)


@dataclass
class ConnectionStats:
    """Delivery accounting for one streaming connection.

    ``reconnects`` counts automatic reconnections after an injected
    disconnect; ``gap_tweets`` counts deliverable tweets that fell inside
    disconnect windows — recovered via cursor resume when the connection
    auto-reconnects, lost (and also counted in ``dropped``) when it does
    not.
    """

    scanned: int = 0
    matched: int = 0
    delivered: int = 0
    dropped: int = 0
    reconnects: int = 0
    gap_tweets: int = 0

    @property
    def selectivity(self) -> float:
        """Fraction of firehose tweets that matched this filter."""
        return self.matched / self.scanned if self.scanned else 0.0


class StreamConnection:
    """One long-running filtered stream request.

    :meth:`chunks` is the delivery loop: it yields the matching tweets in
    timestamp order, a list at a time, and a connection opened with a
    clock advances it to the newest tweet of each list before yielding
    the list (stream time drives query time). Iterating the connection is
    the per-tweet view of ``chunks(1)``. ``predicate`` is the server-side
    filter; None is the unfiltered firehose.

    ``drops`` is a fault schedule (see
    :class:`~repro.engine.resilience.StreamDrop`): the connection
    disconnects after delivering ``after_delivered`` tweets, and the next
    ``gap`` deliverable tweets fall inside the disconnect window. With
    ``auto_reconnect`` the connection resumes from its firehose cursor, so
    the gap tweets are still delivered — counted in
    ``stats.gap_tweets`` as recovered. Without it, they are lost
    (``stats.dropped`` too), the way a client that blindly reopened the
    2011 stream lost whatever passed while it was down.
    """

    def __init__(
        self,
        tweets: Iterable[Tweet],
        predicate,
        delivery_ratio: float,
        seed: int,
        clock: VirtualClock | None,
        description: str,
        drops: tuple = (),
        auto_reconnect: bool = True,
        tap=None,
    ) -> None:
        # The delivery loop reads a list through one iterator, whose
        # length hint says how far a C-level filter scanned.
        self._tweets = tweets if isinstance(tweets, list) else list(tweets)
        self._predicate = predicate
        self._delivery_ratio = delivery_ratio
        self._rng = rng_mod.derive(seed, f"connection:{description}")
        self._clock = clock
        #: Archival hook fed every delivered tweet (None: no archiving).
        self._tap = tap
        self.description = description
        self._drops = sorted(drops, key=lambda d: d.after_delivered)
        self._auto_reconnect = auto_reconnect
        # Fault-schedule cursor: index of the next pending drop, plus how
        # many deliverable tweets of the current gap remain.
        self._next_drop = 0
        self._gap_remaining = 0
        self.stats = ConnectionStats()
        self._closed = False
        #: Span recorder (set by the planner at open time when tracing is
        #: on); each auto-reconnect becomes one instant ``reconnect`` span.
        self.tracer = None

    def __iter__(self) -> Iterator[Tweet]:
        return chain.from_iterable(self.chunks(1))

    def chunks(self, size: int) -> Iterator[list[Tweet]]:
        """Delivered tweets, ``size`` to a list, then one shorter list
        (possibly empty) when the stream ends or the connection closes.

        Each list holds exactly what ``size`` pulls of a per-tweet loop
        would deliver, and the firehose is read no further than the
        list's last tweet, so the counters, delivery draws, tap calls and
        reconnects agree with that loop at every list boundary. While no
        stream drop can fall inside the next list — always, on a
        connection without a fault schedule — the predicate runs over the
        firehose in one ``filter`` call, a lossy connection draws only
        for the matches, the counters move once and the clock advances
        once, to the list's newest tweet; otherwise the list is filled
        tweet by tweet.
        """
        if size < 1:
            raise ValueError("size must be positive")
        source = iter(self._tweets)
        stats = self.stats
        predicate = self._predicate
        tap = self._tap
        clock = self._clock
        drops = self._drops
        lossy = self._delivery_ratio < 1.0
        try:
            while True:
                if self._closed:
                    chunk: list[Tweet] = []
                elif not self._gap_remaining and (
                    self._next_drop == len(drops)
                    or stats.delivered + size
                    <= drops[self._next_drop].after_delivered
                ):
                    if predicate is None:
                        matches = source
                    else:
                        before = length_hint(source)
                        matches = filter(predicate, source)
                    if lossy:
                        chunk, matched = self._draw(matches, size)
                        stats.dropped += matched - len(chunk)
                    else:
                        chunk = list(islice(matches, size))
                        matched = len(chunk)
                    stats.scanned += (
                        matched if predicate is None
                        else before - length_hint(source)
                    )
                    stats.matched += matched
                    stats.delivered += len(chunk)
                    if tap is not None:
                        for tweet in chunk:
                            tap(tweet)
                    if clock is not None and chunk:
                        # max() alone costs the per-tweet view a third of
                        # its time; a one-tweet list needs no comparison.
                        newest = (
                            max(map(_created_at, chunk))
                            if len(chunk) > 1
                            else chunk[0].created_at
                        )
                        if newest > clock.now:
                            clock.advance_to(newest)
                else:
                    chunk = self._walk(source, size)
                yield chunk
                if len(chunk) < size:
                    return
        finally:
            # A drained (or abandoned) connection releases its slot; real
            # streams end when the server hangs up, not only on client
            # close.
            self.close()

    def _draw(
        self, matches: Iterator[Tweet], size: int
    ) -> tuple[list[Tweet], int]:
        """Up to ``size`` deliveries out of ``matches``, one delivery draw
        per match; returns them with the number of matches read."""
        random = self._rng.random
        ratio = self._delivery_ratio
        chunk: list[Tweet] = []
        matched = 0
        for tweet in matches:
            matched += 1
            if random() <= ratio:
                chunk.append(tweet)
                if len(chunk) == size:
                    break
        return chunk, matched

    def _walk(self, source: Iterator[Tweet], size: int) -> list[Tweet]:
        """Up to ``size`` deliveries, tweet by tweet: the delivery draw,
        the fault-schedule cursor, the tap and the clock per tweet (a list
        a scheduled stream drop may fall inside)."""
        stats = self.stats
        predicate = self._predicate
        drops = self._drops
        chunk: list[Tweet] = []
        for tweet in source:
            if self._closed:
                break
            stats.scanned += 1
            if predicate is not None and not predicate(tweet):
                continue
            stats.matched += 1
            if (
                self._delivery_ratio < 1.0
                and self._rng.random() > self._delivery_ratio
            ):
                stats.dropped += 1
                continue
            while (
                self._next_drop < len(drops)
                and stats.delivered >= drops[self._next_drop].after_delivered
            ):
                drop = drops[self._next_drop]
                self._gap_remaining += drop.gap
                self._next_drop += 1
                if self._auto_reconnect:
                    stats.reconnects += 1
                    if self.tracer is not None:
                        self.tracer.instant(
                            f"reconnect({self.description})",
                            "reconnect",
                            lane="stream",
                            delivered=stats.delivered,
                            gap=drop.gap,
                        )
            if self._gap_remaining > 0:
                self._gap_remaining -= 1
                stats.gap_tweets += 1
                if not self._auto_reconnect:
                    # Disconnected and no backfill: the tweet is gone.
                    stats.dropped += 1
                    continue
                # Reconnected from the cursor: the tweet is recovered and
                # delivered below like any other.
            stats.delivered += 1
            if self._tap is not None:
                self._tap(tweet)
            if self._clock is not None and tweet.created_at > self._clock.now:
                self._clock.advance_to(tweet.created_at)
            chunk.append(tweet)
            if len(chunk) == size:
                break
        return chunk

    def close(self) -> None:
        """Terminate the connection; iteration stops at the next tweet."""
        self._closed = True


class StreamingAPI:
    """Façade over the firehose with the 2011 filter semantics.

    Args:
        firehose: the underlying tweet stream.
        clock: optional shared virtual clock, advanced as tweets arrive.
        delivery_ratio: fraction of matching tweets actually delivered on
            filtered connections ("most tweets"). ``sample()`` is lossless
            at its sampling rate.
        max_connections: concurrent connection budget (the real API allowed
            very few per account).
        seed: RNG seed for loss and sampling draws.
        fault_plan: optional
            :class:`~repro.engine.resilience.FaultPlan` whose
            ``stream_drops`` schedule disconnects on every connection this
            API opens.
        auto_reconnect: resume dropped connections from their firehose
            cursor (gap tweets recovered and counted); False loses the gap
            tweets instead.
    """

    def __init__(
        self,
        firehose: Firehose,
        clock: VirtualClock | None = None,
        delivery_ratio: float = 0.98,
        max_connections: int = 4,
        seed: int = rng_mod.DEFAULT_SEED,
        sample_budget: int | None = None,
        fault_plan: Any = None,
        auto_reconnect: bool = True,
    ) -> None:
        if not 0.0 < delivery_ratio <= 1.0:
            raise ValueError("delivery_ratio must be in (0, 1]")
        if sample_budget is not None and sample_budget < 0:
            raise ValueError("sample_budget must be non-negative")
        self._firehose = firehose
        self._clock = clock
        self._delivery_ratio = delivery_ratio
        self._max_connections = max_connections
        self._seed = seed
        self._open_connections = 0
        self._connection_serial = 0
        self._sample_budget = sample_budget
        self._samples_used = 0
        self._sample_serial = 0
        self._drops = tuple(fault_plan.stream_drops) if fault_plan else ()
        self._auto_reconnect = auto_reconnect
        #: Optional archival hook: called with every *delivered* tweet on
        #: every connection this API opens (the historical tier's
        #: ``StorageWriter.write``). None keeps the live path untouched.
        self.tap = None

    @property
    def firehose(self) -> Firehose:
        """The backing firehose (visible to tests, not to queries)."""
        return self._firehose

    @property
    def open_connections(self) -> int:
        """Number of currently open connections."""
        return self._open_connections

    @property
    def delivery_ratio(self) -> float:
        """Fraction of matching tweets filtered connections deliver."""
        return self._delivery_ratio

    def _connect(self, predicate, description: str) -> StreamConnection:
        if self._open_connections >= self._max_connections:
            raise StreamError(
                f"connection limit reached ({self._max_connections}); "
                "close an existing stream first"
            )
        self._open_connections += 1
        self._connection_serial += 1
        connection = StreamConnection(
            self._firehose.tweets,
            predicate,
            self._delivery_ratio,
            seed=self._seed + self._connection_serial,
            clock=self._clock,
            description=description,
            drops=self._drops,
            auto_reconnect=self._auto_reconnect,
            tap=self.tap,
        )

        original_close = connection.close

        def close_and_release() -> None:
            if not connection._closed:
                self._open_connections -= 1
            original_close()

        connection.close = close_and_release  # type: ignore[method-assign]
        return connection

    def filter(
        self,
        track: tuple[str, ...] | list[str] | None = None,
        locations: tuple[BoundingBox, ...] | list[BoundingBox] | None = None,
        follow: tuple[int, ...] | list[int] | None = None,
    ) -> StreamConnection:
        """Open a ``statuses/filter`` connection.

        Exactly one of ``track``, ``locations``, ``follow`` must be given —
        the single-filter-type restriction the paper's planner works around.

        - ``track``: tweets whose text contains any keyword
          (case-insensitive substring, as the real API matched).
        - ``locations``: tweets with an exact geotag inside any box (the
          real API only matched geotagged tweets for location filters).
        - ``follow``: tweets authored by any of the given user ids.
        """
        provided = [f for f in (track, locations, follow) if f]
        if len(provided) != 1:
            raise StreamError(
                "statuses/filter accepts exactly one filter type per "
                "connection (track OR locations OR follow)"
            )
        if track:
            keywords = tuple(track)
            # ``Tweet.matches_any_keyword`` with the keywords folded once
            # per connection instead of once per tweet.
            folded = tuple(k.casefold() for k in keywords)

            def matches_track(tweet: Tweet) -> bool:
                text = tweet.text.casefold()
                for keyword in folded:
                    if keyword in text:
                        return True
                return False

            return self._connect(
                matches_track, description=f"track={','.join(keywords)}"
            )
        if locations:
            boxes = tuple(locations)
            return self._connect(
                lambda tweet: any(b.contains_point(tweet.geo) for b in boxes),
                description=f"locations={','.join(b.name or '?' for b in boxes)}",
            )
        follow_ids = frozenset(follow or ())
        return self._connect(
            lambda tweet: tweet.user.user_id in follow_ids,
            description=f"follow={len(follow_ids)} users",
        )

    def unfiltered(self) -> StreamConnection:
        """A full-firehose connection (no server-side filter).

        The 2011 API reserved this for elevated access tiers ("Gardenhose"/
        "Firehose" partners); the simulator grants it so that queries with
        no API-eligible predicate still run. Counts against the connection
        limit like any other stream.
        """
        return self._connect(None, description="firehose")

    def sample(
        self,
        rate: float = 0.01,
        limit: int | None = None,
        salt: str | None = None,
    ) -> list[Tweet]:
        """The ``statuses/sample`` endpoint: a uniform firehose sample.

        Args:
            rate: sampling probability per tweet (Twitter's was ~1%).
            limit: stop after this many sampled tweets.
            salt: optional label mixed into the RNG derivation. Calls with
                the same salt replay the same per-tweet coin flips, so
                ``sample(r1, salt=s)`` is a subset of ``sample(r2, salt=s)``
                whenever ``r1 <= r2`` (nested samples — the fidelity
                harness relies on this monotonicity). When omitted, each
                call derives a fresh, per-call stream.

        Returns the sampled tweets eagerly (selectivity estimation wants a
        snapshot, not a long-running connection). Does not count against
        the connection limit and does not advance the clock. When the API
        was built with a ``sample_budget``, each call consumes one unit
        and exhaustion raises :class:`~repro.errors.RateLimitError` (the
        real API metered this endpoint).
        """
        if not 0.0 < rate <= 1.0:
            raise ValueError("rate must be in (0, 1]")
        if self._sample_budget is not None:
            if self._samples_used >= self._sample_budget:
                from repro.errors import RateLimitError

                raise RateLimitError(
                    f"statuses/sample budget of {self._sample_budget} "
                    f"requests exhausted ({self._samples_used} used, "
                    "0 remaining)"
                )
            self._samples_used += 1
        # Each call gets its own derivation label (distinct from the
        # connection RNG family, which stays keyed to connection serials):
        # repeated unsalted calls draw independent streams instead of
        # reusing the seed + serial arithmetic that could collide with a
        # later connection's seed.
        self._sample_serial += 1
        label = salt if salt is not None else f"call-{self._sample_serial}"
        rng = rng_mod.derive(self._seed, f"sample:{label}")
        sampled: list[Tweet] = []
        for tweet in self._firehose:
            if rng.random() < rate:
                sampled.append(tweet)
                if limit is not None and len(sampled) >= limit:
                    break
        return sampled
