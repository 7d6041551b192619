"""``StreamConnection.chunks`` against the per-tweet delivery loop.

The engine reads the stream a list at a time; the contract is that it
cannot tell. :class:`PerTweetLoop` below is the connection's delivery
loop as it was before chunking — one tweet per step, every counter,
delivery draw, fault-schedule step, tap call and clock advance inline —
framed into lists with ``islice``. Every chunk of the real connection
must match that frame, and at every boundary the two must agree on the
counters, the tap sequence, the clock (including which scheduled
callbacks have fired, and when) and the delivery RNG's state, with the
same reconnect spans recorded.
"""

from __future__ import annotations

import copy
import math
from itertools import islice

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import VirtualClock
from repro.engine.resilience import FaultPlan, StreamDrop
from repro.geo.bbox import BoundingBox
from repro.twitter.stream import ConnectionStats, Firehose, StreamingAPI

#: Tweets per test stream: enough for several 256-tweet chunks of the
#: firehose and a few of every filter.
STREAM_TWEETS = 700


@pytest.fixture(scope="module")
def tweets(chatter):
    return chatter.tweets[:STREAM_TWEETS]


class PerTweetLoop:
    """The delivery loop one tweet at a time (the reference)."""

    def __init__(self, connection, tweets, clock, tap, tracer):
        self.tweets = tweets
        self.predicate = connection._predicate
        self.ratio = connection._delivery_ratio
        self.rng = copy.deepcopy(connection._rng)
        self.drops = list(connection._drops)
        self.auto_reconnect = connection._auto_reconnect
        self.description = connection.description
        self.clock = clock
        self.tap = tap
        self.tracer = tracer
        self.stats = ConnectionStats()
        self.closed = False

    def __iter__(self):
        next_drop = 0
        gap_remaining = 0
        for tweet in self.tweets:
            if self.closed:
                return
            self.stats.scanned += 1
            if self.predicate is not None and not self.predicate(tweet):
                continue
            self.stats.matched += 1
            if self.ratio < 1.0 and self.rng.random() > self.ratio:
                self.stats.dropped += 1
                continue
            while (
                next_drop < len(self.drops)
                and self.stats.delivered >= self.drops[next_drop].after_delivered
            ):
                gap_remaining += self.drops[next_drop].gap
                next_drop += 1
                if self.auto_reconnect:
                    self.stats.reconnects += 1
                    self.tracer.instant(
                        f"reconnect({self.description})",
                        "reconnect",
                        lane="stream",
                        delivered=self.stats.delivered,
                        gap=self.drops[next_drop - 1].gap,
                    )
            if gap_remaining > 0:
                gap_remaining -= 1
                self.stats.gap_tweets += 1
                if not self.auto_reconnect:
                    self.stats.dropped += 1
                    continue
            self.stats.delivered += 1
            if self.tap is not None:
                self.tap(tweet)
            if self.clock is not None and tweet.created_at > self.clock.now:
                self.clock.advance_to(tweet.created_at)
            yield tweet

    def chunks(self, size):
        source = iter(self)
        while True:
            chunk = list(islice(source, size))
            yield chunk
            if len(chunk) < size:
                return


class SpanLog:
    """Records each instant span with the clock time it was taken at."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []

    def instant(self, name, kind, lane, **attrs):
        self.spans.append((name, kind, lane, self.clock.now, attrs))


def scheduled_clock(start, tweets):
    """A clock with callbacks due across the stream, some of which
    schedule more; ``fired`` logs (deadline, now) as they run."""
    clock = VirtualClock(start=start)
    fired = []
    span = tweets[-1].created_at - start
    for step in range(1, 9):
        deadline = start + span * step / 9

        def fire(deadline=deadline):
            fired.append((deadline, clock.now))
            if len(fired) % 3 == 0:
                later = clock.now + span / 20
                clock.call_at(later, lambda: fired.append((later, clock.now)))

        clock.call_at(deadline, fire)
    return clock, fired


def predicate_kwargs(kind, tweets):
    if kind == "track":
        return {"track": ("the", "coffee")}
    if kind == "locations":
        return {"locations": (BoundingBox(-90.0, -180.0, 90.0, 180.0, "world"),)}
    return {"follow": tuple(t.user.user_id for t in tweets[:40])}


def open_pair(tweets, kind, ratio, drops, auto_reconnect, tapped, seed):
    """The connection under test and its per-tweet reference, each on its
    own clock, tap log and span log."""
    start = tweets[0].created_at
    clock, fired = scheduled_clock(start, tweets)
    api = StreamingAPI(
        Firehose(list(tweets)),
        clock=clock,
        delivery_ratio=ratio,
        seed=seed,
        fault_plan=FaultPlan(seed=1, stream_drops=tuple(drops)),
        auto_reconnect=auto_reconnect,
    )
    taps = []
    if tapped:
        api.tap = taps.append
    connection = (
        api.unfiltered()
        if kind == "firehose"
        else api.filter(**predicate_kwargs(kind, tweets))
    )
    connection.tracer = SpanLog(clock)
    ref_clock, ref_fired = scheduled_clock(start, tweets)
    ref_taps = []
    reference = PerTweetLoop(
        connection, list(tweets), ref_clock,
        ref_taps.append if tapped else None, SpanLog(ref_clock),
    )
    return (
        (connection, clock, fired, taps),
        (reference, ref_clock, ref_fired, ref_taps),
        api,
    )


def assert_same_state(ours, theirs, where):
    connection, clock, fired, taps = ours
    reference, ref_clock, ref_fired, ref_taps = theirs
    assert connection.stats == reference.stats, where
    assert clock.now == ref_clock.now, where
    assert fired == ref_fired, where
    assert [t.tweet_id for t in taps] == [t.tweet_id for t in ref_taps], where
    assert connection._rng.getstate() == reference.rng.getstate(), where
    assert connection.tracer.spans == reference.tracer.spans, where


drop_plans = st.lists(
    st.builds(
        StreamDrop,
        after_delivered=st.integers(0, 60),
        gap=st.integers(0, 12),
    ),
    max_size=3,
)


@settings(max_examples=150, deadline=2000)
@given(
    kind=st.sampled_from(("firehose", "track", "locations", "follow")),
    ratio=st.sampled_from((1.0, 0.98, 0.5)),
    drops=drop_plans,
    auto_reconnect=st.booleans(),
    tapped=st.booleans(),
    size=st.sampled_from((1, 7, 256)),
    close_after=st.one_of(st.none(), st.integers(0, 6)),
    seed=st.integers(0, 2**16),
)
def test_chunks_match_the_per_tweet_loop(
    tweets, kind, ratio, drops, auto_reconnect, tapped, size, close_after, seed
):
    ours, theirs, api = open_pair(
        tweets, kind, ratio, drops, auto_reconnect, tapped, seed
    )
    connection, reference = ours[0], theirs[0]
    got, want = connection.chunks(size), reference.chunks(size)
    index = 0
    while True:
        if index == close_after:
            connection.close()
            reference.closed = True
        chunk, expected = next(got), next(want)
        assert [t.tweet_id for t in chunk] == [t.tweet_id for t in expected]
        assert_same_state(ours, theirs, f"after chunk {index}")
        if len(chunk) < size:
            break
        index += 1
    assert next(got, None) is None  # one short chunk ends the stream
    assert_same_state(ours, theirs, "after the last chunk")
    assert api.open_connections == 0  # drained or closed: slot released


def test_iteration_is_chunks_of_one(tweets):
    """Iterating a connection is the per-tweet view of ``chunks(1)``: the
    clock and counters stand at each tweet as it is handed out."""
    ours, theirs, _api = open_pair(
        tweets, "track", 0.98, [StreamDrop(after_delivered=5, gap=3)],
        True, True, seed=3,
    )
    got, want = iter(ours[0]), iter(theirs[0])
    for tweet in got:
        assert tweet is next(want)
        assert_same_state(ours, theirs, tweet.tweet_id)
    assert next(want, None) is None
    assert_same_state(ours, theirs, "drained")


def test_chunks_reject_a_nonpositive_size(tweets):
    api = StreamingAPI(Firehose(list(tweets)), delivery_ratio=1.0)
    with pytest.raises(ValueError):
        next(api.unfiltered().chunks(0))


@settings(max_examples=150, deadline=2000)
@given(
    kind=st.sampled_from(("firehose", "track", "locations", "follow")),
    ratio=st.sampled_from((1.0, 0.98, 0.5)),
    drops=drop_plans,
    auto_reconnect=st.booleans(),
    tapped=st.booleans(),
    at=st.integers(0, STREAM_TWEETS),
    nudge=st.sampled_from((-1, 0, 1)),
    sizes=st.lists(st.integers(1, 300), min_size=1, max_size=5),
    seed=st.integers(0, 2**16),
)
def test_skip_then_take_match_the_per_tweet_loop(
    tweets, kind, ratio, drops, auto_reconnect, tapped, at, nudge, sizes, seed
):
    """``skip_before(cut)`` then ``take`` lists of any sizes is the
    per-tweet loop with every delivered tweet below ``cut`` dropped: the
    same tweets, and the same state after each list."""
    ours, theirs, api = open_pair(
        tweets, kind, ratio, drops, auto_reconnect, tapped, seed
    )
    connection, reference = ours[0], theirs[0]
    cut = tweets[at].created_at if at < len(tweets) else tweets[-1].created_at
    if nudge:
        cut = math.nextafter(cut, nudge * math.inf)
    connection.skip_before(cut)
    want = (tweet for tweet in reference if tweet.created_at >= cut)
    for index, size in enumerate(sizes):
        chunk, expected = connection.take(size), list(islice(want, size))
        assert [t.tweet_id for t in chunk] == [t.tweet_id for t in expected]
        if len(chunk) < size:
            assert next(want, None) is None
            assert_same_state(ours, theirs, f"at the end, list {index}")
            break
        assert_same_state(ours, theirs, f"after list {index}")
