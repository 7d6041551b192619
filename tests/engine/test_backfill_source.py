"""``BackfillSource`` against the row-at-a-time splice it replaces.

The backfill reads the archive a decoded fetch at a time, skips the
replayed head of the live stream in one pass and takes the tail in lists
that complete each frame. The reference below is the splice as it was
written first: store tweets below the cut, then the live connection
pulled a tweet at a time with every delivered tweet below the cut
dropped, framed by ``ops.frame``. At every frame boundary the two must
agree on the rows, ``backfill_rows``, the connection's counters, the
clock (and which scheduled callbacks fired, when), the tap calls and the
delivery RNG's state.
"""

from __future__ import annotations

import math
from dataclasses import asdict, replace

import pytest

from repro.clock import VirtualClock
from repro.engine import operators as ops
from repro.engine.planner import BackfillSource, PhysicalPlan, TweetSource
from repro.engine.resilience import FaultPlan, StreamDrop
from repro.storage import HistoricalStore
from repro.twitter.models import track_rule
from repro.twitter.stream import Firehose, StreamingAPI

#: Firehose tweets per test stream.
STREAM_TWEETS = 1500


@pytest.fixture(scope="module")
def tweets(soccer):
    return soccer.tweets[:STREAM_TWEETS]


@pytest.fixture(scope="module")
def keywords(soccer):
    return tuple(soccer.keywords)


def _store(tweets):
    store = HistoricalStore(":memory:")
    store.extend(tweets)
    return store


@pytest.fixture(scope="module")
def stores(tweets, keywords):
    """One archive per watermark position: none, before the stream, in
    the middle of it and past its end."""
    matches = track_rule(keywords)
    earlier = [
        replace(t, tweet_id=10**6 + i, created_at=tweets[0].created_at - 900.0 + i)
        for i, t in enumerate(t for t in tweets[500:] if matches(t))
    ][:40]
    built = {
        "empty": _store([]),
        "before": _store(earlier),
        "middle": _store(tweets[: STREAM_TWEETS // 2]),
        "after": _store(tweets),
    }
    yield built
    for store in built.values():
        store.close()


def _per_tweet_splice(store, live, matches, window, plan, size):
    """The splice one tweet at a time, framed by ``islice``."""

    def spliced():
        start, end = window
        watermark = store.watermark()
        cut = None
        if watermark is not None:
            cut = math.nextafter(watermark, math.inf)
            if end is not None:
                cut = min(cut, end)
        served = 0
        if cut is not None and (start is None or start < cut):
            for tweet in store.scan(start, cut):
                if matches is not None and not matches(tweet):
                    continue
                served += 1
                yield tweet
        plan.backfill_rows = served
        for tweet in live.open():
            if cut is not None and tweet.created_at < cut:
                continue
            yield tweet

    return ops.frame(spliced(), size)


def _clock(tweets):
    """A clock with callbacks due across the stream; ``fired`` logs
    (deadline, now) as they run."""
    start = tweets[0].created_at
    clock = VirtualClock(start=start)
    fired = []
    span = tweets[-1].created_at - start
    for step in range(1, 8):
        deadline = start + span * step / 8
        clock.call_at(deadline, lambda d=deadline: fired.append((d, clock.now)))
    return clock, fired


FAULTS = {
    "none": ((), True),
    # In the middle-watermark stream, one drop falls inside the replayed
    # head (166 deliveries) and one in the tail (334).
    "drops": ((StreamDrop(after_delivered=60, gap=5),
               StreamDrop(after_delivered=250, gap=9)), True),
    "drops-lost": ((StreamDrop(after_delivered=60, gap=5),
                    StreamDrop(after_delivered=250, gap=9)), False),
}


def _api(tweets, ratio, fault):
    drops, auto_reconnect = FAULTS[fault]
    clock, fired = _clock(tweets)
    api = StreamingAPI(
        Firehose(list(tweets)),
        clock=clock,
        delivery_ratio=ratio,
        seed=5,
        fault_plan=FaultPlan(stream_drops=drops),
        auto_reconnect=auto_reconnect,
    )
    return api, clock, fired


def _run(side, tweets, keywords, store, window, size, ratio, fault):
    api, clock, fired = _api(tweets, ratio, fault)
    taps = []
    api.tap = taps.append
    plan = PhysicalPlan(pipeline=iter(()), output_schema=(), ctx=None)
    live = TweetSource(lambda: api.filter(track=keywords), plan)
    matches = track_rule(keywords)
    if side == "chunks":
        frames = BackfillSource(store, live, matches, window, plan).chunks(size)
    else:
        frames = _per_tweet_splice(store, live, matches, window, plan, size)
    states = []
    for frame in frames:
        connection = plan.connections[0] if plan.connections else None
        states.append((
            [t.tweet_id for t in frame],
            plan.backfill_rows,
            None if connection is None else (
                asdict(connection.stats),
                hash(connection._rng.getstate()),
                connection._closed,
            ),
            clock.now,
            len(fired),
            len(taps),
        ))
    return states, fired, [t.tweet_id for t in taps], api.open_connections


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("ratio", [1.0, 0.98])
@pytest.mark.parametrize("size", [1, 7, 256])
@pytest.mark.parametrize("watermark", ["empty", "before", "middle", "after"])
def test_chunks_match_the_per_tweet_splice(
    tweets, keywords, stores, watermark, size, ratio, fault
):
    store = stores[watermark]
    args = (tweets, keywords, store, (None, None), size, ratio, fault)
    ours, *our_logs, our_open = _run("chunks", *args)
    splice, *splice_logs, splice_open = _run("splice", *args)
    assert len(ours) == len(splice)
    for index, (got, want) in enumerate(zip(ours, splice)):
        assert got == want, f"frame {index}"
    assert our_logs == splice_logs  # callbacks fired, tweets tapped
    assert our_open == splice_open == 0
    rows = sum(len(ids) for ids, *_ in ours)
    served = ours[-1][1]
    if watermark == "empty":
        assert served == 0 < rows
    elif watermark == "after":
        assert rows == served > 0  # the live tail adds nothing ...
        assert ours[-1][2][0]["delivered"] > 0  # ... after replaying the head
    else:
        assert 0 < served < rows  # history and the live tail both


@pytest.mark.parametrize("size", [1, 7, 256])
@pytest.mark.parametrize("watermark", ["before", "middle", "after"])
@pytest.mark.parametrize("where", ["start", "end", "both"])
def test_windowed_chunks_match_the_per_tweet_splice(
    tweets, keywords, stores, watermark, where, size
):
    """A ``created_at`` window moves the store range and can move the cut
    below the watermark; the live tail still starts at the cut."""
    first, last = tweets[0].created_at, tweets[-1].created_at
    start = first + (last - first) / 4 if where in ("start", "both") else None
    end = first + (last - first) / 3 if where in ("end", "both") else None
    args = (tweets, keywords, stores[watermark], (start, end), size, 0.98, "drops")
    assert _run("chunks", *args) == _run("splice", *args)


def test_abandoned_chunks_release_the_connection(tweets, keywords, stores):
    api, _, _ = _api(tweets, 1.0, "none")
    plan = PhysicalPlan(pipeline=iter(()), output_schema=(), ctx=None)
    live = TweetSource(lambda: api.filter(track=keywords), plan)
    source = BackfillSource(
        stores["middle"], live, track_rule(keywords), (None, None), plan
    )
    frames = source.chunks(7)
    while not plan.connections:  # frames of history, then the one at the cut
        next(frames)
    next(frames)  # a frame of the live tail
    assert api.open_connections == 1
    frames.close()
    assert api.open_connections == 0
