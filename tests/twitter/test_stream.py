"""The firehose and streaming API façade."""

from dataclasses import replace

import pytest

from repro.clock import VirtualClock
from repro.errors import StreamError
from repro.geo.bbox import named_box
from repro.twitter.stream import Firehose, StreamingAPI


@pytest.fixture(scope="module")
def firehose(soccer, chatter):
    return Firehose.from_scenarios(soccer, chatter)


@pytest.fixture()
def api(firehose):
    return StreamingAPI(firehose, delivery_ratio=1.0)


def test_merge_orders_and_reids(firehose):
    times = [t.created_at for t in firehose]
    assert times == sorted(times)
    ids = [t.tweet_id for t in firehose]
    assert ids == list(range(1, len(firehose) + 1))


def test_single_scenario_firehose_shares_its_tweets(soccer):
    """A scenario's tweets already carry their merged ids, so every
    session over it reads the same tweet objects."""
    firehose = Firehose.from_scenarios(soccer)
    assert len(firehose) == len(soccer.tweets)
    assert all(a is b for a, b in zip(firehose, soccer.tweets))


def test_merged_firehose_reids_and_keeps_every_other_field(
    firehose, soccer, chatter
):
    merged = sorted(
        soccer.tweets + chatter.tweets, key=lambda t: t.created_at
    )
    assert [t.tweet_id for t in firehose] == list(range(1, len(merged) + 1))
    for tweet, source in zip(firehose, merged):
        assert tweet == replace(source, tweet_id=tweet.tweet_id)


def test_truth_keeps_each_scenarios_ids_after_a_merge(firehose, soccer):
    """The merge re-ids tweets; a scenario's truth columns still read its
    own tweets, so ``retweet_of`` names the original it was made from."""
    merged_id = {(t.created_at, t.text): t.tweet_id for t in firehose}
    assert any(
        merged_id[t.created_at, t.text] != t.tweet_id for t in soccer.tweets
    )
    retweets = 0
    for tweet, original in zip(soccer.tweets, soccer.truth.retweet_of):
        if original:
            retweets += 1
            quoted = soccer.tweets[original - 1]
            assert tweet.text.startswith(f"RT @{quoted.screen_name}: ")
    assert retweets > 0


def test_span(firehose):
    first, last = firehose.span
    assert first < last


def test_track_filter_matches_keyword(api):
    connection = api.filter(track=("tevez",))
    tweets = list(connection)
    assert tweets
    assert all("tevez" in t.text.lower() for t in tweets)
    assert connection.stats.matched == connection.stats.delivered


def test_track_is_or_semantics(api):
    both = list(api.filter(track=("tevez", "silva")))
    only_tevez = list(api.filter(track=("tevez",)))
    assert len(both) > len(only_tevez)


@pytest.mark.parametrize(
    "keywords",
    [("TEVEZ", "Silva"), ("STRASSE",), ("straße",), ("İstanbul",), ("i̇stanbul", "GOAL")],
)
def test_track_delivers_what_matches_any_keyword_accepts(firehose, keywords):
    """The connection folds the keywords once; the match set is the one
    ``Tweet.matches_any_keyword`` (which folds per call) defines."""
    extra = [
        "Tor in der Straße!", "tor in der strasse", "STRASSENFEST",
        "İSTANBUL derby", "istanbul derby", "i̇stanbul derby", "nothing here",
    ]
    template = firehose.tweets[0]
    tweets = firehose.tweets + [
        replace(template, tweet_id=10**9 + i, text=text)
        for i, text in enumerate(extra)
    ]
    api = StreamingAPI(Firehose(tweets), delivery_ratio=1.0)
    delivered = [t.tweet_id for t in api.filter(track=keywords)]
    expected = [t.tweet_id for t in tweets if t.matches_any_keyword(keywords)]
    assert delivered == expected != []


def test_locations_filter_requires_geotag(api):
    nyc = named_box("nyc")
    tweets = list(api.filter(locations=(nyc,)))
    assert tweets
    for tweet in tweets:
        assert tweet.geo is not None
        assert nyc.contains_point(tweet.geo)


def test_follow_filter(api, firehose):
    target = firehose.tweets[0].user.user_id
    tweets = list(api.filter(follow=(target,)))
    assert tweets
    assert all(t.user.user_id == target for t in tweets)


def test_exactly_one_filter_type(api):
    with pytest.raises(StreamError):
        api.filter(track=("a",), locations=(named_box("nyc"),))
    with pytest.raises(StreamError):
        api.filter()


def test_delivery_ratio_drops_tweets(firehose):
    lossy = StreamingAPI(firehose, delivery_ratio=0.5, seed=1)
    connection = lossy.filter(track=("soccer",))
    delivered = list(connection)
    assert connection.stats.dropped > 0
    assert len(delivered) < connection.stats.matched
    assert 0.35 < connection.stats.delivered / connection.stats.matched < 0.65


def test_connection_limit(api):
    connections = [api.filter(track=(f"kw{i}",)) for i in range(4)]
    with pytest.raises(StreamError):
        api.filter(track=("overflow",))
    connections[0].close()
    api.filter(track=("now-ok",))


def test_drained_connection_releases_slot(api):
    """Iterating a connection to exhaustion frees its connection slot —
    otherwise a handful of completed queries would wedge the session."""
    for _ in range(6):  # more than the connection limit
        connection = api.filter(track=("tevez",))
        for _tweet in connection:
            pass
    assert api.open_connections == 0


def test_close_stops_iteration(api):
    connection = api.filter(track=("soccer",))
    iterator = iter(connection)
    next(iterator)
    connection.close()
    assert list(iterator) == []


def test_sample_rate(api, firehose):
    sample = api.sample(rate=0.05)
    expected = 0.05 * len(firehose)
    assert 0.5 * expected < len(sample) < 1.6 * expected


def test_sample_limit(api):
    assert len(api.sample(rate=0.5, limit=10)) == 10


def test_sample_validates_rate(api):
    with pytest.raises(ValueError):
        api.sample(rate=0.0)
    with pytest.raises(ValueError):
        api.sample(rate=1.5)


def test_unfiltered_returns_everything(firehose):
    api = StreamingAPI(firehose, delivery_ratio=1.0)
    assert len(list(api.unfiltered())) == len(firehose)


def test_stream_advances_clock(firehose):
    clock = VirtualClock(start=0.0)
    api = StreamingAPI(firehose, clock=clock, delivery_ratio=1.0)
    connection = api.filter(track=("soccer",))
    iterator = iter(connection)
    first = next(iterator)
    assert clock.now == first.created_at
    second = next(iterator)
    assert clock.now == second.created_at >= first.created_at


def test_selectivity_stat(api):
    connection = api.filter(track=("tevez",))
    list(connection)
    assert 0.0 < connection.stats.selectivity < 0.5
