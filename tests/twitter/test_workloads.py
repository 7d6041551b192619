"""Scenario generators: determinism, ground truth, and burst shapes."""

import pytest

from repro.twitter.users import UserPopulation
from repro.twitter.workloads import (
    GroundTruth,
    ScenarioEvent,
    background_chatter,
    earthquake_scenario,
    news_month_scenario,
    soccer_match_scenario,
)


@pytest.fixture(scope="module")
def pop():
    return UserPopulation(size=600, seed=5)


@pytest.fixture(scope="module")
def soccer_small(pop):
    return soccer_match_scenario(seed=5, population=pop, intensity=0.25)


def test_tweets_sorted_and_ids_increasing(soccer_small):
    times = [t.created_at for t in soccer_small.tweets]
    assert times == sorted(times)
    ids = [t.tweet_id for t in soccer_small.tweets]
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)


def test_deterministic_per_seed(pop):
    a = soccer_match_scenario(seed=8, population=pop, intensity=0.1)
    b = soccer_match_scenario(seed=8, population=pop, intensity=0.1)
    assert [t.text for t in a.tweets[:200]] == [t.text for t in b.tweets[:200]]
    c = soccer_match_scenario(seed=9, population=pop, intensity=0.1)
    assert [t.text for t in a.tweets[:200]] != [t.text for t in c.tweets[:200]]


def test_soccer_has_three_goal_events(soccer_small):
    events = soccer_small.truth.events
    assert len(events) == 3
    assert events[2].expected_terms == ("tevez", "3-0")


def test_goal_bursts_raise_local_rate(soccer_small):
    """Tweet volume in a goal's first two minutes dwarfs a quiet stretch."""
    goal = soccer_small.truth.events[0]
    burst = sum(
        1
        for t in soccer_small.tweets
        if goal.time <= t.created_at < goal.time + 120
    )
    quiet_start = goal.time - 600
    quiet = sum(
        1
        for t in soccer_small.tweets
        if quiet_start <= t.created_at < quiet_start + 120
    )
    assert burst > 3 * max(quiet, 1)


def event_of(scenario, tweet):
    """The id of the event that caused ``tweet``; 0 for none."""
    return scenario.truth.event_id[tweet.tweet_id - 1]


def topic_of(scenario, tweet):
    truth = scenario.truth
    return truth.topics[truth.topic[tweet.tweet_id - 1]]


def test_ground_truth_labels_present(soccer_small):
    truth = soccer_small.truth
    columns = (truth.sentiment, truth.topic, truth.event_id, truth.retweet_of)
    assert [len(column) for column in columns] == [len(soccer_small)] * 4
    assert sorted(truth.topics) == ["chatter", "soccer"]
    for tweet in soccer_small.tweets[:500]:
        assert truth.sentiment[tweet.tweet_id - 1] in (-1, 0, 1)
        assert topic_of(soccer_small, tweet) in ("chatter", "soccer")
        if event_of(soccer_small, tweet):
            assert topic_of(soccer_small, tweet) == "soccer"


def test_goal_tweets_name_the_scorer(soccer_small):
    goal3 = [t for t in soccer_small.tweets if event_of(soccer_small, t) == 3]
    assert goal3
    naming = sum(1 for t in goal3 if "tevez" in t.text.lower())
    assert naming > 0.9 * len(goal3)


def test_event_near():
    truth = GroundTruth(
        events=(
            ScenarioEvent(1, "a", time=100.0, start=100.0, end=200.0),
            ScenarioEvent(2, "b", time=500.0, start=500.0, end=600.0),
        )
    )
    assert truth.event_near(110.0, tolerance=60.0).event_id == 1
    assert truth.event_near(480.0, tolerance=60.0).event_id == 2
    assert truth.event_near(300.0, tolerance=60.0) is None


def test_earthquake_events_scale_with_magnitude(pop):
    scenario = earthquake_scenario(seed=5, population=pop, intensity=0.3)
    by_event: dict[int, int] = {}
    for tweet in scenario.tweets:
        event_id = event_of(scenario, tweet)
        if event_id and topic_of(scenario, tweet) == "earthquake":
            by_event[event_id] = by_event.get(event_id, 0) + 1
    magnitudes = {e.event_id: e.info["magnitude"] for e in scenario.truth.events}
    # The M6.9 event must out-tweet the M5.1 event.
    biggest = max(magnitudes, key=magnitudes.get)
    smallest = min(magnitudes, key=magnitudes.get)
    assert by_event[biggest] > 2 * by_event[smallest]


def test_earthquake_authors_cluster_near_epicenter(pop):
    scenario = earthquake_scenario(seed=5, population=pop, intensity=0.3)
    event = scenario.truth.events[0]  # Christchurch
    city = pop.gazetteer.lookup(event.info["place"])
    quake_tweets = [
        t for t in scenario.tweets if event_of(scenario, t) == event.event_id
    ]
    near = sum(
        1
        for t in quake_tweets
        if t.user.home is not None
        and abs(t.user.home[0] - city.lat) <= 12.0
        and abs(t.user.home[1] - city.lon) <= 12.0
    )
    assert near > 0.9 * len(quake_tweets)


def test_news_month_events_have_expected_terms(pop):
    scenario = news_month_scenario(
        seed=5, population=pop, days=10, n_stories=3, intensity=0.2
    )
    assert len(scenario.truth.events) == 3
    for event in scenario.truth.events:
        assert event.expected_terms
        story_tweets = [
            t for t in scenario.tweets if event_of(scenario, t) == event.event_id
        ]
        assert story_tweets
        mentioning = sum(
            1 for t in story_tweets if event.expected_terms[0] in t.text.lower()
        )
        assert mentioning > 0.8 * len(story_tweets)


def test_chatter_has_no_events(pop):
    scenario = background_chatter(seed=5, population=pop, duration=600.0, rate=2.0)
    assert scenario.truth.events == ()
    assert scenario.truth.topics == ("chatter",)
    assert all(topic_of(scenario, t) == "chatter" for t in scenario.tweets)


def test_intensity_scales_volume(pop):
    small = background_chatter(seed=5, population=pop, duration=1200.0, rate=1.0)
    large = background_chatter(seed=5, population=pop, duration=1200.0, rate=4.0)
    assert len(large) > 2.5 * len(small)
