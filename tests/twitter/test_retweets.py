"""Retweet generation."""

import re

import pytest

from repro.twitter.users import UserPopulation
from repro.twitter.workloads import RETWEET_RATE, soccer_match_scenario


@pytest.fixture(scope="module")
def scenario():
    population = UserPopulation(size=600, seed=13)
    return soccer_match_scenario(seed=13, population=population, intensity=0.3)


def original_id(scenario, tweet):
    """The id of the tweet ``tweet`` retweets; 0 when it is not a retweet."""
    return scenario.truth.retweet_of[tweet.tweet_id - 1]


def topic(scenario, tweet):
    truth = scenario.truth
    return truth.topics[truth.topic[tweet.tweet_id - 1]]


def retweets_of(scenario):
    return [t for t in scenario.tweets if original_id(scenario, t)]


def test_retweet_rate_roughly_matches(scenario):
    topical = [t for t in scenario.tweets if topic(scenario, t) != "chatter"]
    rts = retweets_of(scenario)
    rate = len(rts) / len(topical)
    assert 0.5 * RETWEET_RATE < rate < 1.6 * RETWEET_RATE


def test_retweet_text_quotes_original(scenario):
    by_id = {t.tweet_id: t for t in scenario.tweets}
    for rt in retweets_of(scenario)[:100]:
        original = by_id[original_id(scenario, rt)]
        assert rt.text.startswith(f"RT @{original.screen_name}:")
        assert original.text[:60] in rt.text or rt.text.endswith("…")
        assert len(rt.text) <= 140


def test_retweet_inherits_sentiment_and_topic(scenario):
    truth = scenario.truth
    for rt in retweets_of(scenario)[:100]:
        row, source = rt.tweet_id - 1, original_id(scenario, rt) - 1
        assert truth.sentiment[row] == truth.sentiment[source]
        assert truth.topic[row] == truth.topic[source]
        assert truth.event_id[row] == truth.event_id[source]


def test_retweet_coords_are_the_retweeters(scenario):
    by_id = {t.tweet_id: t for t in scenario.tweets}
    differs = 0
    for rt in retweets_of(scenario)[:200]:
        original = by_id[original_id(scenario, rt)]
        if rt.user.home != original.user.home:
            differs += 1
    assert differs > 0  # retweeters live elsewhere


def test_chatter_never_retweeted(scenario):
    for rt in retweets_of(scenario):
        assert topic(scenario, rt) != "chatter"


def test_no_retweets_of_retweets(scenario):
    for rt in retweets_of(scenario):
        assert scenario.truth.retweet_of[original_id(scenario, rt) - 1] == 0


def test_mentions_extracted_from_retweets(scenario):
    rt = retweets_of(scenario)[0]
    handle = re.match(r"RT @(\w+):", rt.text).group(1)
    assert handle in rt.entities.mentions
