"""Pin the simulated firehose across versions.

The determinism tests elsewhere compare the generator with itself in one
run, so a refactor that changes the stream would pass them. These digests
were computed once and committed: every scenario builder, at a small
population and intensity, must keep producing the same tweets — ids,
timestamps, authors, texts, geotags, entities and ground truth — and the
same truth events, for each seed.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.twitter.users import UserPopulation
from repro.twitter.workloads import (
    background_chatter,
    baseball_game_scenario,
    bot_flood_scenario,
    breaking_news_cascade_scenario,
    earthquake_scenario,
    election_night_scenario,
    news_month_scenario,
    soccer_match_scenario,
)

POPULATION = 400

#: Builder name → call at a small intensity. ``earthquakes``, ``baseball``
#: and ``cascade`` have localized tracks (``sample_author_near``).
BUILDERS = {
    "soccer": lambda seed, pop: soccer_match_scenario(
        seed=seed, population=pop, intensity=0.1
    ),
    "baseball": lambda seed, pop: baseball_game_scenario(
        seed=seed, population=pop, intensity=0.1
    ),
    "earthquakes": lambda seed, pop: earthquake_scenario(
        seed=seed, population=pop, intensity=0.03
    ),
    "news": lambda seed, pop: news_month_scenario(
        seed=seed, population=pop, days=4, n_stories=2, intensity=0.02
    ),
    "election": lambda seed, pop: election_night_scenario(
        seed=seed, population=pop, intensity=0.05
    ),
    "cascade": lambda seed, pop: breaking_news_cascade_scenario(
        seed=seed, population=pop, intensity=0.1
    ),
    "botflood": lambda seed, pop: bot_flood_scenario(
        seed=seed, population=pop, intensity=0.1
    ),
    "chatter": lambda seed, pop: background_chatter(
        seed=seed, population=pop, duration=1800.0, rate=2.0
    ),
}

#: (builder, seed) → SHA-1 of :func:`scenario_digest`.
GOLDEN = {
    ('baseball', 2011): "753fb9431f62ce166ecac968af87a1c2d37c3714",
    ('baseball', 42): "db910945bdd33496ce170a0ee1bbca9f196523bc",
    ('botflood', 2011): "58d8018f2acd166afa0fea274944b9e22961ffd2",
    ('botflood', 42): "8f63e77ff1dccc06fd6341bee1cfaab9fcbe32a7",
    ('cascade', 2011): "d456b841705ab20f0fd650b5c969dfab40248640",
    ('cascade', 42): "c6f3f3884f4d824fe3802e3c243ec9705cb75e38",
    ('chatter', 2011): "27f2a3fd84a05112fa9674f1aaec72845ca1c129",
    ('chatter', 42): "5f636cecd9af1283599e0e1648bf1bce7b10d34a",
    ('earthquakes', 2011): "0a3212db89ddf190c182bdd0c2cf4324c05a3f07",
    ('earthquakes', 42): "c7ccb7896a4c42a28ab9fefae580a6423dc855f3",
    ('election', 2011): "6dfd00de06051aceb8617a263ae998f130a638f9",
    ('election', 42): "a4e310cb3ac82baa2c936e3ae518ae5c371db4e8",
    ('news', 2011): "9b5c26187793cabab002365f350ad9272f416838",
    ('news', 42): "0c6df7c0f7ddd2f1e00476dba45601b8aa003e9a",
    ('soccer', 2011): "731e89999b4600d8c10dec626726b099032cbe27",
    ('soccer', 42): "b8f3d06a565377ad9c93b6e8376dd3cb4e71e944",
}


def truth_items(scenario, tweet) -> list:
    """A tweet's labels from the scenario's truth columns, as the sorted
    ``(key, value)`` list the digests were first computed over: its
    coordinates are its author's home, ``event_id`` is None for no event,
    and ``retweet_of`` is there only for a retweet."""
    truth, row = scenario.truth, tweet.tweet_id - 1
    items = {
        "sentiment": truth.sentiment[row],
        "topic": truth.topics[truth.topic[row]],
        "event_id": truth.event_id[row] or None,
        "coords": tweet.user.home,
    }
    if truth.retweet_of[row]:
        items["retweet_of"] = truth.retweet_of[row]
    return sorted(items.items())


def scenario_digest(scenario) -> str:
    """SHA-1 over every field and label of every tweet, then the truth
    events."""
    digest = hashlib.sha1()
    for tweet in scenario.tweets:
        user, entities = tweet.user, tweet.entities
        record = (
            tweet.tweet_id,
            tweet.created_at,
            (user.user_id, user.screen_name, user.location, user.home,
             user.geo_enabled, user.followers, user.lang),
            tweet.text,
            tweet.geo,
            (entities.hashtags, entities.mentions, entities.urls),
            truth_items(scenario, tweet),
        )
        digest.update(repr(record).encode())
        digest.update(b"\n")
    digest.update(repr(scenario.truth.events).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("seed", [2011, 42])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_generator_output_is_pinned(name, seed):
    population = UserPopulation(size=POPULATION, seed=seed)
    scenario = BUILDERS[name](seed, population)
    assert len(scenario) > 0
    assert scenario_digest(scenario) == GOLDEN[name, seed]
