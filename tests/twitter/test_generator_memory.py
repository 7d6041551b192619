"""Bytes a generated scenario keeps alive, per tweet.

Every benchmark workload and many tests hold a whole scenario in memory,
and a benchmark builds the next one while it still holds the last. The
generator therefore stores each distinct text once, parses its entities
once, and keeps tweet records slotted. This bounds what one small
election night keeps alive once generation has returned.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.twitter.users import UserPopulation
from repro.twitter.workloads import election_night_scenario

#: Live bytes per tweet. On CPython 3.11, slotted records with one text
#: and one entity record per distinct text read 391 B/tweet; a text and
#: an entity record per tweet, in ``__dict__`` records, read 638.
MAX_BYTES_PER_TWEET = 512


def test_scenario_bytes_per_tweet_are_bounded():
    population = UserPopulation(size=300, seed=2011)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        scenario = election_night_scenario(
            seed=2011, population=population, intensity=0.1
        )
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    per_tweet = kept / len(scenario)
    assert per_tweet < MAX_BYTES_PER_TWEET, (
        f"{per_tweet:.0f} B/tweet over {len(scenario)} tweets"
    )
