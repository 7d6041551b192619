"""Bytes a generated scenario keeps alive, per tweet.

Every benchmark workload and many tests hold a whole scenario in memory,
and a benchmark builds the next one while it still holds the last. The
generator therefore stores each distinct text once, parses its entities
once, keeps tweet records slotted, and keeps per-tweet labels in
compact columns on the scenario rather than a dict on each tweet. This
bounds what one small election night keeps alive once generation has
returned.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.twitter.users import UserPopulation
from repro.twitter.workloads import election_night_scenario

#: Live bytes per tweet. On CPython 3.11, slotted records with one text
#: and one entity record per distinct text, and per-tweet labels in the
#: scenario's truth columns, read 209 B/tweet. The same records with a
#: label dict on every tweet read 391; a text and an entity record per
#: tweet, in ``__dict__`` records, 638.
MAX_BYTES_PER_TWEET = 256


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
