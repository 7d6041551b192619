"""``SELECT *`` over ``twitter`` passes the scan's tweet-backed batches
through the projection, and ``QueryHandle.tweets()`` hands them out.

A tweet-backed batch's row view is ``Tweet.to_row()``: the ``twitter``
schema in order, then ``__tweet__``. That is exactly what the all-field
projection builds, so the projection yields the batch itself. Any other
select list, and ``SELECT *`` over a rows-backed source, still projects.
"""

from __future__ import annotations

import shutil

import pytest

from repro import EngineConfig, TweeQL
from repro.twitter.models import TWITTER_SCHEMA
from repro.twitter.workloads import soccer_match_scenario

WHERE = "WHERE text CONTAINS 'goal'"
STAR = f"SELECT * FROM twitter {WHERE};"


@pytest.fixture(scope="module")
def scenario():
    return soccer_match_scenario(intensity=0.3)


def live(scenario, **config):
    return TweeQL.for_scenarios(
        scenario, config=EngineConfig(**config), delivery_ratio=1.0
    )


def delivered(session, sql=STAR):
    handle = session.query(sql)
    lists = list(handle.tweets())
    handle.close()
    return lists


@pytest.mark.parametrize("batch_size", [1, 7, 256])
def test_star_rows_are_the_delivered_tweets_rows(scenario, batch_size):
    lists = delivered(live(scenario, batch_size=batch_size))
    tweets = [tweet for batch in lists for tweet in batch]
    assert tweets and all(len(batch) <= batch_size for batch in lists)
    originals = {id(tweet) for tweet in scenario.tweets}
    assert all(id(tweet) in originals for tweet in tweets)

    handle = live(scenario, batch_size=batch_size).query(STAR)
    rows = handle.all()
    assert rows == [tweet.to_row() for tweet in tweets]
    assert [list(row) for row in rows[:1]] == [[*TWITTER_SCHEMA, "__tweet__"]]
    assert handle.stats.rows_emitted == len(rows)


@pytest.mark.parametrize("sanitize", [False, True])
def test_star_passes_the_scan_batch_through(scenario, sanitize):
    def output_batches(sql):
        handle = live(scenario, sanitize=sanitize).query(sql)
        batches = [b for b in handle._plan.pipeline if b.length]
        handle.close()
        return batches

    star = output_batches(STAR)
    assert star and all(batch.tweets is not None for batch in star)
    # A select list that is not the schema in order builds its rows.
    reordered = ", ".join(reversed(TWITTER_SCHEMA))
    projected = output_batches(f"SELECT {reordered} FROM twitter {WHERE};")
    assert projected and all(batch.tweets is None for batch in projected)
    # The projection stays a stage: EXPLAIN ANALYZE still shows it.
    traced = live(scenario, tracing=True).query(STAR)
    assert "Project" in traced.explain(analyze=True)


def test_star_with_backfill_hands_out_store_and_live_tweets(
    scenario, tmp_path
):
    path = str(tmp_path / "archive.db")
    archiving = live(scenario, storage_path=path)
    handle = archiving.query("SELECT created_at FROM twitter;")
    stop_at = scenario.start + 1800.0 + 2400.0  # build-up + 40 min played
    for row in handle:
        if row["created_at"] > stop_at:
            break
    handle.close()
    archiving.close()

    expected = [t for batch in delivered(live(scenario)) for t in batch]
    copy = str(tmp_path / "copy.db")
    shutil.copy(path, copy)
    hybrid = live(scenario, storage_path=path, backfill=True)
    try:
        handle = hybrid.query(STAR)
        tweets = [t for batch in handle.tweets() for t in batch]
        assert handle.backfill_rows > 0
    finally:
        hybrid.close()
    assert [t.tweet_id for t in tweets] == [t.tweet_id for t in expected]

    hybrid = live(scenario, storage_path=copy, backfill=True)
    try:
        rows = hybrid.query(STAR).all()
    finally:
        hybrid.close()
    assert rows == [tweet.to_row() for tweet in tweets]


@pytest.mark.parametrize(
    "select, keys",
    [
        (
            "tweet_id AS id, " + ", ".join(TWITTER_SCHEMA[1:]),
            ["id", *TWITTER_SCHEMA[1:]],
        ),
        (
            ", ".join(reversed(TWITTER_SCHEMA)),
            list(reversed(TWITTER_SCHEMA)),
        ),
        ("*, length(text) AS n", [*TWITTER_SCHEMA, "n"]),
        ("text", ["text", "created_at"]),
    ],
    ids=["aliased", "reordered", "computed", "narrow"],
)
def test_other_select_lists_still_project(scenario, select, keys):
    tweets = [t for batch in delivered(live(scenario)) for t in batch]
    sql = f"SELECT {select} FROM twitter {WHERE};"
    rows = live(scenario).query(sql).all()
    assert len(rows) == len(tweets)
    assert [list(row) for row in rows[:1]] == [[*keys, "__tweet__"]]
    by_tweet = [tweet.to_row() for tweet in tweets]
    for row, source in zip(rows, by_tweet):
        assert row["__tweet__"] is source["__tweet__"]
        assert row["text" if "text" in row else "id"] == source[
            "text" if "text" in row else "tweet_id"
        ]
    # The handle's tweets come off the projected ``__tweet__`` column.
    assert [t for batch in delivered(live(scenario), sql) for t in batch] == tweets


@pytest.mark.parametrize("batch_size", [1, 256])
def test_star_over_a_registered_source_projects(batch_size):
    source = [
        {name: f"{name}{i}" for name in TWITTER_SCHEMA} | {"created_at": float(i)}
        for i in range(600)
    ]
    session = TweeQL(config=EngineConfig(batch_size=batch_size))
    session.register_source("logs", lambda: iter(source), TWITTER_SCHEMA)
    rows = session.query("SELECT * FROM logs;").all()
    assert rows == source
    assert not any(row is original for row, original in zip(rows, source))
