"""Tweet logs: memory and sqlite backends behave identically."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.tweetlog import MemoryTweetLog, SqliteTweetLog, TableSink
from repro.twitter.models import Tweet, User


def make_tweet(tweet_id, t, text="hello", geo=None):
    return Tweet(
        tweet_id=tweet_id,
        created_at=t,
        user=User(user_id=tweet_id, screen_name=f"u{tweet_id}", location="Boston",
                  home=(42.36, -71.06), geo_enabled=bool(geo)),
        text=text,
        geo=geo,
        ground_truth={"sentiment": 1, "topic": "t", "event_id": None,
                      "coords": (42.36, -71.06)},
    )


@pytest.fixture(params=["memory", "sqlite"])
def log(request):
    if request.param == "memory":
        yield MemoryTweetLog()
    else:
        with SqliteTweetLog(":memory:") as db:
            yield db


def test_append_and_len(log):
    log.append(make_tweet(1, 10.0))
    log.append(make_tweet(2, 20.0))
    assert len(log) == 2


def test_scan_time_range_half_open(log):
    log.extend([make_tweet(i, float(i * 10)) for i in range(1, 6)])
    scanned = [t.tweet_id for t in log.scan(20.0, 40.0)]
    assert scanned == [2, 3]


def test_scan_unbounded(log):
    log.extend([make_tweet(i, float(i)) for i in range(1, 4)])
    assert len(list(log.scan())) == 3
    assert [t.tweet_id for t in log.scan(start=2.0)] == [2, 3]
    assert [t.tweet_id for t in log.scan(end=2.0)] == [1]


def test_count_matches_scan(log):
    log.extend([make_tweet(i, float(i)) for i in range(1, 10)])
    assert log.count(3.0, 7.0) == len(list(log.scan(3.0, 7.0)))


def test_counts_by_bucket(log):
    log.extend([make_tweet(i, float(i)) for i in range(10)])
    buckets = log.counts_by_bucket(0.0, 10.0, 5.0)
    assert buckets == [(0.0, 5), (5.0, 5)]


def test_counts_by_bucket_includes_empty(log):
    log.append(make_tweet(1, 1.0))
    log.append(make_tweet(2, 11.0))
    buckets = log.counts_by_bucket(0.0, 15.0, 5.0)
    assert buckets == [(0.0, 1), (5.0, 0), (10.0, 1)]


def test_out_of_order_append_kept_sorted(log):
    log.append(make_tweet(2, 20.0))
    log.append(make_tweet(1, 10.0))
    times = [t.created_at for t in log.scan()]
    assert times == [10.0, 20.0]


def test_sqlite_round_trips_full_tweet():
    with SqliteTweetLog(":memory:") as db:
        original = make_tweet(7, 70.0, text="GOAL #mcfc", geo=(40.0, -74.0))
        db.append(original)
        restored = next(iter(db.scan()))
        assert restored.tweet_id == original.tweet_id
        assert restored.text == original.text
        assert restored.geo == original.geo
        assert restored.user.screen_name == original.user.screen_name
        assert restored.ground_truth["coords"] == (42.36, -71.06)
        assert restored.entities.hashtags == ("mcfc",)


def test_sqlite_persists_to_file(tmp_path):
    path = str(tmp_path / "tweets.db")
    with SqliteTweetLog(path) as db:
        db.extend([make_tweet(i, float(i)) for i in range(1, 4)])
    with SqliteTweetLog(path) as db:
        assert len(db) == 3


def test_bucket_validation(log):
    with pytest.raises(Exception):
        log.counts_by_bucket(0.0, 10.0, 0.0)


def test_append_commits_on_batch_threshold(tmp_path):
    """Single-row appends become durable without an explicit extend()."""
    path = str(tmp_path / "tweets.db")
    db = SqliteTweetLog(path, commit_every=4)
    for i in range(1, 5):
        db.append(make_tweet(i, float(i)))
    # Threshold reached: a second connection must see all four rows even
    # though close() was never called.
    other = SqliteTweetLog(path)
    assert len(other) == 4
    other.close()
    db.close()


def test_close_commits_partial_append_batch(tmp_path):
    """close() flushes appends below the commit threshold (the lost-write
    bug: append never committed, so rows vanished on process exit)."""
    path = str(tmp_path / "tweets.db")
    db = SqliteTweetLog(path, commit_every=1000)
    db.append(make_tweet(1, 1.0))
    db.close()
    with SqliteTweetLog(path) as other:
        assert len(other) == 1


def test_commit_barrier_makes_appends_visible(tmp_path):
    path = str(tmp_path / "tweets.db")
    with SqliteTweetLog(path, commit_every=1000) as db:
        db.append(make_tweet(1, 1.0))
        db.commit()
        with SqliteTweetLog(path) as other:
            assert len(other) == 1


def test_equal_timestamp_order_matches_across_backends():
    """Both backends order ties by (created_at, tweet_id).

    MemoryTweetLog used to keep ties in insertion order while SQLite's
    scan sorts by tweet_id — the backends disagreed row-for-row.
    """
    tweets = [
        make_tweet(5, 10.0),
        make_tweet(2, 10.0),
        make_tweet(9, 10.0),
        make_tweet(1, 20.0),
        make_tweet(7, 5.0),
    ]
    memory = MemoryTweetLog()
    memory.extend(tweets)
    with SqliteTweetLog(":memory:") as sqlite_log:
        sqlite_log.extend(tweets)
        assert [t.tweet_id for t in memory.scan()] == [
            t.tweet_id for t in sqlite_log.scan()
        ]
    assert [t.tweet_id for t in memory.scan()] == [7, 2, 5, 9, 1]


def test_equal_timestamp_range_bounds(log):
    log.extend([make_tweet(i, 10.0) for i in (3, 1, 2)])
    log.append(make_tweet(4, 20.0))
    assert [t.tweet_id for t in log.scan(10.0, 20.0)] == [1, 2, 3]
    assert log.count(10.0, 10.0) == 0
    assert log.count(10.0, 20.0) == 3


def test_sqlite_usable_from_worker_threads():
    """The connection is shared across threads (the storage writer
    appends on its own thread while readers scan); this used to raise
    sqlite3.ProgrammingError."""
    import threading

    db = SqliteTweetLog(":memory:", commit_every=1)
    errors = []

    def work(offset):
        try:
            for i in range(50):
                db.append(make_tweet(offset + i, float(offset + i)))
            list(db.scan())
            db.count()
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=work, args=(1000 * n,)) for n in range(1, 5)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert len(db) == 200
    db.close()


def test_row_to_tweet_honors_stored_user_id_column():
    """The natively stored user_id column is authoritative, even when the
    JSON payload disagrees (it used to be silently ignored)."""
    with SqliteTweetLog(":memory:") as db:
        tweet = make_tweet(1, 1.0)
        db.append(tweet)
        db.commit()
        # Corrupt the payload copy only; the column keeps the real id.
        db._conn.execute(
            "UPDATE tweets SET payload = REPLACE(payload, "
            "'\"user_id\": 1,', '\"user_id\": 999,')"
        )
        restored = next(iter(db.scan()))
        assert restored.user.user_id == tweet.user.user_id == 1


def test_table_sink():
    sink = TableSink("results")
    sink.append({"a": 1})
    sink.append({"a": 2})
    assert len(sink) == 2
    assert [row["a"] for row in sink] == [1, 2]
    # Rows are copied: mutating the original must not alter the table.
    row = {"x": 1}
    sink.append(row)
    row["x"] = 99
    assert sink.rows[-1]["x"] == 1


def _appended(tweets):
    log = MemoryTweetLog()
    for tweet in tweets:
        log.append(tweet)
    return log


@pytest.mark.parametrize(
    "batches",
    [
        # In order, then a batch that starts before the log's end.
        [[(1, 10.0), (2, 20.0)], [(3, 15.0), (4, 30.0)]],
        # Out of order inside one batch.
        [[(1, 10.0), (2, 30.0), (3, 20.0)], [(4, 40.0)]],
        # Equal created_at: ids out of order, across and inside batches.
        [[(5, 10.0), (3, 10.0)], [(4, 10.0), (9, 10.0)], [(1, 10.0)]],
        [[(2, 10.0), (3, 10.0)], [(3, 10.0), (4, 10.0)], [(1, 5.0), (1, 5.0)]],
        [[], [(7, 1.0)], []],
    ],
    ids=["seam", "inside", "ties", "duplicates", "empty"],
)
def test_memory_extend_equals_repeated_append(batches):
    tweets = [[make_tweet(i, t) for i, t in batch] for batch in batches]
    extended = MemoryTweetLog()
    for batch in tweets:
        extended.extend(batch)
    appended = _appended([t for batch in tweets for t in batch])
    assert list(extended.scan()) == list(appended.scan())
    # The same objects in the same order: duplicates and ties included.
    assert list(map(id, extended.scan())) == list(map(id, appended.scan()))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(
            st.tuples(st.integers(0, 6), st.sampled_from([1.0, 2.0, 3.0])),
            max_size=6,
        ),
        max_size=5,
    )
)
def test_memory_extend_equals_repeated_append_property(batches):
    tweets = [[make_tweet(i, t) for i, t in batch] for batch in batches]
    extended = MemoryTweetLog()
    for batch in tweets:
        extended.extend(batch)
    appended = _appended([t for batch in tweets for t in batch])
    assert [id(t) for t in extended.scan()] == [id(t) for t in appended.scan()]
