"""The historical tier: indexes, writer, and three-backend equivalence.

The Hypothesis suite pins ``MemoryTweetLog`` ≡ ``SqliteTweetLog`` ≡
``HistoricalStore`` on ``scan`` / ``count`` / ``counts_by_bucket`` over
random tweet sets, including out-of-order and equal-timestamp appends —
the contract the planner's backfill split relies on (history must read
back in exactly the order a live scan would have produced).
"""

from __future__ import annotations

import pathlib
import shutil
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage import (
    HistoricalStore,
    MemoryTweetLog,
    SqliteTweetLog,
    StorageWriter,
)
from repro.twitter.models import Tweet, User


def make_tweet(tweet_id, t, text="hello world", geo=None):
    return Tweet(
        tweet_id=tweet_id,
        created_at=t,
        user=User(
            user_id=10_000 + tweet_id,
            screen_name=f"u{tweet_id}",
            location="Boston",
            home=(42.36, -71.06),
            geo_enabled=bool(geo),
        ),
        text=text,
        geo=geo,
        ground_truth={},
    )


# ---------------------------------------------------------------------------
# HistoricalStore features
# ---------------------------------------------------------------------------


def test_watermark_empty_and_populated():
    with HistoricalStore(":memory:") as store:
        assert store.watermark() is None
        store.extend([make_tweet(1, 10.0), make_tweet(2, 30.0)])
        assert store.watermark() == 30.0


def test_partitions_follow_created_at():
    with HistoricalStore(":memory:", partition_seconds=100.0) as store:
        store.extend(
            [make_tweet(1, 10.0), make_tweet(2, 150.0), make_tweet(3, 160.0)]
        )
        assert store.partitions() == [(0.0, 1), (100.0, 2)]


def test_search_text_matches_scan_filter():
    with HistoricalStore(":memory:") as store:
        store.extend(
            [
                make_tweet(1, 10.0, "earthquake in chile"),
                make_tweet(2, 20.0, "soccer goal"),
                make_tweet(3, 30.0, "another EARTHQUAKE report"),
            ]
        )
        hits = [t.tweet_id for t in store.search_text("earthquake")]
        assert hits == [1, 3]
        # Time bounds compose with the text match.
        assert [t.tweet_id for t in store.search_text("earthquake", 15.0)] == [3]


def test_search_text_fallback_without_fts():
    with HistoricalStore(":memory:") as store:
        store.extend([make_tweet(1, 10.0, "quake"), make_tweet(2, 20.0, "ball")])
        store.fts_enabled = False  # force the LIKE/scan fallback
        assert [t.tweet_id for t in store.search_text("quake")] == [1]


def test_search_box_matches_scan_filter():
    with HistoricalStore(":memory:") as store:
        store.extend(
            [
                make_tweet(1, 10.0, geo=(35.0, -71.0)),
                make_tweet(2, 20.0, geo=(10.0, 10.0)),
                make_tweet(3, 30.0),  # not geotagged
            ]
        )
        expected = [1]
        assert [
            t.tweet_id for t in store.search_box(30.0, 40.0, -80.0, -60.0)
        ] == expected
        store.rtree_enabled = False  # force the Python fallback
        assert [
            t.tweet_id for t in store.search_box(30.0, 40.0, -80.0, -60.0)
        ] == expected


def test_metrics_snapshots_round_trip():
    with HistoricalStore(":memory:") as store:
        wrote = store.record_metrics(
            0.0, 60.0, {"rows": 5, "ratio": 0.5, "label": "skipped"}, label="ev"
        )
        assert wrote == 2  # the string value is skipped
        store.record_metrics(60.0, 120.0, {"rows": 9}, label="ev")
        series = store.metrics_series(label="ev", name="rows")
        assert [(s["window_start"], s["value"]) for s in series] == [
            (0.0, 5.0),
            (60.0, 9.0),
        ]
        # Re-recording the same window replaces the sample.
        store.record_metrics(0.0, 60.0, {"rows": 7}, label="ev")
        series = store.metrics_series(label="ev", name="rows")
        assert series[0]["value"] == 7.0


def test_store_file_round_trip(tmp_path):
    path = str(tmp_path / "hist.db")
    with HistoricalStore(path) as store:
        store.extend([make_tweet(i, float(i), geo=(1.0, 2.0)) for i in range(5)])
        store.record_metrics(0.0, 5.0, {"rows": 5})
    with HistoricalStore(path) as reopened:
        assert len(reopened) == 5
        assert reopened.watermark() == 4.0
        assert reopened.metrics_series()[0]["value"] == 5.0


WORLD = (-90.0, 90.0, -180.0, 180.0)


def ids(tweets):
    return [t.tweet_id for t in tweets]


def text_oracle(store, needle):
    return [t.tweet_id for t in store.scan() if needle in t.text.lower()]


def box_oracle(store, min_lat, max_lat, min_lon, max_lon):
    return [
        t.tweet_id
        for t in store.scan()
        if t.geo is not None
        and min_lat <= t.geo[0] <= max_lat
        and min_lon <= t.geo[1] <= max_lon
    ]


def assert_answers_like_fresh_store(store):
    """``store``'s scan and both searches equal the Python oracles and a
    store freshly built from the same tweets."""
    tweets = list(store.scan())
    with HistoricalStore(":memory:") as fresh:
        fresh.extend(tweets)
        assert ids(fresh.scan()) == ids(tweets)
        for needle in ("goal", "kickoff", "tweet", "absent"):
            hits = ids(store.search_text(needle))
            assert hits == text_oracle(store, needle)
            assert hits == ids(fresh.search_text(needle))
        for box in (WORLD, (40.0, 42.0, -72.0, -70.0)):
            hits = ids(store.search_box(*box))
            assert hits == box_oracle(store, *box)
            assert hits == ids(fresh.search_box(*box))


def test_historical_store_upgrades_plain_log(tmp_path):
    """Opening a plain SqliteTweetLog file as a HistoricalStore backfills
    the partition column and indexes the pre-existing rows."""
    path = str(tmp_path / "old.db")
    tweets = [
        make_tweet(
            i + 1,
            50.0 + 10.0 * i,
            text="late goal" if i % 2 else "kickoff",
            geo=(41.0, -71.0) if i % 3 == 0 else None,
        )
        for i in range(12)
    ]
    with SqliteTweetLog(path) as old:
        old.extend(tweets)
    with HistoricalStore(path, partition_seconds=100.0) as store:
        assert store.partitions() == [(0.0, 5), (100.0, 7)]
        assert len(ids(store.search_text("goal"))) == 6
        assert len(ids(store.search_box(*WORLD))) == 4
        assert_answers_like_fresh_store(store)
        # Re-archiving the same tweets is then a no-op, not a repair.
        store.extend(tweets)
        assert store.unchanged == len(tweets)
        assert_answers_like_fresh_store(store)


def test_legacy_fts_layout_migrates_once(tmp_path):
    """``fixtures/legacy_fts_store.db`` was written by the last commit
    whose FTS table was ``fts5(text, tweet_id UNINDEXED)`` with automatic
    rowids (60 tweets, the first 10 re-archived so rowids and tweet ids
    disagree). It must open, migrate to the rowid-keyed layout once, and
    answer like a freshly built store."""
    fixture = pathlib.Path(__file__).parent / "fixtures" / "legacy_fts_store.db"
    path = str(tmp_path / "legacy.db")
    shutil.copy(fixture, path)
    with HistoricalStore(path, partition_seconds=100.0) as store:
        assert len(store) == 60
        columns = [
            row[1]
            for row in store._conn.execute("PRAGMA table_info(tweets_fts)")
        ]
        assert columns == ["text"]
        assert len(ids(store.search_text("goal"))) == 20
        assert len(ids(store.search_box(*WORLD))) == 15
        assert_answers_like_fresh_store(store)
        assert store.metrics_series(label="legacy")[0]["value"] == 60.0
        marker = store.get_meta("indexes")
    with HistoricalStore(path, partition_seconds=100.0) as reopened:
        # The marker gates the rebuild: a reopen must not touch the index.
        reopened._conn.execute("DELETE FROM tweets_fts")
        reopened._reconcile_indexes()
        assert reopened.get_meta("indexes") == marker
        assert ids(reopened.search_text("goal")) == []


def test_identical_rearchive_is_a_counted_noop():
    tweets = [
        make_tweet(i, float(i), text=f"goal {i}", geo=(1.0, 2.0))
        for i in range(1, 21)
    ]
    with HistoricalStore(":memory:") as store:
        store.extend(tweets)
        assert store.unchanged == 0
        changes = store._conn.total_changes
        store.extend(tweets)
        for tweet in tweets[:5]:
            store.append(tweet)
        assert store.unchanged == 25
        assert store._conn.total_changes == changes  # not one row rewritten
        # One changed field still replaces everywhere.
        store.append(make_tweet(3, 3.0, text="offside", geo=None))
        assert store.unchanged == 25
        assert 3 not in ids(store.search_text("goal"))
        assert ids(store.search_text("offside")) == [3]
        assert 3 not in ids(store.search_box(*WORLD))
        assert len(store) == 20


@pytest.mark.parametrize("change_text", [False, True], ids=["same", "edited"])
def test_rearchive_cost_is_linear_in_stored_rows(change_text):
    """Re-archiving n stored tweets costs O(n) SQLite VM steps whether the
    rows are identical (skipped) or edited (replaced in every index): 4x
    the tweets may take at most 6x the steps. The per-row FTS scan this
    replaced took ~16x. Counted with the progress handler: no wall clock."""

    def vm_steps(n):
        def tweets(suffix):
            return [
                make_tweet(
                    i,
                    float(i % 97),
                    text=f"goal number {i}{suffix}",
                    geo=(i * 0.01, 1.0) if i % 2 else None,
                )
                for i in range(1, n + 1)
            ]

        with HistoricalStore(":memory:") as store:
            store.extend(tweets(""))
            ticks = [0]

            def tick():
                ticks[0] += 1
                return 0

            store._conn.set_progress_handler(tick, 10)
            store.extend(tweets(" again" if change_text else ""))
            store._conn.set_progress_handler(None, 0)
            assert len(store) == n
            assert store.unchanged == (0 if change_text else n)
            assert len(ids(store.search_text("again"))) == (
                n if change_text else 0
            )
            return ticks[0]

    small, large = vm_steps(300), vm_steps(1200)
    assert small > 0
    assert large / small <= 6.0


# ---------------------------------------------------------------------------
# StorageWriter
# ---------------------------------------------------------------------------


def test_writer_archives_behind_the_live_path():
    with HistoricalStore(":memory:") as store:
        writer = StorageWriter(store, batch_size=8)
        for i in range(100):
            assert writer.write(make_tweet(i, float(i)))
        writer.flush()
        assert len(store) == 100
        assert writer.metrics()["written"] == 100
        assert writer.metrics()["dropped"] == 0
        writer.stop()


def test_writer_drops_when_queue_full_never_blocks():
    class SlowStore:
        def __init__(self):
            self.release = threading.Event()
            self.rows = []

        def extend(self, tweets, commit=True):
            self.release.wait(5.0)
            self.rows.extend(tweets)

        def commit(self):
            pass

    slow = SlowStore()
    writer = StorageWriter(slow, batch_size=1, capacity=4)
    accepted = sum(writer.write(make_tweet(i, float(i))) for i in range(50))
    assert accepted < 50  # the bounded queue refused the overflow...
    assert writer.metrics()["dropped"] == 50 - accepted
    slow.release.set()  # ...without ever blocking the producer
    writer.stop()
    assert len(slow.rows) == accepted


class FailingStore:
    """A store whose second chunk fails, as a full disk would."""

    unchanged = 0

    def __init__(self):
        self.rows = []

    def extend(self, tweets, commit=True):
        if self.rows:
            raise StorageError("disk full")
        self.rows.extend(tweets)

    def commit(self):
        pass


def writer_threads():
    return [
        t for t in threading.enumerate() if t.name == "tweeql-storage-writer"
    ]


def test_writer_failure_surfaces_at_the_barriers():
    before = len(writer_threads())
    store = FailingStore()
    writer = StorageWriter(store, batch_size=4)
    for i in range(10):  # chunks of 4, 4 and a partial 2
        writer.write(make_tweet(i, float(i)))
    started = time.monotonic()
    with pytest.raises(StorageError, match="disk full"):
        writer.flush()
    assert time.monotonic() - started < 5.0  # not the 30 s barrier timeout
    # Later chunks are shed and counted, never handed to the failed store.
    for i in range(10, 14):
        writer.write(make_tweet(i, float(i)))
    with pytest.raises(StorageError, match="disk full"):
        writer.stop()
    assert not writer.alive
    assert len(writer_threads()) == before
    assert len(store.rows) == 4
    metrics = writer.metrics()
    assert (metrics["written"], metrics["dropped"]) == (4, 10)
    assert metrics["pending"] == 0


def test_writer_stop_raises_while_the_drain_is_still_running():
    release = threading.Event()

    class StuckStore(FailingStore):
        def extend(self, tweets, commit=True):
            release.wait(10.0)
            self.rows.extend(tweets)

    writer = StorageWriter(StuckStore(), batch_size=1)
    writer.write(make_tweet(1, 1.0))
    with pytest.raises(StorageError, match="timed out"):
        writer.flush(timeout=0.05)
    with pytest.raises(StorageError, match="still draining"):
        writer.stop(timeout=0.05)
    assert writer.alive
    release.set()
    writer.stop(timeout=10.0)  # a retry keeps waiting and then succeeds
    assert not writer.alive
    assert writer.written == 1


def test_writer_reports_unchanged_rearchives():
    tweets = [make_tweet(i, float(i)) for i in range(30)]
    with HistoricalStore(":memory:") as store:
        store.extend(tweets)
        writer = StorageWriter(store, batch_size=8)
        for tweet in tweets:
            writer.write(tweet)
        writer.write(make_tweet(99, 99.0))
        writer.stop()
        metrics = writer.metrics()
        assert metrics["written"] == 31  # drained to the store, as before
        assert metrics["unchanged"] == 30
        assert len(store) == 31


def test_writer_stop_is_idempotent_and_flushes():
    with HistoricalStore(":memory:") as store:
        writer = StorageWriter(store, batch_size=1000)
        writer.write(make_tweet(1, 1.0))
        writer.stop()
        writer.stop()
        assert len(store) == 1


# ---------------------------------------------------------------------------
# Hypothesis: Memory ≡ Sqlite ≡ Historical
# ---------------------------------------------------------------------------

#: Random tweet sets with deliberately colliding timestamps (small value
#: pool) and shuffled insertion order.
tweet_sets = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=50),  # timestamp pool → ties
        st.booleans(),  # geotagged?
    ),
    min_size=0,
    max_size=40,
).map(
    lambda pairs: [
        make_tweet(
            index + 1,
            float(t),
            text=f"tweet {index} quake" if index % 3 == 0 else f"tweet {index}",
            geo=(40.0 + index * 0.01, -70.0) if geotagged else None,
        )
        for index, (t, geotagged) in enumerate(pairs)
    ]
)

windows = st.tuples(
    st.one_of(st.none(), st.floats(min_value=-5.0, max_value=55.0)),
    st.one_of(st.none(), st.floats(min_value=-5.0, max_value=55.0)),
)


def _backends(tweets):
    memory = MemoryTweetLog()
    memory.extend(tweets)
    sqlite_log = SqliteTweetLog(":memory:", commit_every=3)
    historical = HistoricalStore(":memory:", partition_seconds=10.0)
    for tweet in tweets:  # single-row appends exercise the commit batching
        sqlite_log.append(tweet)
        historical.append(tweet)
    return memory, sqlite_log, historical


@settings(max_examples=40, deadline=None)
@given(tweets=tweet_sets, window=windows)
def test_three_backends_agree_on_scan_count_buckets(tweets, window):
    start, end = window
    memory, sqlite_log, historical = _backends(tweets)
    try:
        reference = [t.tweet_id for t in memory.scan(start, end)]
        for backend in (sqlite_log, historical):
            assert [t.tweet_id for t in backend.scan(start, end)] == reference
            assert backend.count(start, end) == memory.count(start, end)
        buckets_ref = memory.counts_by_bucket(0.0, 50.0, 7.0)
        for backend in (sqlite_log, historical):
            assert backend.counts_by_bucket(0.0, 50.0, 7.0) == buckets_ref
    finally:
        sqlite_log.close()
        historical.close()


@settings(max_examples=25, deadline=None)
@given(tweets=tweet_sets)
def test_scan_order_is_created_at_then_tweet_id(tweets):
    memory, sqlite_log, historical = _backends(tweets)
    try:
        expected = sorted(
            (t.created_at, t.tweet_id) for t in tweets
        )
        for backend in (memory, sqlite_log, historical):
            assert [
                (t.created_at, t.tweet_id) for t in backend.scan()
            ] == expected
    finally:
        sqlite_log.close()
        historical.close()


@settings(max_examples=20, deadline=None)
@given(tweets=tweet_sets)
def test_historical_search_matches_python_filters(tweets):
    _memory, sqlite_log, historical = _backends(tweets)
    sqlite_log.close()
    try:
        assert ids(historical.search_text("quake")) == text_oracle(
            historical, "quake"
        )
        box = (39.0, 41.0, -71.0, -69.0)
        assert ids(historical.search_box(*box)) == box_oracle(historical, *box)
    finally:
        historical.close()


#: Versions of a dozen tweets: ids repeat, and a repeat may move in time,
#: change its text (gaining or losing the search term) or change its geo
#: (moving, appearing or disappearing).
tweet_versions = st.builds(
    make_tweet,
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=50).map(float),
    text=st.sampled_from(["quake alpha", "calm beta", "quake gamma", "delta"]),
    geo=st.sampled_from([None, (40.0, -70.0), (40.5, -70.5), (10.0, 10.0)]),
)

#: A write history: single appends and extends (either commit mode) of
#: chunks that may themselves repeat an id.
write_histories = st.lists(
    st.one_of(
        tweet_versions,
        st.tuples(st.lists(tweet_versions, max_size=8), st.booleans()),
    ),
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(history=write_histories)
def test_upsert_histories_keep_indexes_and_order_exact(history):
    sqlite_log = SqliteTweetLog(":memory:", commit_every=3)
    historical = HistoricalStore(":memory:", partition_seconds=10.0, commit_every=3)
    final, replaced_texts = {}, []
    try:
        for step in history:
            chunk, commit = step if isinstance(step, tuple) else ([step], None)
            for backend in (sqlite_log, historical):
                if commit is None:
                    backend.append(chunk[0])
                else:
                    backend.extend(chunk, commit=commit)
            for tweet in chunk:
                old = final.get(tweet.tweet_id)
                if old is not None and old.text != tweet.text:
                    replaced_texts.append((tweet.tweet_id, old.text))
                final[tweet.tweet_id] = tweet
        memory = MemoryTweetLog()
        memory.extend(list(final.values()))

        expected = sorted((t.created_at, t.tweet_id) for t in final.values())
        for backend in (memory, sqlite_log, historical):
            assert [
                (t.created_at, t.tweet_id) for t in backend.scan()
            ] == expected
            assert len(backend) == len(final)
        assert list(historical.scan()) == list(memory.scan())

        assert ids(historical.search_text("quake")) == text_oracle(
            memory, "quake"
        )
        for box in (WORLD, (39.0, 41.0, -71.0, -69.0)):
            assert ids(historical.search_box(*box)) == box_oracle(memory, *box)
        (indexed,) = historical._conn.execute(
            "SELECT COUNT(*) FROM tweets_fts"
        ).fetchone()
        assert indexed == len(historical)
        for tweet_id, old_text in replaced_texts:
            if final[tweet_id].text != old_text:
                assert tweet_id not in ids(
                    historical.search_text(old_text)
                )
    finally:
        sqlite_log.close()
        historical.close()
