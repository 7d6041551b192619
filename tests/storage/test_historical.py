"""The historical tier: search, writer, and three-backend equivalence.

The Hypothesis suite pins ``MemoryTweetLog`` ≡ ``SqliteTweetLog`` ≡
``HistoricalStore`` on ``scan`` / ``count`` / ``counts_by_bucket`` over
random tweet sets, including out-of-order and equal-timestamp appends —
the contract the planner's backfill split relies on (history must read
back in exactly the order a live scan would have produced).
"""

from __future__ import annotations

import json
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
    )


# ---------------------------------------------------------------------------
# HistoricalStore features
# ---------------------------------------------------------------------------


def test_watermark_empty_and_populated():
    with HistoricalStore(":memory:") as store:
        assert store.watermark() is None
        store.extend([make_tweet(1, 10.0), make_tweet(2, 30.0)])
        assert store.watermark() == 30.0


def test_search_text_matches_scan_filter():
    """The API's ``track`` rule, a casefolded substring: a token index
    would miss "goalkeeper" for "goal", and ``str.lower`` would miss
    "Straßenbahn" for "STRASSE"."""
    with HistoricalStore(":memory:") as store:
        store.extend(
            [
                make_tweet(1, 10.0, "earthquake in chile"),
                make_tweet(2, 20.0, "soccer goal"),
                make_tweet(3, 30.0, "another EARTHQUAKE report"),
                make_tweet(4, 40.0, "what a goalkeeper"),
                make_tweet(5, 50.0, "Straßenbahn to the stadium"),
            ]
        )
        assert ids(store.search_text("earthquake")) == [1, 3]
        # Time bounds compose with the text match.
        assert ids(store.search_text("earthquake", 15.0)) == [3]
        assert ids(store.search_text("goal")) == [2, 4]
        assert ids(store.search_text("STRASSE")) == [5]


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


def ids(tweets):
    return [t.tweet_id for t in tweets]


def text_oracle(store, needle, start=None, end=None):
    """The scan filtered by the API's ``track`` rule."""
    return [
        t.tweet_id
        for t in store.scan(start, end)
        if t.matches_any_keyword((needle,))
    ]


def assert_answers_like_fresh_store(store):
    """``store``'s scan and search equal the Python oracle and a store
    freshly built from the same tweets."""
    tweets = list(store.scan())
    with HistoricalStore(":memory:") as fresh:
        fresh.extend(tweets)
        assert ids(fresh.scan()) == ids(tweets)
        for needle in ("goal", "kickoff", "tweet", "absent"):
            hits = ids(store.search_text(needle))
            assert hits == text_oracle(store, needle)
            assert hits == ids(fresh.search_text(needle))


def test_historical_store_upgrades_plain_log(tmp_path):
    """Opening a plain SqliteTweetLog file as a HistoricalStore serves its
    pre-existing rows."""
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
    with HistoricalStore(path) as store:
        assert ids(store.scan()) == ids(tweets)
        assert len(ids(store.search_text("goal"))) == 6
        assert_answers_like_fresh_store(store)
        # Re-archiving the same tweets is then a no-op, not a repair.
        store.extend(tweets)
        assert store.unchanged == len(tweets)
        assert_answers_like_fresh_store(store)


def test_legacy_fts_layout_still_works(tmp_path):
    """``fixtures/legacy_fts_store.db`` was written when the store also
    kept an FTS5 table, an R-tree and a ``partition`` column (60 tweets,
    the first 10 re-archived), and when every payload also carried the
    author's ``user_id`` and the tweet's ``ground_truth``. Those stay in
    the file, unread: it opens, scans in ``(created_at, tweet_id)``
    order, keeps its metrics, re-archives its own tweets as a counted
    no-op, and answers like a freshly built store."""
    fixture = pathlib.Path(__file__).parent / "fixtures" / "legacy_fts_store.db"
    path = str(tmp_path / "legacy.db")
    shutil.copy(fixture, path)
    with HistoricalStore(path) as store:
        payloads = [
            json.loads(payload)
            for (payload,) in store._conn.execute("SELECT payload FROM tweets")
        ]
        assert all(
            "ground_truth" in p and "user_id" in p["user"] for p in payloads
        )
        tweets = list(store.scan())
        assert len(tweets) == len(store) == 60
        assert [t.user.user_id for t in tweets] == [
            10_000 + t.tweet_id for t in tweets
        ]
        keys = [(t.created_at, t.tweet_id) for t in tweets]
        assert keys == sorted(keys)
        assert store.metrics_series(label="legacy")[0]["value"] == 60.0
        assert len(ids(store.search_text("goal"))) == 20
        assert_answers_like_fresh_store(store)
        changes = store._conn.total_changes
        store.extend(tweets)
        assert store.unchanged == 60
        assert store._conn.total_changes == changes  # not one row rewritten
    with HistoricalStore(path) as reopened:
        tables = {
            name
            for (name,) in reopened._conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        assert {"tweets_fts", "tweets_geo"} <= tables  # left as they were
        assert ids(reopened.scan()) == ids(tweets)
        assert_answers_like_fresh_store(reopened)


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
        # One changed field still replaces the row.
        store.append(make_tweet(3, 3.0, text="offside", geo=None))
        assert store.unchanged == 25
        assert 3 not in ids(store.search_text("goal"))
        assert ids(store.search_text("offside")) == [3]
        assert [t.geo for t in store.scan(3.0, 4.0)] == [None]
        assert len(store) == 20


@pytest.mark.parametrize("change_text", [False, True], ids=["same", "edited"])
def test_rearchive_cost_is_linear_in_stored_rows(change_text):
    """Re-archiving n stored tweets costs O(n) SQLite VM steps whether the
    rows are identical (skipped) or edited (replaced): 4x the tweets may
    take at most 6x the steps, where a quadratic path would take ~16x.
    Counted with the progress handler: no wall clock."""

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
    historical = HistoricalStore(":memory:")
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
@given(tweets=tweet_sets, window=windows)
def test_historical_search_matches_python_filters(tweets, window):
    memory, sqlite_log, historical = _backends(tweets)
    sqlite_log.close()
    try:
        for needle in ("quake", "QUAKE", "tweet 1"):
            assert ids(historical.search_text(needle, *window)) == text_oracle(
                memory, needle, *window
            )
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
    historical = HistoricalStore(":memory:", commit_every=3)
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
        for tweet_id, old_text in replaced_texts:
            if final[tweet_id].text != old_text:
                assert tweet_id not in ids(
                    historical.search_text(old_text)
                )
    finally:
        sqlite_log.close()
        historical.close()
