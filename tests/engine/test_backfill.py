"""The hybrid live + historical tier: backfill splits are invisible.

The acceptance sweep: a time-windowed query over a session with a
populated historical store and ``backfill=True`` must produce rows
row-for-row identical to a pure-live run of the same query at batch
sizes 1 and 256. Plus the planner's window extraction,
the EXPLAIN note, the stream-tap archival wiring, the TQL311 lint, and
the instant-backfill property (historical rows arrive without advancing
the virtual clock — the whole point of the tier).
"""

from __future__ import annotations

import math
import shutil
from itertools import islice

import pytest

from repro import EngineConfig, TweeQL
from repro.engine.planner import (
    BackfillSource,
    PhysicalPlan,
    TweetSource,
    _time_window,
    split_conjuncts,
)
from repro.errors import StorageError
from repro.sql.analysis import analyze_sql
from repro.sql.parser import parse
from repro.storage import HistoricalStore
from repro.twitter.workloads import soccer_match_scenario

QUERY = (
    "SELECT tweet_id, text, created_at FROM twitter "
    "WHERE text CONTAINS 'tevez';"
)


@pytest.fixture(scope="module")
def scenario():
    return soccer_match_scenario(intensity=0.4)


@pytest.fixture(scope="module")
def baseline_ids(scenario):
    """The pure-live run every hybrid configuration must reproduce."""
    session = TweeQL.for_scenarios(scenario, delivery_ratio=1.0)
    return [r["tweet_id"] for r in session.query(QUERY).all()]


@pytest.fixture(scope="module")
def archive_path(scenario, tmp_path_factory):
    """A store holding the stream prefix up to ~20 min past kickoff.

    Built by running a firehose query on an archiving session and closing
    it mid-stream: exactly the "TweeQL has been recording for a while
    before the analyst shows up" setup the hybrid tier exists for.
    """
    path = str(tmp_path_factory.mktemp("backfill") / "archive.db")
    stop_at = scenario.start + 1800.0 + 1200.0  # build-up + 20 min played
    session = TweeQL.for_scenarios(
        scenario,
        config=EngineConfig(storage_path=path),
        delivery_ratio=1.0,
    )
    handle = session.query("SELECT created_at FROM twitter;")
    for row in handle:
        if row["created_at"] > stop_at:
            break
    handle.close()
    session.close()  # stops the writer (flushing it) and closes the store
    with HistoricalStore(path) as store:
        assert store.watermark() is not None
        assert store.watermark() >= stop_at
        assert len(store) > 1000
    return path


def _hybrid_session(scenario, path, **config_kwargs):
    return TweeQL.for_scenarios(
        scenario,
        config=EngineConfig(
            storage_path=path, backfill=True, **config_kwargs
        ),
        delivery_ratio=1.0,
    )


# ---------------------------------------------------------------------------
# Row-for-row equivalence sweep
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("batch_size", [1, 256])
def test_backfill_plus_live_matches_pure_live(
    scenario, baseline_ids, archive_path, tmp_path, batch_size
):
    # Each sweep point gets its own store copy: the hybrid session's own
    # writer re-archives the live tail, which would otherwise grow the
    # watermark between points.
    path = str(tmp_path / "store.db")
    shutil.copy(archive_path, path)
    session = _hybrid_session(scenario, path, batch_size=batch_size)
    try:
        handle = session.query(QUERY)
        ids = [r["tweet_id"] for r in handle.all()]
        assert ids == baseline_ids
        assert handle.backfill_rows > 0  # the store really served rows
    finally:
        session.close()


def test_windowed_backfill_matches_pure_live(scenario, archive_path, tmp_path):
    window_start = scenario.start + 900.0
    windowed = (
        "SELECT tweet_id FROM twitter WHERE text CONTAINS 'tevez' "
        f"AND created_at >= {window_start};"
    )
    live = TweeQL.for_scenarios(scenario, delivery_ratio=1.0)
    expected = [r["tweet_id"] for r in live.query(windowed).all()]

    path = str(tmp_path / "store.db")
    shutil.copy(archive_path, path)
    session = _hybrid_session(scenario, path)
    try:
        handle = session.query(windowed)
        assert [r["tweet_id"] for r in handle.all()] == expected
        assert handle.backfill_rows > 0
    finally:
        session.close()


def _row_splice(store, open_live, matches, window, size):
    """The backfill split as a row-at-a-time splice framed by ``islice``:
    matching store tweets below the cut, then each live tweet above it."""
    start, end = window
    cut = math.nextafter(store.watermark(), math.inf)
    if end is not None:
        cut = min(cut, end)
    served = []

    def tweets():
        for tweet in store.scan(start, cut):
            if matches(tweet):
                served.append(tweet)
                yield tweet
        for tweet in open_live():
            if tweet.created_at >= cut:
                yield tweet

    source = tweets()
    while True:
        chunk = list(islice(source, size))
        yield chunk, len(served)
        if len(chunk) < size:
            return


@pytest.mark.parametrize("size", [1, 7, 256])
def test_backfill_framing_across_the_cut(scenario, archive_path, tmp_path, size):
    """Chunks of store-then-live tweets are framed exactly as the row
    splice frames them, the live connection reads no further and the
    clock moves no further at any chunk boundary, and the served count
    is the splice's."""
    window = (scenario.start + 600.0, None)
    runs = []
    for side in ("ours", "splice"):
        path = str(tmp_path / f"{side}.db")
        shutil.copy(archive_path, path)
        session = _hybrid_session(scenario, path)
        plan = PhysicalPlan(pipeline=iter(()), output_schema=(), ctx=None)
        live = TweetSource(lambda: session.api.filter(track=("tevez",)), plan)
        matches = lambda tweet: tweet.matches_any_keyword(("tevez",))  # noqa: E731
        if side == "ours":
            source = BackfillSource(session.store, live, matches, window, plan)
            chunks = ((chunk, plan.backfill_rows) for chunk in source.chunks(size))
        else:
            chunks = _row_splice(session.store, live.open, matches, window, size)
        frames = []
        for chunk, served in chunks:
            stats = plan.connections[0].stats if plan.connections else None
            frames.append((
                [t.tweet_id for t in chunk],
                None if stats is None else (stats.scanned, stats.delivered),
                session.clock.now,
            ))
        runs.append((frames, served))
        session.close()
    (ours, our_served), (splice, splice_served) = runs
    assert ours == splice
    assert our_served == splice_served > 0
    assert any(frame[1] is None for frame in ours)  # some chunks: store only
    assert [len(ids) for ids, _, _ in ours[:-1]] == [size] * (len(ours) - 1)


# ---------------------------------------------------------------------------
# Instant backfill: history arrives before the clock moves
# ---------------------------------------------------------------------------


def test_backfill_rows_arrive_without_advancing_the_clock(
    scenario, archive_path, tmp_path
):
    path = str(tmp_path / "store.db")
    shutil.copy(archive_path, path)
    # batch_size=1 keeps the scan from pulling the first live row into
    # the same batch as the tail of the backfill.
    session = _hybrid_session(scenario, path, batch_size=1)
    try:
        start = session.clock.now
        assert start == scenario.start
        handle = session.query(QUERY)
        rows = handle.fetch(50)
        assert len(rows) == 50
        assert session.clock.now == start  # no live pull, no virtual wait
        assert all(r["created_at"] >= scenario.start for r in rows)
        handle.close()
    finally:
        session.close()


# ---------------------------------------------------------------------------
# Planner window extraction and EXPLAIN surface
# ---------------------------------------------------------------------------


def _window_of(where: str):
    statement = parse(f"SELECT text FROM twitter WHERE {where};")
    return _time_window(split_conjuncts(statement.where))


def test_time_window_reads_bounds_in_both_orientations():
    assert _window_of("created_at >= 100.0 AND text CONTAINS 'a'") == (
        100.0,
        None,
    )
    assert _window_of("100.0 <= created_at AND created_at < 200.0") == (
        100.0,
        200.0,
    )
    # Multiple bounds tighten to the intersection.
    start, end = _window_of(
        "created_at >= 100.0 AND created_at >= 150.0 AND created_at < 300.0"
    )
    assert (start, end) == (150.0, 300.0)


def test_time_window_widens_non_strict_upper_bound():
    start, end = _window_of("created_at <= 200.0")
    assert start is None
    assert end > 200.0  # superset: <= needs the next float up as the cut


def test_time_window_ignores_other_fields():
    assert _window_of("followers > 100 AND text CONTAINS 'a'") == (None, None)


def test_explain_notes_backfill_split(scenario, archive_path, tmp_path):
    path = str(tmp_path / "store.db")
    shutil.copy(archive_path, path)
    session = _hybrid_session(scenario, path)
    try:
        explain = session.explain(QUERY)
        assert "Backfill: historical store" in explain
    finally:
        session.close()


def test_no_backfill_without_opt_in(scenario, archive_path, tmp_path):
    path = str(tmp_path / "store.db")
    shutil.copy(archive_path, path)
    session = TweeQL.for_scenarios(
        scenario,
        config=EngineConfig(storage_path=path),  # store, but no backfill
        delivery_ratio=1.0,
    )
    try:
        explain = session.explain(QUERY)
        assert "Backfill" not in explain
    finally:
        session.close()


# ---------------------------------------------------------------------------
# Archival tap: the live path feeds the store as a side effect
# ---------------------------------------------------------------------------


def test_session_archives_delivered_tweets(scenario, tmp_path):
    path = str(tmp_path / "tap.db")
    session = TweeQL.for_scenarios(
        scenario,
        config=EngineConfig(storage_path=path, batch_size=64),
        delivery_ratio=1.0,
    )
    handle = session.query("SELECT text FROM twitter;")
    handle.fetch(200)
    handle.close()
    session.storage_writer.flush()
    archived = len(session.store)
    assert archived >= 200  # every *delivered* tweet, not only fetched rows
    assert session.storage_writer.metrics()["written"] == archived
    session.close()
    with HistoricalStore(path) as store:  # durable after close
        assert len(store) == archived


def test_session_close_is_idempotent(scenario, tmp_path):
    session = TweeQL.for_scenarios(
        scenario,
        config=EngineConfig(storage_path=str(tmp_path / "c.db")),
    )
    session.close()
    session.close()
    assert session.api.tap is None


def test_session_close_surfaces_a_failed_writer(scenario, tmp_path):
    """A store error on the drain thread is not swallowed: close() raises
    it, after the thread has exited and the store has been closed."""
    session = TweeQL.for_scenarios(
        scenario,
        config=EngineConfig(storage_path=str(tmp_path / "f.db")),
        delivery_ratio=1.0,
    )
    writer, store = session.storage_writer, session.store

    def full_disk(tweets, commit=True):
        raise StorageError("disk full")

    store.extend = full_disk
    handle = session.query("SELECT text FROM twitter;")
    delivered = len(handle.fetch(300))
    handle.close()
    with pytest.raises(StorageError, match="disk full"):
        session.close()
    assert not writer.alive
    assert session.store is None and session.api.tap is None
    with pytest.raises(StorageError):  # closed: the handle is really gone
        store.append(scenario.tweets[0])
    assert writer.written == 0
    assert writer.dropped >= delivered
    session.close()  # and a second close has nothing left to do


# ---------------------------------------------------------------------------
# TQL311: unbounded backfill lint
# ---------------------------------------------------------------------------


def test_tql311_fires_only_for_unbounded_backfill_queries(tmp_path):
    config = EngineConfig(
        storage_path=str(tmp_path / "lint.db"), backfill=True
    )
    unbounded = analyze_sql(
        "SELECT text FROM twitter WHERE text CONTAINS 'quake';",
        config=config,
    )
    assert "TQL311" in [d.code for d in unbounded.infos]
    bounded = analyze_sql(
        "SELECT text FROM twitter WHERE text CONTAINS 'quake' "
        "AND created_at >= 1307838600.0;",
        config=config,
    )
    assert "TQL311" not in [d.code for d in bounded.diagnostics]


def test_tql311_silent_without_backfill_config():
    result = analyze_sql(
        "SELECT text FROM twitter WHERE text CONTAINS 'quake';",
        config=EngineConfig(),
    )
    assert "TQL311" not in [d.code for d in result.diagnostics]
