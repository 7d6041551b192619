"""INTO STREAM: derived streams and query composition."""

import pytest

from repro.errors import PlanError
from repro.sql import parse


def test_parse_into_stream():
    stmt = parse("SELECT COUNT(*) AS n FROM twitter WINDOW 1 minutes "
                 "INTO STREAM per_minute;")
    assert stmt.into_stream == "per_minute"
    assert stmt.into is None


def test_parse_into_table_still_works():
    stmt = parse("SELECT text FROM twitter INTO results;")
    assert stmt.into == "results"
    assert stmt.into_stream is None


def test_into_stream_round_trips():
    stmt = parse("SELECT text FROM twitter INTO STREAM s;")
    assert parse(stmt.to_sql()) == stmt


def test_derived_stream_queryable(soccer_session):
    soccer_session.query(
        "SELECT COUNT(*) AS n FROM twitter WHERE text contains 'soccer' "
        "WINDOW 10 minutes INTO STREAM counts;"
    )
    rows = soccer_session.query("SELECT n FROM counts;").all()
    assert rows
    assert all(row["n"] >= 1 for row in rows)


def test_derived_stream_rereads_fresh(soccer_session):
    soccer_session.query(
        "SELECT COUNT(*) AS n FROM twitter WHERE text contains 'tevez' "
        "WINDOW 30 minutes INTO STREAM tevez_counts;"
    )
    first = soccer_session.query("SELECT n FROM tevez_counts;").all()
    second = soccer_session.query("SELECT n FROM tevez_counts;").all()
    # Each read re-runs the upstream pipeline on a fresh connection; the
    # API's ~2% delivery loss makes counts near-identical, not identical
    # (as with real reconnects).
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert abs(a["n"] - b["n"]) <= max(5, 0.1 * a["n"])


def test_derived_stream_schema_includes_window_columns(soccer_session):
    soccer_session.query(
        "SELECT COUNT(*) AS n FROM twitter WHERE text contains 'soccer' "
        "WINDOW 10 minutes INTO STREAM windows;"
    )
    rows = soccer_session.query(
        "SELECT window_start, n FROM windows WHERE n > 0;"
    ).all()
    assert rows
    assert all("window_start" in row for row in rows)


def test_meandev_over_derived_stream_flags_goals(soccer_session, soccer):
    """The paper's composition: peak detection as a stateful TweeQL UDF
    over the aggregate tweet count of an upstream query."""
    soccer_session.query(
        "SELECT COUNT(*) AS n FROM twitter WHERE text contains 'soccer' "
        "OR text contains 'manchester' OR text contains 'liverpool' "
        "WINDOW 1 minutes INTO STREAM volume;"
    )
    rows = soccer_session.query(
        "SELECT meandev(n) AS score, n, window_start FROM volume;"
    ).all()
    spikes = [r for r in rows if r["score"] is not None and r["score"] > 3.0]
    assert spikes
    goal_times = [e.time for e in soccer.truth.events]
    covered = sum(
        1 for t in goal_times
        if any(abs(s["window_start"] - t) <= 120 for s in spikes)
    )
    assert covered == len(goal_times)


def test_derived_can_feed_aggregation(soccer_session):
    soccer_session.query(
        "SELECT COUNT(*) AS n FROM twitter WHERE text contains 'soccer' "
        "WINDOW 1 minutes INTO STREAM minute_counts;"
    )
    rows = soccer_session.query(
        "SELECT SUM(n) AS total, COUNT(*) AS windows FROM minute_counts "
        "WINDOW 1 hours;"
    ).all()
    assert rows
    assert all(row["total"] >= row["windows"] for row in rows)


def test_cannot_shadow_twitter_with_stream(soccer_session):
    with pytest.raises(PlanError):
        soccer_session.query(
            "SELECT text FROM twitter WHERE text contains 'a' "
            "INTO STREAM twitter;"
        )


def test_into_stream_handle_also_yields_rows(soccer_session):
    handle = soccer_session.query(
        "SELECT text FROM twitter WHERE text contains 'tevez' "
        "LIMIT 3 INTO STREAM tevez_stream;"
    )
    assert len(handle.all()) == 3


def test_closing_a_reader_releases_its_upstream_connection(soccer_session):
    """Each read of a derived stream opens a connection for its upstream
    plan; a reader closed mid-stream (a handle, or a shared scan over the
    stream) gives it back, so repeated reads stay within the API's
    connection budget."""
    soccer_session.query(
        "SELECT text FROM twitter WHERE text contains 'goal' "
        "INTO STREAM goals;"
    ).close()
    api = soccer_session.api
    for _read in range(6):
        handle = soccer_session.query("SELECT text FROM goals;")
        next(iter(handle))
        handle.close()
        assert api.open_connections == 0

        group = soccer_session.shared("goals")
        tenant = group.query("SELECT text FROM goals;")
        next(iter(tenant))
        tenant.close()
        group.close()
        assert api.open_connections == 0
