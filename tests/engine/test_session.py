"""End-to-end session behaviour: queries, UDFs, INTO tables, configs."""

import pytest

from repro import EngineConfig, TweeQL
from repro.geo.service import LatencyModel


def test_simple_select_rows_have_schema_fields(soccer_session):
    handle = soccer_session.query(
        "SELECT text, screen_name FROM twitter WHERE text contains 'tevez';"
    )
    rows = handle.fetch(5)
    assert rows
    for row in rows:
        assert "tevez" in row["text"].lower()
        assert row["screen_name"].startswith("user")
    assert handle.schema[:2] == ("text", "screen_name")


def test_fetch_then_fetch_continues(soccer_session):
    handle = soccer_session.query(
        "SELECT text FROM twitter WHERE text contains 'soccer';"
    )
    first = handle.fetch(3)
    second = handle.fetch(3)
    assert len(first) == len(second) == 3
    assert [r["text"] for r in first] != [r["text"] for r in second]


def test_limit_stops_stream(soccer_session):
    rows = soccer_session.query(
        "SELECT text FROM twitter WHERE text contains 'soccer' LIMIT 4;"
    ).all()
    assert len(rows) == 4


def test_close_releases_connection(session_factory):
    # A small batch keeps the scan from draining the whole (finite,
    # API-filtered) stream on the first pull — the connection must stay
    # open while results remain, and close() must release it.
    session = session_factory("soccer", config=EngineConfig(batch_size=16))
    api = session.api
    handle = session.query(
        "SELECT text FROM twitter WHERE text contains 'soccer';"
    )
    handle.fetch(1)
    assert api.open_connections == 1
    handle.close()
    assert api.open_connections == 0
    from repro.errors import ExecutionError

    with pytest.raises(ExecutionError):
        iter(handle)


def test_limit_releases_connection(soccer_session):
    """Draining a LIMIT-bounded query frees the API connection slot even
    though the underlying stream was cut short (regression: reference
    cycles used to defer the release to gc)."""
    for _ in range(6):  # more than the connection limit
        soccer_session.query(
            "SELECT text FROM twitter WHERE text contains 'soccer' LIMIT 2;"
        ).all()
    assert soccer_session.api.open_connections == 0


def test_sentiment_udf_labels(soccer_session):
    rows = soccer_session.query(
        "SELECT sentiment(text) AS s, text FROM twitter "
        "WHERE text contains 'goal' LIMIT 50;"
    ).all()
    labels = {row["s"] for row in rows}
    assert labels <= {-1, 0, 1}
    assert len(labels) >= 2


def test_geocoding_udfs(soccer_session):
    rows = soccer_session.query(
        "SELECT latitude(loc) AS lat, longitude(loc) AS lon, loc "
        "FROM twitter WHERE text contains 'soccer' LIMIT 40;"
    ).all()
    resolved = [r for r in rows if r["lat"] is not None]
    assert resolved
    for row in resolved:
        assert -90 <= row["lat"] <= 90
        assert -180 <= row["lon"] <= 180


def test_windowed_count(soccer_session):
    rows = soccer_session.query(
        "SELECT COUNT(*) AS n FROM twitter WHERE text contains 'soccer' "
        "WINDOW 10 minutes;"
    ).all()
    assert rows
    assert all(row["n"] >= 1 for row in rows)
    assert all(
        row["window_end"] - row["window_start"] == 600.0 for row in rows
    )


def test_into_table_captures_rows(soccer_session):
    soccer_session.query(
        "SELECT COUNT(*) AS n FROM twitter WHERE text contains 'tevez' "
        "WINDOW 30 minutes INTO tevez_counts;"
    ).all()
    table = soccer_session.table("tevez_counts")
    assert len(table) > 0
    assert all("n" in row for row in table)


def test_custom_udf(soccer_session):
    soccer_session.register_udf("exclaim", lambda _ctx, s: f"{s}!")
    rows = soccer_session.query(
        "SELECT exclaim(screen_name) AS shouted FROM twitter "
        "WHERE text contains 'soccer' LIMIT 2;"
    ).all()
    assert all(row["shouted"].endswith("!") for row in rows)


def test_custom_stateful_udf(soccer_session):
    class Counter:
        def __init__(self):
            self.n = 0

        def __call__(self, _ctx):
            self.n += 1
            return self.n

    soccer_session.register_udf("tick", Counter, stateful=True)
    rows = soccer_session.query(
        "SELECT tick() AS n FROM twitter WHERE text contains 'soccer' LIMIT 5;"
    ).all()
    assert [row["n"] for row in rows] == [1, 2, 3, 4, 5]


def test_confidence_clause_query(soccer_session):
    rows = soccer_session.query(
        "SELECT AVG(sentiment(text)) AS s FROM twitter "
        "WHERE text contains 'soccer' GROUP BY lang "
        "WINDOW CONFIDENCE 0.2 MAX 30 minutes;"
    ).all()
    assert rows
    assert {"confidence", "age", "eos"} >= {row["emit_reason"] for row in rows}


def test_confidence_clause_rejects_non_avg(soccer_session):
    from repro.errors import PlanError

    with pytest.raises(PlanError) as excinfo:
        soccer_session.query(
            "SELECT COUNT(*) FROM twitter WHERE text contains 'x' GROUP BY lang "
            "WINDOW CONFIDENCE 0.2;"
        )
    assert excinfo.value.code == "TQL213"


def test_confidence_clause_rejects_having(soccer_session):
    """HAVING has no meaning under confidence-triggered emission, so it is
    an error rather than a clause the operator would silently drop."""
    from repro.errors import PlanError

    with pytest.raises(PlanError) as excinfo:
        soccer_session.query(
            "SELECT lang, AVG(followers) AS f FROM twitter "
            "WHERE text CONTAINS 'goal' GROUP BY lang "
            "WINDOW CONFIDENCE 200 MAX 30 minutes HAVING 1 = 0;"
        )
    assert excinfo.value.code == "TQL213"


def test_confidence_clause_is_per_statement(soccer_session):
    """Two statements in one session run two different targets."""
    sql = (
        "SELECT lang, AVG(followers) AS f FROM twitter "
        "WHERE text CONTAINS 'goal' GROUP BY lang WINDOW CONFIDENCE {};"
    )
    tight, loose = (
        soccer_session.query(sql.format(target)).all() for target in (50, 400)
    )
    for rows, target in ((tight, 50), (loose, 400)):
        assert all(
            row["ci_halfwidth"] <= target
            for row in rows
            if row["emit_reason"] == "confidence"
        )
    assert len(loose) > len(tight)


def test_latency_modes_agree_on_results(session_factory):
    sql = (
        "SELECT latitude(loc) AS lat FROM twitter "
        "WHERE text contains 'tevez' LIMIT 30;"
    )
    results = {}
    for mode in ("blocking", "cached", "batched", "async"):
        config = EngineConfig(
            latency_mode=mode,
            geocode_latency=LatencyModel(0.3, sigma=0.0),
        )
        session = session_factory("soccer", config=config)
        results[mode] = [row["lat"] for row in session.query(sql).all()]
    assert results["blocking"] == results["cached"] == results["batched"] == results["async"]


def test_cached_mode_far_cheaper_than_blocking(session_factory):
    sql = (
        "SELECT latitude(loc) AS lat FROM twitter "
        "WHERE text contains 'soccer' LIMIT 200;"
    )
    times = {}
    for mode in ("blocking", "cached"):
        config = EngineConfig(
            latency_mode=mode, geocode_latency=LatencyModel(0.3, sigma=0.0)
        )
        session = session_factory("soccer", config=config)
        session.query(sql).all()
        times[mode] = session.geocode_managed.stats.stall_seconds
    assert times["cached"] < times["blocking"] / 2


def test_for_scenarios_requires_one():
    with pytest.raises(ValueError):
        TweeQL.for_scenarios()


def test_stats_track_rows(soccer_session):
    handle = soccer_session.query(
        "SELECT text FROM twitter WHERE text contains 'tevez' AND followers > 0 LIMIT 10;"
    )
    handle.all()
    stats = handle.stats
    assert stats.rows_scanned >= 10
    assert stats.rows_emitted == 10
    assert stats.predicate_evaluations >= 10
