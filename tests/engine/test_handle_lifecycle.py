"""QueryHandle lifecycle: close() must release everything, exactly once.

Covers two regressions — close()/to_csv() never drained in-flight async
service calls, and to_csv() appended a ``created_at`` column that was not
in the schema — plus connection release on close, and interleaved
fetch()/all() never duplicating or dropping rows.
"""

from __future__ import annotations

import csv
import itertools

import pytest

from repro import EngineConfig, TweeQL
from repro.errors import ExecutionError
from repro.twitter.users import UserPopulation
from repro.twitter.workloads import soccer_match_scenario

BASE_TS = 1_307_000_000.0
SCHEMA = ("tweet_id", "text", "loc", "created_at", "lang", "followers")

ROWS = [
    {
        "tweet_id": 1000 + i,
        "created_at": BASE_TS + 15.0 * i,
        "text": f"goal {i}" if i % 3 else f"quiet {i}",
        "lang": ("en", "es")[i % 2],
        "followers": 17 * i % 900,
        "loc": "London",
    }
    for i in range(120)
]


def make_session(**config_kwargs):
    session = TweeQL(config=EngineConfig(**config_kwargs))
    session.register_source(
        "s", lambda: iter([dict(r) for r in ROWS]), SCHEMA
    )
    return session


def scenario_session(**config_kwargs):
    scenario = soccer_match_scenario(
        seed=11, population=UserPopulation(size=300, seed=11)
    )
    return TweeQL.for_scenarios(
        scenario, seed=11, config=EngineConfig(**config_kwargs)
    )


# ---------------------------------------------------------------------------
# close() releases connections
# ---------------------------------------------------------------------------


def test_close_mid_stream_releases_api_connections():
    session = scenario_session()
    handle = session.query("SELECT text FROM twitter WHERE text CONTAINS 'goal';")
    rows = handle.fetch(5)
    assert rows
    # Exactly one connection was opened, and fetch(5) leaves it held.
    assert len(handle.connections) == 1
    assert session.api.open_connections == 1
    handle.close()
    assert session.api.open_connections == 0
    # close() is idempotent.
    handle.close()
    assert session.api.open_connections == 0


def test_iteration_after_close_raises():
    session = make_session()
    handle = session.query("SELECT text FROM s;")
    handle.fetch(2)
    handle.close()
    with pytest.raises(ExecutionError):
        iter(handle)
    with pytest.raises(ExecutionError):
        handle.fetch(1)
    with pytest.raises(ExecutionError):
        handle.all()


class KthRowError(RuntimeError):
    pass


def test_udf_error_surfaces_unwrapped_and_releases_everything():
    session = scenario_session()
    calls = itertools.count(1)

    def flaky(_ctx, text):
        if next(calls) == 7:
            raise KthRowError("row 7")
        return text

    session.register_udf("flaky", flaky)
    handle = session.query(
        "SELECT flaky(text) AS t FROM twitter WHERE text CONTAINS 'goal';"
    )
    with pytest.raises(KthRowError) as caught:
        handle.all()
    assert type(caught.value) is KthRowError
    assert session.api.open_connections == 0


# ---------------------------------------------------------------------------
# interleaved fetch never duplicates or drops rows
# ---------------------------------------------------------------------------


def test_interleaved_fetch_matches_single_drain():
    sql = "SELECT text, followers FROM s WHERE followers > 50;"
    piecemeal = make_session().query(sql)
    collected = piecemeal.fetch(13) + piecemeal.fetch(1) + piecemeal.fetch(29)
    collected += piecemeal.all()
    piecemeal.close()
    # fetch() past end of stream returns empty, not an error.
    reference = make_session().query(sql).all()
    assert collected == reference


def test_fetch_after_exhaustion_is_empty():
    handle = make_session().query("SELECT text FROM s;")
    handle.all()
    assert handle.fetch(5) == []


# ---------------------------------------------------------------------------
# drain-on-release regression (bug: close()/to_csv() skipped drain)
# ---------------------------------------------------------------------------


def test_close_drains_in_flight_service_calls():
    session = scenario_session(latency_mode="async")
    handle = session.query(
        "SELECT latitude(loc) AS lat, text FROM twitter "
        "WHERE text CONTAINS 'goal';"
    )
    handle.fetch(4)  # the batch's launches are still in flight
    handle.close()
    assert not session.geocode_managed._in_flight


def test_close_drains_service_calls_only_the_where_makes():
    """Requests launched by a WHERE conjunct drain too, not only the
    select list's."""
    session = scenario_session(latency_mode="async", partial_results=True)
    handle = session.query(
        "SELECT text FROM twitter "
        "WHERE text CONTAINS 'goal' AND latitude(loc) > 0;"
    )
    handle.fetch(5)
    handle.close()
    assert not session.geocode_managed._in_flight


def test_to_csv_drains_in_flight_service_calls(tmp_path):
    session = scenario_session(latency_mode="async")
    handle = session.query(
        "SELECT latitude(loc) AS lat, text FROM twitter "
        "WHERE text CONTAINS 'goal';"
    )
    out = tmp_path / "rows.csv"
    written = handle.to_csv(str(out), limit=4)
    assert written == 4
    assert not session.geocode_managed._in_flight
    handle.close()


# ---------------------------------------------------------------------------
# to_csv column regression (bug: created_at appended even when absent)
# ---------------------------------------------------------------------------


def test_to_csv_columns_come_from_schema_only(tmp_path):
    session = make_session()
    handle = session.query(
        "SELECT COUNT(*) AS n, lang FROM s GROUP BY lang WINDOW 300 seconds;"
    )
    out = tmp_path / "agg.csv"
    count = handle.to_csv(str(out))
    handle.close()
    with open(out, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader)
        body = list(reader)
    expected = [name for name in handle.schema if not name.startswith("__")]
    assert header == expected
    assert "created_at" not in header
    assert len(body) == count > 0


def test_to_csv_matches_all(tmp_path):
    sql = "SELECT text, followers FROM s WHERE followers > 50;"
    out = tmp_path / "rows.csv"
    written = make_session().query(sql).to_csv(str(out))
    reference = make_session().query(sql).all()
    assert written == len(reference)
    with open(out, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    assert [r["text"] for r in rows] == [r["text"] for r in reference]
