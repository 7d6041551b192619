"""Cross-shard equivalence: sharded execution must be indistinguishable
from the serial engine.

The property-based suite generates small seeded tweet streams and asserts
that for every supported query shape (filter, UDF projection, GROUP BY +
window, confidence window, LIMIT) the sharded engine at workers ∈ {1, 2, 4}
yields *row-for-row identical* results — order included — and consistent
aggregated stats versus the serial engine. The paper's three demo queries
get the same treatment on the simulated firehose (the PR's acceptance
criterion), plus EXPLAIN and serial-fallback coverage.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import EngineConfig, TweeQL
from repro.engine.confidence import ConfidencePolicy
from tests.integration.test_paper_queries import QUERY_1, QUERY_2, QUERY_3

BASE_TS = 1_307_000_000.0
WORDS = ("goal", "obama", "quake", "rain", "vote", "march")
LANGS = ("en", "es", "pt")
LOCS = ("New York, NY", "London", "", "Tokyo", "nowhere-ville")
SCHEMA = ("tweet_id", "text", "loc", "created_at", "lang", "followers")

#: The equivalence query shapes. Stats marked ``full`` must aggregate to
#: exactly the serial counters; ``limit`` shapes stop scanning early in
#: serial mode, so only the output-row counter is comparable.
QUERY_SHAPES = {
    "filter": (
        "SELECT text, followers FROM s "
        "WHERE text CONTAINS 'goal' AND followers > 500;",
        "full",
    ),
    "udf": (
        "SELECT lower(text) AS t, length(text) AS n, lang FROM s "
        "WHERE followers >= 0;",
        "full",
    ),
    "group_window": (
        "SELECT COUNT(*) AS n, AVG(followers) AS f, lang FROM s "
        "GROUP BY lang WINDOW 120 seconds;",
        "full",
    ),
    "order_limit_window": (
        "SELECT COUNT(*) AS n, lang FROM s GROUP BY lang "
        "WINDOW 300 seconds ORDER BY COUNT(*) DESC LIMIT 2;",
        "full",
    ),
    "limit": (
        "SELECT text FROM s WHERE followers > 200 LIMIT 7;",
        "limit",
    ),
}

#: Stats that must aggregate to exactly the serial counters. Excludes
#: ``windows_closed``: a window spanning k shards closes once per shard.
EXACT_STATS = (
    "rows_scanned",
    "rows_after_filter",
    "predicate_evaluations",
    "rows_emitted",
    "groups_emitted",
)


@st.composite
def tweet_streams(draw):
    """A small time-ordered stream with timestamp ties and gaps."""
    n = draw(st.integers(min_value=10, max_value=70))
    rows = []
    ts = BASE_TS
    for i in range(n):
        ts += draw(st.sampled_from((0.0, 1.0, 7.0, 45.0, 400.0)))
        words = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=3))
        rows.append(
            {
                "tweet_id": 1000 + i,
                "created_at": ts,
                "text": " ".join(words),
                "lang": draw(st.sampled_from(LANGS)),
                "followers": draw(st.integers(min_value=0, max_value=2000)),
                "loc": draw(st.sampled_from(LOCS)),
            }
        )
    return rows


def make_session(rows, workers, policy=None, use_eddy=False, batch_size=256):
    config = EngineConfig(
        workers=workers,
        confidence_policy=policy,
        use_eddy=use_eddy,
        batch_size=batch_size,
    )
    session = TweeQL(config=config)
    session.register_source(
        "s", lambda: iter([dict(r) for r in rows]), SCHEMA
    )
    return session


def run(session, sql):
    handle = session.query(sql)
    rows = handle.all()
    stats = handle.stats.as_dict()
    handle.close()
    return rows, stats


@settings(
    max_examples=20,
    # Generous: the shapes call builtins, and a builtin whose cost runs
    # away must fail the example rather than stall the suite.
    deadline=10_000,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    rows=tweet_streams(),
    workers=st.sampled_from((1, 2, 4)),
    batch=st.sampled_from((1, 7, 256)),
    shape=st.sampled_from(sorted(QUERY_SHAPES)),
)
def test_sharded_matches_serial(rows, workers, batch, shape):
    """Every (workers, batch_size) point must reproduce the row-at-a-time
    serial engine byte for byte — batch size is a pure performance knob."""
    sql, stats_mode = QUERY_SHAPES[shape]
    serial_rows, serial_stats = run(
        make_session(rows, workers=1, batch_size=1), sql
    )
    sharded_rows, sharded_stats = run(
        make_session(rows, workers=workers, batch_size=batch), sql
    )
    assert sharded_rows == serial_rows
    if stats_mode == "full":
        for key in EXACT_STATS:
            assert sharded_stats[key] == serial_stats[key], key
    else:
        assert sharded_stats["rows_emitted"] == serial_stats["rows_emitted"]


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    rows=tweet_streams(),
    workers=st.sampled_from((2, 4)),
    batch=st.sampled_from((1, 7, 256)),
)
def test_confidence_window_matches_serial(rows, workers, batch):
    """Confidence-triggered emission: the hardest shape — age-based flushes
    fire on *other groups'* rows, which punctuation must replicate."""
    policy = ConfidencePolicy(
        ci_halfwidth=200.0, max_age_seconds=300.0, min_count=2
    )
    sql = "SELECT AVG(followers) AS f, lang FROM s GROUP BY lang;"
    serial_rows, serial_stats = run(
        make_session(rows, workers=1, policy=policy, batch_size=1), sql
    )
    sharded_rows, sharded_stats = run(
        make_session(rows, workers=workers, policy=policy, batch_size=batch),
        sql,
    )
    assert sharded_rows == serial_rows
    for key in EXACT_STATS:
        assert sharded_stats[key] == serial_stats[key], key


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(rows=tweet_streams(), workers=st.sampled_from((2, 4)))
def test_eddy_filtering_matches_serial(rows, workers):
    """Per-shard eddies may reorder predicates independently, but the row
    sequence must still match the serial engine exactly."""
    sql = (
        "SELECT text FROM s "
        "WHERE text CONTAINS 'goal' AND followers > 300 AND lang = 'en';"
    )
    serial_rows, _ = run(make_session(rows, workers=1, use_eddy=True), sql)
    sharded_rows, _ = run(
        make_session(rows, workers=workers, use_eddy=True), sql
    )
    assert sharded_rows == serial_rows


# ---------------------------------------------------------------------------
# Acceptance: the paper's demo queries, byte-identical at every
# (batch_size, workers) point against the row-at-a-time serial engine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "sql, limit",
    [
        pytest.param(QUERY_1, 400, id="query-1-sentiment-geocode"),
        pytest.param(QUERY_2, 2000, id="query-2-keyword-bbox"),
        pytest.param(QUERY_3, None, id="query-3-regional-avg"),
    ],
)
def test_paper_queries_identical_across_batch_and_workers(
    news_week, sql, limit
):
    def run_config(workers, batch):
        session = TweeQL.for_scenarios(
            news_week,
            seed=11,
            config=EngineConfig(workers=workers, batch_size=batch),
        )
        handle = session.query(sql)
        rows = handle.all(limit=limit)
        handle.close()
        return rows, handle

    baseline, _ = run_config(workers=1, batch=1)
    for workers in (1, 4):
        for batch in (7, 256):
            rows, handle = run_config(workers, batch)
            assert rows == baseline, (workers, batch)
            if workers > 1:
                assert "Exchange" in handle.explain()
                assert "Merge" in handle.explain()
            assert f"Batch: {batch} rows/batch" in handle.explain()
    rows, _ = run_config(workers=4, batch=1)
    assert rows == baseline


# ---------------------------------------------------------------------------
# Plan inspection
# ---------------------------------------------------------------------------


STATIC_ROWS = [
    {
        "tweet_id": 1000 + i,
        "created_at": BASE_TS + 30.0 * i,
        "text": f"goal number {i}",
        "lang": "en",
        "followers": 10 * i,
        "loc": "London",
    }
    for i in range(40)
]


def test_explain_renders_exchange_and_merge():
    session = make_session(STATIC_ROWS, workers=4)
    text = session.explain("SELECT text FROM s WHERE followers > 10;")
    assert "Exchange: hash(tweet_id) over 4 shards" in text
    assert "Merge: 4-way ordered merge" in text


def test_explain_partitions_aggregates_by_group_key():
    session = make_session(STATIC_ROWS, workers=2)
    text = session.explain(
        "SELECT COUNT(*) AS n, lang FROM s GROUP BY lang WINDOW 60 seconds;"
    )
    assert "Exchange: hash(lang) over 2 shards" in text


@pytest.mark.parametrize(
    "sql, reason_fragment",
    [
        (
            "SELECT COUNT(*) AS n FROM s WINDOW 60 seconds;",
            "global aggregates",
        ),
        (
            "SELECT COUNT(*) AS n, lang FROM s GROUP BY lang "
            "WINDOW 10 tweets;",
            "count-based windows",
        ),
        (
            "SELECT meandev(followers) AS d FROM s;",
            "stateful UDF",
        ),
        (
            "SELECT text, now() AS t FROM s;",
            "now()",
        ),
    ],
)
def test_order_dependent_shapes_fall_back_to_serial(sql, reason_fragment):
    session = make_session(STATIC_ROWS, workers=4)
    text = session.explain(sql)
    assert "Parallel: serial fallback" in text
    assert reason_fragment in text
    assert "Exchange" not in text


def test_serial_fallback_still_executes():
    sql = "SELECT meandev(followers) AS d FROM s;"
    serial_rows, _ = run(make_session(STATIC_ROWS, workers=1), sql)
    fallback_rows, _ = run(make_session(STATIC_ROWS, workers=4), sql)
    assert fallback_rows == serial_rows
    assert serial_rows


def test_shard_stats_expose_per_worker_counters():
    session = make_session(STATIC_ROWS, workers=4)
    handle = session.query("SELECT text FROM s WHERE followers > 10;")
    rows = handle.all()
    handle.close()
    # Exchange stage first, then one entry per worker.
    assert len(handle.shard_stats) == 5
    exchange_stats = handle.shard_stats[0]
    assert exchange_stats.rows_scanned == len(STATIC_ROWS)
    worker_emitted = sum(s.rows_emitted for s in handle.shard_stats[1:])
    assert worker_emitted == len(rows) == handle.stats.rows_emitted
    assert len(handle.shard_service_stats) == 5
