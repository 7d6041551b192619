"""Columnar layout and thread sharding are pure performance knobs.

The acceptance sweep: every point of {row, columnar} × batch {1, 7, 256}
× workers {1, 4} must be row-for-row — and stats-for-stats — identical
on the paper's demo queries and on the static query shapes.
"""

from __future__ import annotations

import os

import pytest

from repro import EngineConfig, TweeQL
from repro.twitter.users import UserPopulation
from repro.twitter.workloads import soccer_match_scenario

BASE_TS = 1_307_000_000.0
SCHEMA = ("tweet_id", "text", "loc", "created_at", "lang", "followers")

STATIC_ROWS = [
    {
        "tweet_id": 1000 + i,
        "created_at": BASE_TS + 13.0 * i,
        "text": ("goal! " if i % 3 else "nothing here ") + f"tweet {i}",
        "lang": ("en", "es", "pt")[i % 3],
        "followers": (37 * i) % 2000 if i % 7 else None,
        "loc": ("London", "NYC", None)[i % 3],
    }
    for i in range(200)
]

#: Query shapes that exercise the vectorized filter, columnar projection,
#: and columnar group-key paths. LIMIT shapes stop the scan early, so
#: only output rows are comparable there (as in test_parallel).
SHAPES = {
    "filter_project": (
        "SELECT text, followers FROM s "
        "WHERE text CONTAINS 'goal' AND followers > 500;",
        "full",
    ),
    "udf_project": (
        "SELECT lower(text) AS t, length(text) AS n FROM s "
        "WHERE followers >= 0 AND lang IN ('en', 'pt');",
        "full",
    ),
    "group_window": (
        "SELECT COUNT(*) AS n, AVG(followers) AS f, lang FROM s "
        "GROUP BY lang WINDOW 120 seconds;",
        "full",
    ),
    "limit": (
        "SELECT text FROM s WHERE followers > 200 LIMIT 9;",
        "limit",
    ),
}

#: Stats that must match the serial row-engine exactly. windows_closed
#: and batches vary structurally with sharding/batch size (pre-existing).
EXACT_STATS = (
    "rows_after_filter",
    "predicate_evaluations",
    "rows_emitted",
    "groups_emitted",
)


def make_session(workers=1, batch_size=256, columnar=True):
    config = EngineConfig(
        workers=workers, batch_size=batch_size, columnar=columnar
    )
    session = TweeQL(config=config)
    session.register_source(
        "s", lambda: iter([dict(r) for r in STATIC_ROWS]), SCHEMA
    )
    return session


def run(session, sql):
    handle = session.query(sql)
    rows = handle.all()
    stats = handle.stats.as_dict()
    handle.close()
    return rows, stats


#: The ids keep the ``thread-`` prefix these cases have always had, so
#: recorded test ids stay comparable across commits.
WORKERS = [pytest.param(1, id="thread-1"), pytest.param(4, id="thread-4")]


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("batch", [1, 7, 256])
@pytest.mark.parametrize("workers", WORKERS)
def test_columnar_matches_row_engine(shape, batch, workers):
    sql, stats_mode = SHAPES[shape]
    base_rows, base_stats = run(
        make_session(workers=1, batch_size=1, columnar=False), sql
    )
    rows, stats = run(
        make_session(workers=workers, batch_size=batch, columnar=True), sql
    )
    assert rows == base_rows, (shape, batch, workers)
    keys = EXACT_STATS if stats_mode == "full" else ("rows_emitted",)
    if stats_mode == "full" and workers == 1:
        keys = keys + ("rows_scanned",)
    for key in keys:
        assert stats[key] == base_stats[key], (key, shape, batch, workers)


def test_paper_demo_queries_identical_across_configs(news_week):
    from tests.integration.test_paper_queries import QUERY_2, QUERY_3

    for sql, limit in ((QUERY_2, 1500), (QUERY_3, None)):
        def run_config(workers, batch, columnar):
            session = TweeQL.for_scenarios(
                news_week,
                seed=11,
                config=EngineConfig(
                    workers=workers, batch_size=batch, columnar=columnar
                ),
            )
            handle = session.query(sql)
            rows = handle.all(limit=limit)
            handle.close()
            return rows

        baseline = run_config(workers=1, batch=1, columnar=False)
        assert run_config(workers=1, batch=256, columnar=True) == baseline
        assert run_config(workers=4, batch=256, columnar=True) == baseline


def test_sharded_service_stats_sum_of_stage_mirrors():
    """handle.service_stats on sharded plans must equal the sum of the
    per-stage mirrors — one attribution per call, none lost."""
    pop = UserPopulation(size=200, seed=7)
    scen = soccer_match_scenario(seed=7, population=pop)
    session = TweeQL.for_scenarios(
        scen, config=EngineConfig(workers=4)
    )
    handle = session.query(
        "SELECT latitude(loc) AS lat, text FROM twitter "
        "WHERE text CONTAINS 'goal' LIMIT 50;"
    )
    rows = handle.all(limit=50)
    handle.close()
    assert rows
    stats = handle.service_stats
    assert "geocode" in stats
    # Stage mirrors key by the underlying service name ("geocoder").
    mirror_total = sum(
        stage["geocoder"].calls
        for stage in handle.shard_service_stats
        if "geocoder" in stage
    )
    assert stats["geocode"]["calls"] == mirror_total
    assert mirror_total > 0


# ---------------------------------------------------------------------------
# EXPLAIN diagnostics
# ---------------------------------------------------------------------------


def _explain(sql, **kw):
    config = EngineConfig(**kw)
    session = TweeQL(config=config)
    session.register_source(
        "s", lambda: iter([dict(r) for r in STATIC_ROWS]), SCHEMA
    )
    return session.explain(sql)


def test_thread_workers_are_never_clamped():
    cores = os.cpu_count() or 1
    text = _explain(
        "SELECT text FROM s WHERE followers > 10;",
        workers=cores + 3,
    )
    assert f"over {cores + 3} shards" in text
    assert "clamped" not in text


def test_columnar_off_keeps_row_layout_in_explain():
    on = _explain("SELECT text FROM s WHERE followers > 10;", batch_size=256)
    off = _explain(
        "SELECT text FROM s WHERE followers > 10;",
        batch_size=256,
        columnar=False,
    )
    assert "rows/batch, columnar" in on
    assert "columnar" not in off
    assert "[vectorized 1/1]" in on
    assert "[vectorized" not in off


def test_row_at_a_time_plans_stay_row_wise():
    text = _explain("SELECT text FROM s WHERE followers > 10;", batch_size=1)
    assert "columnar" not in text


# ---------------------------------------------------------------------------
# The fidelity scenarios: election / cascade / bot-flood across the grid
# ---------------------------------------------------------------------------

#: Scenario fixture → query shapes exercising the vectorized filter and
#: the columnar group-key path on each new generator's traffic.
NEW_SCENARIO_SQL = {
    "election_small": (
        "SELECT COUNT(*) AS n, first(text) AS example FROM twitter "
        "WHERE text CONTAINS 'ballot' WINDOW 10 minutes;"
    ),
    "cascade_small": (
        "SELECT COUNT(*) AS n, lang FROM twitter "
        "WHERE text CONTAINS 'wildfire' GROUP BY lang WINDOW 15 minutes;"
    ),
    "botflood_small": (
        "SELECT text, followers FROM twitter "
        "WHERE text CONTAINS 'giveaway' AND followers > 200;"
    ),
}

_new_scenario_baselines: dict[str, list] = {}


def _scenario_rows(scenario, sql, **config_kwargs):
    config = EngineConfig(**config_kwargs)
    session = TweeQL.for_scenarios(scenario, seed=11, config=config)
    handle = session.query(sql)
    rows = [
        {k: v for k, v in row.items() if not k.startswith("__")}
        for row in handle
    ]
    handle.close()
    return rows


@pytest.mark.parametrize("batch,workers", [(1, 1), (1, 4), (256, 1), (256, 4)])
@pytest.mark.parametrize("fixture_name", sorted(NEW_SCENARIO_SQL))
def test_new_scenarios_columnar_equivalence(
    request, fixture_name, batch, workers
):
    """Batch size, worker count, and layout are invisible in the output."""
    scenario = request.getfixturevalue(fixture_name)
    sql = NEW_SCENARIO_SQL[fixture_name]
    if fixture_name not in _new_scenario_baselines:
        _new_scenario_baselines[fixture_name] = _scenario_rows(
            scenario, sql, workers=1, batch_size=1, columnar=False
        )
    baseline = _new_scenario_baselines[fixture_name]
    assert baseline, f"{fixture_name} baseline produced no rows"
    rows = _scenario_rows(
        scenario, sql, workers=workers, batch_size=batch, columnar=True
    )
    assert rows == baseline, (fixture_name, batch, workers)
