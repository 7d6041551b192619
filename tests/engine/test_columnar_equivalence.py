"""Batch size and vectorization are invisible in results.

The acceptance sweep: every batch size in {1, 7, 256} must be row-for-row — and stats-for-stats — identical on the paper's demo
queries and on the static query shapes, against two references that do
not run the vector path:

- a *scalar-only plan*: the same statement planned while the planner's
  ``compile_vector_expr`` / ``build_fused_projector`` are patched to return
  None, i.e. exactly the fallback production runs for expressions that do
  not vectorize (stateful calls, ``now()``, a user UDF marked
  high-latency), at one row per batch;
- for the static shapes, rows and counters worked out in plain Python
  from ``STATIC_ROWS`` (:func:`expected_static`; no engine import — the
  service shapes ask the geocoder and entity extractor directly).
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager

import pytest

from repro import EngineConfig, TweeQL
from repro.engine import planner
from repro.errors import GeocodeError
from repro.geo.geocode import Geocoder
from repro.nlp.entities import EntityExtractor

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
#: and columnar group-key paths — the ``udf_*`` ones through whole-column
#: function calls (``tally`` is a user UDF, see :func:`make_session`).
#: LIMIT shapes stop the scan early, so only output rows are comparable
#: there.
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
    "udf_where": (
        "SELECT text FROM s WHERE length(text) > 13 AND followers > 500;",
        "full",
    ),
    "udf_nested": (
        "SELECT length(lower(text)) AS n, round(followers / 7, 1) AS r, "
        "substr(text, 2, 3) AS sub FROM s WHERE followers >= 0;",
        "full",
    ),
    "udf_group": (
        "SELECT COUNT(*) AS n, upper(lang) AS l FROM s "
        "GROUP BY upper(lang) WINDOW 120 seconds;",
        "full",
    ),
    # Sliding, size not a multiple of the slide: the scalar loop evaluates
    # the argument once per (row, window), the column once per row.
    "udf_agg_sliding": (
        "SELECT AVG(length(text)) AS f, COUNT(*) AS n FROM s "
        "WINDOW 120 seconds EVERY 50 seconds;",
        "full",
    ),
    "udf_tally": (
        "SELECT MAX(tally(followers)) AS top, COUNT(*) AS n, lang FROM s "
        "GROUP BY lang WINDOW 120 seconds;",
        "full",
    ),
    "group_window": (
        "SELECT COUNT(*) AS n, AVG(followers) AS f, lang FROM s "
        "GROUP BY lang WINDOW 120 seconds;",
        "full",
    ),
    # Tweet-count windows: the row's ordinal is the window coordinate, so
    # the same column path runs over them.
    "count_group": (
        "SELECT COUNT(*) AS n, AVG(followers) AS f, lang FROM s "
        "GROUP BY lang WINDOW 50 TWEETS;",
        "full",
    ),
    "udf_count_sliding": (
        "SELECT AVG(length(text)) AS f, COUNT(*) AS n FROM s "
        "WINDOW 50 TWEETS EVERY 20 TWEETS;",
        "full",
    ),
    "limit": (
        "SELECT text FROM s WHERE followers > 200 LIMIT 9;",
        "limit",
    ),
    # A GROUP BY naming a select alias compiles the aliased expression.
    "udf_alias_group": (
        "SELECT lower(text) AS t, COUNT(*) AS n FROM s "
        "GROUP BY t WINDOW 120 seconds;",
        "full",
    ),
    # Web-service builtins: one resolve per batch and call site, in the
    # latency mode of SERVICE_MODES.
    "svc_cached_project": (
        "SELECT latitude(loc) AS la, longitude(loc) AS lo FROM s "
        "WHERE followers >= 0;",
        "full",
    ),
    "svc_batched_group": (
        "SELECT COUNT(*) AS n, floor(latitude(loc)) AS lat FROM s "
        "GROUP BY lat WINDOW 120 seconds;",
        "full",
    ),
    "svc_async_entities": (
        "SELECT text, named_entities(concat(text, ' in ', loc)) AS e "
        "FROM s WHERE followers >= 0;",
        "full",
    ),
}

#: The latency mode each service shape runs in (default: cached).
SERVICE_MODES = {
    "svc_cached_project": "cached",
    "svc_batched_group": "batched",
    "svc_async_entities": "async",
}

#: Stats that must match the references exactly. windows_closed and
#: batches vary structurally with batch size.
EXACT_STATS = (
    "rows_after_filter",
    "predicate_evaluations",
    "rows_emitted",
    "groups_emitted",
)


@contextmanager
def scalar_only_planner():
    """Plans built inside attach no vector evaluator and no fused
    projector, whatever the batch size: every stage runs its scalar
    closure over ``batch.rows``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(planner, "compile_vector_expr", lambda *a, **k: None)
        patch.setattr(planner, "build_fused_projector", lambda pairs: None)
        yield


def make_session(batch_size=256, tally=None, shape=None):
    """A session over ``STATIC_ROWS`` with ``tally(x)``, a user UDF that
    returns its argument and advances the ``tally`` counter per call, in
    ``shape``'s latency mode."""
    config = EngineConfig(
        batch_size=batch_size,
        latency_mode=SERVICE_MODES.get(shape, "cached"),
    )
    session = TweeQL(config=config)
    session.register_source(
        "s", lambda: iter([dict(r) for r in STATIC_ROWS]), SCHEMA
    )
    calls = itertools.count() if tally is None else tally

    def count_call(_ctx, value):
        next(calls)
        return value

    session.register_udf("tally", count_call)
    return session


def run(session, sql):
    handle = session.query(sql)
    rows = handle.all()
    stats = handle.stats.as_dict()
    handle.close()
    return rows, stats


def run_scalar_only(shape, batch_size=1, tally=None):
    """The scalar-only reference: no vector stage anywhere."""
    sql = SHAPES[shape][0]
    with scalar_only_planner():
        session = make_session(batch_size=batch_size, tally=tally, shape=shape)
        assert "[vectorized" not in session.explain(sql)
        return run(session, sql)


def geocoded(loc, index):
    """Coordinate ``index`` of the geocoder's answer for ``loc``, or None."""
    if loc is None:
        return None
    try:
        return Geocoder().geocode(loc)[index]
    except GeocodeError:
        return None


def expected_static(shape):
    """``(rows, stats)`` the static SHAPES must produce, in plain Python.

    Predicates are re-stated with string methods and arithmetic on
    ``STATIC_ROWS``; filter counters follow the plan's one-stage-per-
    conjunct chain (each stage evaluates the previous stage's survivors).
    """
    stats = dict.fromkeys(EXACT_STATS, 0)
    stats["rows_scanned"] = len(STATIC_ROWS)

    def where(*conjuncts):
        rows = STATIC_ROWS
        for conjunct in conjuncts:
            stats["predicate_evaluations"] += len(rows)
            rows = [row for row in rows if conjunct(row)]
            stats["rows_after_filter"] += len(rows)
        return rows

    def followers_over(bound):
        return lambda row: (
            row["followers"] is not None and row["followers"] > bound
        )

    def windowed(size, slide, key, value, outputs):
        """Epoch-aligned windows of ``size`` every ``slide`` seconds,
        emitted in window order with groups in first-seen order;
        ``outputs(key, values)`` makes a group's aggregate columns."""
        windows: dict[float, dict] = {}
        for row in STATIC_ROWS:
            start = math.floor(row["created_at"] / slide) * slide
            while start > row["created_at"] - size:
                groups = windows.setdefault(start, {})
                groups.setdefault(key(row), []).append(value(row))
                start -= slide
        rows = [
            {
                **outputs(group, values),
                "window_start": start,
                "window_end": start + size,
                "created_at": start + size,
            }
            for start in sorted(windows)
            for group, values in windows[start].items()
        ]
        stats["groups_emitted"] = len(rows)
        return rows

    def counted(size, slide, key, value, outputs):
        """Count windows: rows ``[j·slide, j·slide + size)`` by ordinal,
        stamped with their first and last timestamps and row count."""
        rows = []
        for start in range(0, len(STATIC_ROWS), slide):
            members = STATIC_ROWS[start : start + size]
            groups: dict = {}
            for row in members:
                groups.setdefault(key(row), []).append(value(row))
            first, last = members[0]["created_at"], members[-1]["created_at"]
            rows += [
                {
                    **outputs(group, values),
                    "window_start": first,
                    "window_end": last,
                    "window_rows": len(members),
                    "created_at": last,
                }
                for group, values in groups.items()
            ]
        stats["groups_emitted"] = len(rows)
        return rows

    def mean(values):
        known = [v for v in values if v is not None]
        return sum(known) / len(known) if known else None

    if shape == "filter_project":
        kept = where(
            lambda row: "goal" in row["text"].casefold(), followers_over(500)
        )
        rows = [
            {
                "text": row["text"],
                "followers": row["followers"],
                "created_at": row["created_at"],
            }
            for row in kept
        ]
    elif shape == "udf_project":
        kept = where(followers_over(-1), lambda row: row["lang"] in ("en", "pt"))
        rows = [
            {
                "t": row["text"].lower(),
                "n": len(row["text"]),
                "created_at": row["created_at"],
            }
            for row in kept
        ]
    elif shape == "udf_where":
        kept = where(lambda row: len(row["text"]) > 13, followers_over(500))
        rows = [
            {"text": row["text"], "created_at": row["created_at"]}
            for row in kept
        ]
    elif shape == "udf_nested":
        kept = where(followers_over(-1))
        rows = [
            {
                "n": len(row["text"].lower()),
                "r": round(row["followers"] / 7, 1),
                "sub": row["text"][1:4],
                "created_at": row["created_at"],
            }
            for row in kept
        ]
    elif shape == "udf_group":
        rows = windowed(
            120.0, 120.0,
            key=lambda row: row["lang"].upper(),
            value=lambda row: 1,
            outputs=lambda lang, ones: {"n": len(ones), "l": lang},
        )
    elif shape == "udf_agg_sliding":
        rows = windowed(
            120.0, 50.0,
            key=lambda row: (),
            value=lambda row: len(row["text"]),
            outputs=lambda _key, sizes: {"f": mean(sizes), "n": len(sizes)},
        )
    elif shape == "udf_tally":
        rows = windowed(
            120.0, 120.0,
            key=lambda row: row["lang"],
            value=lambda row: row["followers"],
            outputs=lambda lang, followers: {
                "top": max((f for f in followers if f is not None), default=None),
                "n": len(followers),
                "lang": lang,
            },
        )
    elif shape == "group_window":
        # AVG skips NULLs.
        rows = windowed(
            120.0, 120.0,
            key=lambda row: row["lang"],
            value=lambda row: row["followers"],
            outputs=lambda lang, followers: {
                "n": len(followers), "f": mean(followers), "lang": lang,
            },
        )
    elif shape == "count_group":
        rows = counted(
            50, 50,
            key=lambda row: row["lang"],
            value=lambda row: row["followers"],
            outputs=lambda lang, followers: {
                "n": len(followers), "f": mean(followers), "lang": lang,
            },
        )
    elif shape == "udf_count_sliding":
        rows = counted(
            50, 20,
            key=lambda row: (),
            value=lambda row: len(row["text"]),
            outputs=lambda _key, sizes: {"f": mean(sizes), "n": len(sizes)},
        )
    elif shape == "udf_alias_group":
        rows = windowed(
            120.0, 120.0,
            key=lambda row: row["text"].lower(),
            value=lambda row: 1,
            outputs=lambda text, ones: {"t": text, "n": len(ones)},
        )
    elif shape == "svc_cached_project":
        kept = where(followers_over(-1))
        rows = [
            {
                "la": geocoded(row["loc"], 0),
                "lo": geocoded(row["loc"], 1),
                "created_at": row["created_at"],
            }
            for row in kept
        ]
    elif shape == "svc_batched_group":
        rows = windowed(
            120.0, 120.0,
            key=lambda row: (
                None if geocoded(row["loc"], 0) is None
                else math.floor(geocoded(row["loc"], 0))
            ),
            value=lambda row: 1,
            outputs=lambda lat, ones: {"n": len(ones), "lat": lat},
        )
    elif shape == "svc_async_entities":
        kept = where(followers_over(-1))
        rows = [
            {
                "text": row["text"],
                "e": None if row["loc"] is None else tuple(
                    EntityExtractor()(f"{row['text']} in {row['loc']}")
                ),
                "created_at": row["created_at"],
            }
            for row in kept
        ]
    elif shape == "limit":
        kept = [row for row in STATIC_ROWS if followers_over(200)(row)][:9]
        rows = [
            {"text": row["text"], "created_at": row["created_at"]}
            for row in kept
        ]
    else:  # pragma: no cover - a new shape needs its expectation
        raise KeyError(shape)
    stats["rows_emitted"] = len(rows)
    return rows, stats


def assert_rows_equal(rows, expected, where):
    """Exact equality, except AVG cells: the engine's running (Welford)
    mean and a plain ``sum / len`` may differ in the last bits."""
    assert len(rows) == len(expected), where
    for row, want in zip(rows, expected):
        assert row.keys() == want.keys(), where
        for key, value in want.items():
            if key == "f" and value is not None:
                assert math.isclose(row[key], value, rel_tol=1e-12), where
            else:
                assert row[key] == value, (key, where)


#: The ids keep the ``thread-1-`` prefix these cases have always had, so
#: recorded test ids stay comparable across commits.
BATCHES = [pytest.param(b, id=f"thread-1-{b}") for b in (1, 7, 256)]


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("batch", BATCHES)
def test_columnar_matches_row_engine(shape, batch):
    sql, stats_mode = SHAPES[shape]
    base_calls, calls = itertools.count(), itertools.count()
    base_rows, base_stats = run_scalar_only(shape, tally=base_calls)
    want_rows, want_stats = expected_static(shape)
    rows, stats = run(
        make_session(batch_size=batch, tally=calls, shape=shape), sql
    )
    if shape == "udf_tally":
        # Tumbling windows: one call per row, vector or scalar, on every
        # plan shape.
        assert next(calls) == next(base_calls) == len(STATIC_ROWS)
    assert rows == base_rows, (shape, batch)
    assert_rows_equal(rows, want_rows, (shape, batch))
    keys = (
        EXACT_STATS + ("rows_scanned",)
        if stats_mode == "full"
        else ("rows_emitted",)
    )
    for key in keys:
        assert stats[key] == base_stats[key], (key, shape, batch)
        assert stats[key] == want_stats[key], (key, shape, batch)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_scalar_only_plan_is_batch_invariant(shape):
    """The reference itself: the scalar fallback at 256 rows per batch
    (closures mapped over whole batches) equals its one-row-per-batch run
    and the plain-Python expectation."""
    sql, stats_mode = SHAPES[shape]
    rows, stats = run_scalar_only(shape, batch_size=256)
    assert rows == run_scalar_only(shape)[0]
    want_rows, want_stats = expected_static(shape)
    assert_rows_equal(rows, want_rows, shape)
    if stats_mode == "full":
        for key in EXACT_STATS + ("rows_scanned",):
            assert stats[key] == want_stats[key], (key, shape)


UDF_SHAPES = sorted(shape for shape in SHAPES if shape.startswith("udf_"))
#: Under TQLSAN: the function and service shapes plus the grouped count
#: window.
SANITIZED_SHAPES = sorted(UDF_SHAPES + list(SERVICE_MODES) + ["count_group"])


def test_function_shapes_are_planned_whole_column():
    """What the grid above compares really is the vector path: every
    function-bearing slot of the ``udf_*`` shapes carries a whole-column
    evaluator (COUNT(*) has no argument to evaluate)."""
    from tests.engine.test_planner import vector_stages

    session = make_session()
    assert "[vectorized 2/2]" in session.explain(SHAPES["udf_where"][0])
    stages = {
        shape: vector_stages(session.plan(SHAPES[shape][0]).pipeline)
        for shape in UDF_SHAPES
    }
    assert stages == {
        "udf_where": [("Project", [True, True])],
        "udf_project": [("Project", [False, True, True])],
        "udf_nested": [("Project", [False, True, True, True])],
        "udf_group": [("Aggregate", [True])],
        "udf_agg_sliding": [("Aggregate", [True, False])],
        "udf_count_sliding": [("Aggregate", [True, False])],
        "udf_tally": [("Aggregate", [True, True, False])],
        "udf_alias_group": [("Aggregate", [True])],
    }


def test_service_shapes_are_planned_whole_column():
    """Service calls — projected, and behind a GROUP BY alias — carry a
    whole-column evaluator in every latency mode."""
    from tests.engine.test_planner import vector_stages

    stages = {
        shape: vector_stages(
            make_session(shape=shape).plan(SHAPES[shape][0]).pipeline
        )
        for shape in SERVICE_MODES
    }
    assert stages == {
        "svc_cached_project": [("Project", [False, True, True])],
        "svc_batched_group": [("Aggregate", [True])],
        "svc_async_entities": [("Project", [False, True, True])],
    }


def test_count_windows_take_the_column_path():
    """Count windows run the one windowed aggregate: every key and
    argument has a column form, so a batch builds no row dicts."""
    from repro.engine import operators as ops
    from tests.engine.test_planner import vector_stages

    session = make_session()
    for shape, slots in (
        ("count_group", [True, False, True]),
        ("udf_count_sliding", [True, False]),
    ):
        pipeline = session.plan(SHAPES[shape][0]).pipeline
        assert vector_stages(pipeline) == [("Aggregate", slots)], shape
        while not isinstance(pipeline, ops.WindowedAggregateOperator):
            pipeline = pipeline._child
        assert pipeline._columns_only, shape


@pytest.mark.parametrize("shape", UDF_SHAPES + ["svc_batched_group"])
def test_function_shapes_as_shared_scan_tenant(shape):
    """A tenant body maps functions over whole columns too."""
    group = make_session(shape=shape).shared("s")
    try:
        rows = group.query(SHAPES[shape][0]).all()
    finally:
        group.close()
    rows = [
        {k: v for k, v in row.items() if not k.startswith("__")} for row in rows
    ]
    assert_rows_equal(rows, expected_static(shape)[0], shape)


@pytest.mark.parametrize("shape", SANITIZED_SHAPES)
def test_function_shapes_under_sanitizer(shape, monkeypatch):
    monkeypatch.setenv("TWEEQL_SAN", "1")
    session = make_session(shape=shape)
    sql = SHAPES[shape][0]
    assert session.plan(sql).sanitizer is not None
    rows, stats = run(session, sql)
    want_rows, want_stats = expected_static(shape)
    assert_rows_equal(rows, want_rows, shape)
    for key in EXACT_STATS + ("rows_scanned",):
        assert stats[key] == want_stats[key], (key, shape)


def test_paper_demo_queries_identical_across_configs(news_week):
    from tests.integration.test_paper_queries import QUERY_2, QUERY_3

    for sql, limit in ((QUERY_2, 1500), (QUERY_3, None)):
        def run_config(batch):
            session = TweeQL.for_scenarios(
                news_week, seed=11, config=EngineConfig(batch_size=batch)
            )
            handle = session.query(sql)
            rows = handle.all(limit=limit)
            handle.close()
            return rows

        with scalar_only_planner():
            baseline = run_config(batch=1)
        assert run_config(batch=256) == baseline


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


def test_row_at_a_time_plans_stay_row_wise():
    """A batch-1 plan — configured, or pinned by ``now()`` — attaches no
    ``[vectorized`` stage: one-row columns cost more than scalar closures."""
    sql = "SELECT text FROM s WHERE followers > 10;"
    assert "[vectorized 1/1]" in _explain(sql, batch_size=256)
    assert "[vectorized" not in _explain(sql, batch_size=1)
    pinned = _explain(
        "SELECT text, now() AS t FROM s WHERE followers > 10;", batch_size=256
    )
    assert "Batch: 1 row/batch" in pinned
    assert "[vectorized" not in pinned


def test_the_layout_knob_is_gone():
    with pytest.raises(TypeError):
        EngineConfig(columnar=True)


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


@pytest.mark.parametrize("batch", [1, 256])
@pytest.mark.parametrize("fixture_name", sorted(NEW_SCENARIO_SQL))
def test_new_scenarios_columnar_equivalence(request, fixture_name, batch):
    """Batch size and vectorization are invisible in the output
    (baseline: the scalar-only plan, one row per batch)."""
    scenario = request.getfixturevalue(fixture_name)
    sql = NEW_SCENARIO_SQL[fixture_name]
    if fixture_name not in _new_scenario_baselines:
        with scalar_only_planner():
            _new_scenario_baselines[fixture_name] = _scenario_rows(
                scenario, sql, batch_size=1
            )
    baseline = _new_scenario_baselines[fixture_name]
    assert baseline, f"{fixture_name} baseline produced no rows"
    rows = _scenario_rows(scenario, sql, batch_size=batch)
    assert rows == baseline, (fixture_name, batch)
