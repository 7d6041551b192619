"""Tweet-count windows (``WINDOW n TWEETS``)."""

import pytest

from repro.clock import VirtualClock
from repro.engine import operators as ops
from repro.engine.aggregates import make_aggregate
from repro.engine.types import EvalContext, batch_rows, iter_rows
from repro.errors import ParseError, PlanError
from repro.sql import parse
from repro.sql.ast import WindowSpec


def test_parse_count_window():
    stmt = parse("SELECT COUNT(*) FROM twitter WINDOW 500 TWEETS;")
    assert stmt.window.count_based
    assert stmt.window.size_count == 500
    assert stmt.window.tumbling


def test_parse_sliding_count_window():
    stmt = parse("SELECT COUNT(*) FROM twitter WINDOW 100 TWEETS EVERY 20 TWEETS;")
    assert stmt.window.slide == 20
    assert not stmt.window.tumbling


def test_parse_rejects_mixed_units():
    with pytest.raises(ParseError):
        parse("SELECT COUNT(*) FROM twitter WINDOW 100 TWEETS EVERY 1 minutes;")
    with pytest.raises(ParseError):
        parse("SELECT COUNT(*) FROM twitter WINDOW 5 minutes EVERY 20 TWEETS;")


def test_parse_rejects_fractional_count():
    with pytest.raises(ParseError):
        parse("SELECT COUNT(*) FROM twitter WINDOW 1.5 TWEETS;")


def test_count_window_round_trips():
    stmt = parse("SELECT COUNT(*) FROM twitter WINDOW 100 TWEETS EVERY 20 TWEETS;")
    assert parse(stmt.to_sql()) == stmt


def test_windowspec_validates_exactly_one_size():
    with pytest.raises(ValueError):
        WindowSpec()
    with pytest.raises(ValueError):
        WindowSpec(size_seconds=10.0, size_count=5)


def make_operator(rows, ctx, size, slide=None, group=None):
    spec = WindowSpec(size_count=size, slide_count=slide)
    agg_factories = [
        (lambda: make_aggregate("count", False, True), None, False),
        (
            lambda: make_aggregate("sum", False, False),
            lambda r, _c: r.get("x"),
            True,
        ),
    ]
    output = [
        ("n", lambda r, _c: r["__agg0"]),
        ("total", lambda r, _c: r["__agg1"]),
    ]
    if group:
        output.append(("key", lambda r, _c: r.get("k")))
    return iter_rows(
        ops.WindowedAggregateOperator(
            batch_rows(rows, 4), spec, group or [], agg_factories, output, ctx
        )
    )


@pytest.fixture()
def ctx():
    return EvalContext(clock=VirtualClock(start=0.0))


def rows_n(n):
    return [{"created_at": float(i), "x": 1} for i in range(n)]


def test_tumbling_count_window_exact_sizes(ctx):
    out = list(make_operator(rows_n(25), ctx, size=10))
    assert [r["n"] for r in out] == [10, 10, 5]
    assert out[0]["window_start"] == 0.0
    assert out[0]["window_end"] == 9.0
    assert out[0]["window_rows"] == 10


def test_sliding_count_window_overlap(ctx):
    out = list(make_operator(rows_n(30), ctx, size=20, slide=10))
    # Windows start at 0, 10, 20 → sizes 20, 20, 10.
    assert [r["n"] for r in out] == [20, 20, 10]


def test_count_window_grouping(ctx):
    rows = [
        {"created_at": float(i), "x": 1, "k": "a" if i % 2 == 0 else "b"}
        for i in range(10)
    ]
    out = list(
        make_operator(rows, ctx, size=10, group=[lambda r, _c: r["k"]])
    )
    assert {r["key"]: r["n"] for r in out} == {"a": 5, "b": 5}


def test_count_window_in_sql(soccer_session):
    rows = soccer_session.query(
        "SELECT COUNT(*) AS n, AVG(followers) AS f FROM twitter "
        "WHERE text contains 'soccer' WINDOW 50 TWEETS;"
    ).all()
    assert rows
    # All but the final partial window hold exactly 50 tweets.
    assert all(r["n"] == 50 for r in rows[:-1])
    assert rows[-1]["n"] <= 50
    assert all(r["window_rows"] == r["n"] for r in rows)


def test_count_window_emission_times_vary_with_traffic(soccer_session):
    """The §2 critique: a count window's *duration* stretches over quiet
    periods (stale tweets) and compresses in bursts."""
    rows = soccer_session.query(
        "SELECT COUNT(*) AS n FROM twitter WHERE text contains 'goal' "
        "WINDOW 100 TWEETS;"
    ).all()
    durations = [r["window_end"] - r["window_start"] for r in rows[:-1]]
    assert durations
    if len(durations) >= 2:
        assert max(durations) > 2 * min(durations)


def test_count_window_join_rejected(soccer_session):
    soccer_session.register_source(
        "s2", lambda: iter([{"created_at": 1.0, "k": 1}]), ("created_at", "k")
    )
    with pytest.raises(PlanError):
        soccer_session.query(
            "SELECT text FROM twitter JOIN s2 ON user_id = k "
            "WINDOW 100 TWEETS;"
        )
