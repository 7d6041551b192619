"""Streaming operators, exercised directly on synthetic rows."""

import pytest

from repro.clock import VirtualClock
from repro.engine import operators as ops
from repro.engine.aggregates import make_aggregate
from repro.engine.types import EvalContext, batch_rows, iter_rows
from repro.sql.ast import WindowSpec


def drain(operator):
    """Flatten an operator's batch output back to rows."""
    return list(iter_rows(operator))


@pytest.fixture()
def ctx():
    return EvalContext(clock=VirtualClock(start=0.0))


def rows_at(*specs):
    """Build rows from (created_at, extra-dict) pairs."""
    return [{"created_at": t, **extra} for t, extra in specs]


def test_scan_advances_stream_time_and_counts(ctx):
    rows = rows_at((1.0, {}), (5.0, {}), (9.0, {}))
    out = drain(ops.ScanOperator(ops.RowSource(rows), ctx))
    assert len(out) == 3
    assert ctx.stream_time == 9.0
    assert ctx.stats.rows_scanned == 3


def test_scan_batches_by_size(ctx):
    rows = rows_at(*((float(i), {}) for i in range(5)))
    batches = list(ops.ScanOperator(ops.RowSource(rows), ctx, batch_size=2))
    assert [len(b) for b in batches] == [2, 2, 1]
    assert [b.last for b in batches] == [False, False, True]
    assert ctx.stats.batches == 3


def test_scan_emits_empty_last_batch_on_aligned_exhaustion(ctx):
    rows = rows_at((1.0, {}), (2.0, {}))
    batches = list(ops.ScanOperator(ops.RowSource(rows), ctx, batch_size=2))
    assert [len(b) for b in batches] == [2, 0]
    assert batches[-1].last


def test_scan_validates_batch_size(ctx):
    with pytest.raises(ValueError):
        ops.ScanOperator(ops.RowSource([]), ctx, batch_size=0)


def test_filter_true_only(ctx):
    rows = rows_at((1.0, {"x": 1}), (2.0, {"x": None}), (3.0, {"x": 0}))
    predicate = lambda row, _ctx: (None if row["x"] is None else row["x"] > 0)
    out = drain(ops.FilterOperator(batch_rows(rows, 2), predicate, ctx))
    assert [r["x"] for r in out] == [1]  # NULL verdict drops the row


def test_project_evaluates_items_and_keeps_time(ctx):
    rows = rows_at((1.0, {"x": 2}))
    out = drain(
        ops.ProjectOperator(
            batch_rows(rows, 2), [("double", lambda r, _c: r["x"] * 2)], ctx
        )
    )
    assert out == [{"double": 4, "created_at": 1.0}]


def test_limit(ctx):
    rows = rows_at(*((float(i), {}) for i in range(10)))
    assert len(drain(ops.LimitOperator(batch_rows(rows, 4), 3))) == 3


def test_limit_marks_truncated_batch_last(ctx):
    rows = rows_at(*((float(i), {}) for i in range(10)))
    batches = list(ops.LimitOperator(batch_rows(rows, 4), 6))
    assert [len(b) for b in batches] == [4, 2]
    assert batches[-1].last


def test_into_tees_rows(ctx):
    class Sink:
        def __init__(self):
            self.rows = []

        def append(self, row):
            self.rows.append(row)

    sink = Sink()
    rows = rows_at((1.0, {"x": 1}), (2.0, {"x": 2}))
    out = drain(ops.IntoOperator(batch_rows(rows, 1), sink))
    assert len(out) == 2
    assert len(sink.rows) == 2


def test_rebatch_rechunks_and_marks_last(ctx):
    rows = rows_at(*((float(i), {}) for i in range(5)))
    batches = list(batch_rows(iter(rows), 2))
    assert [len(b) for b in batches] == [2, 2, 1]
    assert [b.last for b in batches] == [False, False, True]
    assert [r["created_at"] for b in batches for r in b.rows] == [
        0.0, 1.0, 2.0, 3.0, 4.0,
    ]


def make_agg_operator(rows, ctx, size=10.0, slide=None, group=None,
                      having=None, order_by=None, limit=None):
    spec = WindowSpec(size_seconds=size, slide_seconds=slide)
    group_evals = group or []
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
    if group_evals:
        output.append(("key", lambda r, _c: r.get("k")))
    return iter_rows(
        ops.WindowedAggregateOperator(
            batch_rows(rows, 2), spec, group_evals, agg_factories, output,
            ctx, having=having, order_by=order_by, limit=limit,
        )
    )


def test_tumbling_aggregate_closes_on_time(ctx):
    rows = rows_at(
        (1.0, {"x": 1}), (2.0, {"x": 2}),      # window [0, 10)
        (11.0, {"x": 10}),                        # window [10, 20)
        (25.0, {"x": 100}),                       # window [20, 30)
    )
    out = list(make_agg_operator(rows, ctx))
    assert len(out) == 3
    assert out[0] == {
        "n": 2, "total": 3.0, "window_start": 0.0, "window_end": 10.0,
        "created_at": 10.0,
    }
    assert out[1]["total"] == 10.0
    assert out[2]["total"] == 100.0  # end-of-stream flush


def test_aggregate_skips_nulls_for_sum_not_count_star(ctx):
    rows = rows_at((1.0, {"x": None}), (2.0, {"x": 5}))
    out = list(make_agg_operator(rows, ctx))
    assert out[0]["n"] == 2
    assert out[0]["total"] == 5.0


def test_group_by_keys(ctx):
    rows = rows_at(
        (1.0, {"x": 1, "k": "a"}),
        (2.0, {"x": 2, "k": "b"}),
        (3.0, {"x": 3, "k": "a"}),
    )
    out = list(
        make_agg_operator(rows, ctx, group=[lambda r, _c: r["k"]])
    )
    by_key = {row["key"]: row for row in out}
    assert by_key["a"]["total"] == 4.0
    assert by_key["b"]["total"] == 2.0


def test_sliding_windows_count_rows_multiple_times(ctx):
    rows = rows_at((5.0, {"x": 1}), (25.0, {"x": 1}))
    out = list(make_agg_operator(rows, ctx, size=20.0, slide=10.0))
    # Row at t=5 belongs to windows [-10, 10) and [0, 20).
    totals = sorted((r["window_start"], r["n"]) for r in out)
    assert (0.0, 1) in totals
    assert (-10.0, 1) in totals
    assert sum(n for _s, n in totals) == 4  # each row in 2 windows


def test_having_filters_groups(ctx):
    rows = rows_at(
        (1.0, {"x": 1, "k": "a"}),
        (2.0, {"x": 2, "k": "a"}),
        (3.0, {"x": 3, "k": "b"}),
    )
    out = list(
        make_agg_operator(
            rows, ctx,
            group=[lambda r, _c: r["k"]],
            having=lambda r, _c: r["__agg0"] >= 2,
        )
    )
    assert len(out) == 1
    assert out[0]["key"] == "a"


def test_order_by_and_limit_within_window(ctx):
    rows = rows_at(
        (1.0, {"x": 5, "k": "a"}),
        (2.0, {"x": 1, "k": "b"}),
        (3.0, {"x": 3, "k": "c"}),
    )
    out = list(
        make_agg_operator(
            rows, ctx,
            group=[lambda r, _c: r["k"]],
            order_by=[(lambda r, _c: r["total"], True)],
            limit=2,
        )
    )
    assert [r["total"] for r in out] == [5.0, 3.0]


def test_windows_closed_stat(ctx):
    rows = rows_at((1.0, {"x": 1}), (11.0, {"x": 1}), (21.0, {"x": 1}))
    list(make_agg_operator(rows, ctx))
    assert ctx.stats.windows_closed == 3


def test_join_matches_within_band(ctx):
    left = rows_at((1.0, {"k": 1, "lv": "L1"}), (50.0, {"k": 1, "lv": "L2"}))
    right = rows_at((2.0, {"k": 1, "rv": "R1"}), (100.0, {"k": 2, "rv": "R2"}))
    join = ops.WindowedJoinOperator(
        batch_rows(left, 1), right,
        lambda r, _c: r["k"], lambda r, _c: r["k"],
        WindowSpec(size_seconds=10.0), ctx,
    )
    out = drain(join)
    assert len(out) == 1
    assert out[0]["lv"] == "L1"
    assert out[0]["rv"] == "R1"


def test_join_renames_colliding_fields(ctx):
    left = rows_at((1.0, {"k": 1, "v": "left"}))
    right = rows_at((1.5, {"k": 1, "v": "right"}))
    join = ops.WindowedJoinOperator(
        batch_rows(left, 2), right,
        lambda r, _c: r["k"], lambda r, _c: r["k"],
        WindowSpec(size_seconds=10.0), ctx,
    )
    out = drain(join)[0]
    assert out["v"] == "left"
    assert out["r_v"] == "right"


def test_join_null_keys_never_match(ctx):
    left = rows_at((1.0, {"k": None}))
    right = rows_at((1.5, {"k": None}))
    join = ops.WindowedJoinOperator(
        batch_rows(left, 2), right,
        lambda r, _c: r["k"], lambda r, _c: r["k"],
        WindowSpec(size_seconds=10.0), ctx,
    )
    assert drain(join) == []
