"""The adaptive filter: one FilterOperator reorders its movable conjuncts.

Every plan with a WHERE clause runs one filter stage. It starts in
written order and, at batch boundaries every ``RERANK_ROWS`` input rows,
stable-sorts the conjuncts that cannot raise by a static cost class per
row they dropped. The written-order reference is the same plan with
``RERANK_ROWS`` patched above the input size, so it never re-ranks.

Every source here spans at least four re-rank windows, and its
selectivities flip halfway: the conjunct that filters most in the first
half passes most rows in the second.
"""

from __future__ import annotations

import pytest

from repro import EngineConfig, TweeQL
from repro.clock import VirtualClock
from repro.engine import functions, operators
from repro.engine.operators import Conjunct, FilterOperator
from repro.engine.types import EvalContext

N = 6 * operators.RERANK_ROWS
BASE_TS = 1_307_000_000.0
SCHEMA = ("created_at", "i", "a", "b", "c", "x", "loc")
LOCATIONS = ("London", "New York", "Sydney", "Buenos Aires", None)


def phase_rows(n=N):
    """``a`` passes 10 % of the first half and 90 % of the second, ``b``
    the other way round, and both pass every tenth row; ``c`` passes 5 %
    throughout; ``x`` is negative in a third of the rows."""
    rows = []
    for i in range(n):
        rare, common = i % 10 == 0, i % 10 != 1
        first_half = i < n // 2
        rows.append({
            "created_at": BASE_TS + i,
            "i": i,
            "a": int(rare if first_half else common),
            "b": int(common if first_half else rare),
            "c": int(i % 20 == 3),
            "x": i % 9 - 3,
            "loc": LOCATIONS[i % len(LOCATIONS)],
        })
    return rows


ROWS = phase_rows()


def session(batch_size=256, rows=ROWS):
    tweeql = TweeQL(config=EngineConfig(batch_size=batch_size))
    tweeql.register_source("s", lambda: iter([dict(r) for r in rows]), SCHEMA)
    return tweeql


def run(sql, batch_size=256, rows=ROWS):
    handle = session(batch_size, rows).query(sql)
    out = handle.all()
    stats = handle.stats.as_dict()
    services = handle.service_stats
    handle.close()
    return out, stats, services


@pytest.fixture()
def written_order(monkeypatch):
    """Run a query with re-ranking off: the plan keeps its written order."""

    def run_written(sql, batch_size=256, rows=ROWS):
        with monkeypatch.context() as patch:
            patch.setattr(operators, "RERANK_ROWS", len(rows) + 1)
            return run(sql, batch_size, rows)

    return run_written


@pytest.mark.parametrize("batch", (1, 7, 256))
def test_phase_shift_reorders_without_changing_rows(batch, written_order):
    sql = "SELECT i FROM s WHERE b = 1 AND a = 1;"
    rows, stats, _ = run(sql, batch)
    want_rows, want_stats, _ = written_order(sql, batch)
    assert rows == want_rows
    assert len(rows) == len(range(0, N, 10))
    # The written order evaluates ``a`` on every row ``b`` kept.
    assert want_stats["predicate_evaluations"] == N + sum(r["b"] for r in ROWS)
    assert stats["predicate_evaluations"] < want_stats["predicate_evaluations"]
    assert stats["rows_emitted"] == want_stats["rows_emitted"]


@pytest.mark.parametrize("rows, order", [
    (ROWS[: N // 2], ["(a = 1)", "(b = 1)"]),
    (ROWS, ["(b = 1)", "(a = 1)"]),
], ids=["first_half", "both_halves"])
def test_the_order_follows_the_phase(rows, order):
    plan = session(rows=rows).plan("SELECT i FROM s WHERE b = 1 AND a = 1;")
    (filter_op,) = filters_of(plan.pipeline)
    assert [c.name for c in filter_op.conjuncts] == ["(b = 1)", "(a = 1)"]
    for _batch in plan.pipeline:
        pass
    assert [c.name for c in filter_op.conjuncts] == order


@pytest.mark.parametrize("batch", (1, 7, 256))
def test_evaluations_are_deterministic(batch):
    sql = "SELECT i FROM s WHERE b = 1 AND a = 1 AND c = 1;"
    first = run(sql, batch)[1]
    assert run(sql, batch)[1] == first


def test_meandev_sees_the_written_row_sequence(monkeypatch, written_order):
    """``meandev`` is a barrier: the conjuncts before it reorder among
    themselves, and the rare ``c`` behind it never moves in front."""
    calls: list = []
    score = functions.MeanDevUDF.__call__

    def spy(self, ctx, value, alpha=None):
        calls.append(value)
        return score(self, ctx, value, alpha)

    monkeypatch.setattr(functions.MeanDevUDF, "__call__", spy)
    sql = "SELECT i FROM s WHERE b = 1 AND a = 1 AND meandev(x) > -50 AND c = 1;"
    want_rows, want_stats, _ = written_order(sql)
    written_calls, calls[:] = list(calls), []
    rows, stats, _ = run(sql)
    assert calls == written_calls
    assert len(calls) == len(range(0, N, 10))
    assert rows == want_rows
    assert stats["predicate_evaluations"] < want_stats["predicate_evaluations"]


def test_service_conjunct_makes_the_written_calls(written_order):
    sql = "SELECT i FROM s WHERE b = 1 AND a = 1 AND latitude(loc) > 0 AND c = 1;"
    want_rows, want_stats, want_services = written_order(sql)
    rows, stats, services = run(sql)
    assert rows == want_rows
    assert services["geocode"]["calls"] == want_services["geocode"]["calls"]
    assert services["geocode"]["calls"] > 0
    assert stats["predicate_evaluations"] < want_stats["predicate_evaluations"]


@pytest.mark.parametrize("batch", (1, 256))
def test_a_call_never_sees_a_row_its_guard_dropped(batch, written_order):
    """``sqrt`` raises on a negative argument, and ``x >= 0`` is its
    written guard. In the first half ``x >= 0`` is rarer than ``b`` and
    moves to the front; ``sqrt``, which passes fewer rows than either,
    keeps its written place behind both."""
    with pytest.raises(ValueError):
        run("SELECT i FROM s WHERE sqrt(x) > 1;", batch)
    sql = "SELECT i FROM s WHERE b = 1 AND x >= 0 AND sqrt(x) > 1;"
    rows, _, _ = run(sql, batch)
    assert rows == written_order(sql, batch)[0]
    plan = session(batch, ROWS[: N // 2]).plan(sql)
    (filter_op,) = filters_of(plan.pipeline)
    for _batch in plan.pipeline:
        pass
    assert [c.name for c in filter_op.conjuncts] == [
        "(x >= 0)", "(b = 1)", "(sqrt(x) > 1)",
    ]


@pytest.mark.parametrize("batch", (1, 256))
def test_one_conjunct_keeps_its_counters(batch, written_order):
    sql = "SELECT i FROM s WHERE a = 1;"
    rows, stats, _ = run(sql, batch)
    want_rows, want_stats, _ = written_order(sql, batch)
    assert (rows, stats) == (want_rows, want_stats)
    assert stats["predicate_evaluations"] == N
    assert stats["rows_after_filter"] == sum(r["a"] for r in ROWS)


def filters_of(pipeline):
    node, found = pipeline, []
    while node is not None:
        if isinstance(node, FilterOperator):
            found.append(node)
        node = getattr(node, "_child", None)
    return found


def test_rerank_sorts_only_between_barriers():
    def conjunct(name, passes, movable=True, cost=1, evaluations=100):
        stage = Conjunct(name, lambda _r, _c: True, cost=cost, movable=movable)
        stage.evaluations, stage.passes = evaluations, passes
        return stage

    ctx = EvalContext(clock=VirtualClock(start=0.0))
    filter_op = FilterOperator([], [
        conjunct("common", 90),
        conjunct("rare_regex", 10, cost=4),
        conjunct("rare", 10),
        conjunct("call", 1, movable=False),
        conjunct("unseen", 0, evaluations=0),
        conjunct("keeps_all", 100),
        conjunct("half", 50),
        conjunct("service", 1, movable=False),
        # Dropping nothing, a cheap conjunct never goes in front of a
        # costlier one that drops rows.
        conjunct("cheap_keeps_all", 100),
        conjunct("regex_keeps_most", 60, cost=4),
    ], ctx)
    filter_op._rerank()
    assert [c.name for c in filter_op.conjuncts] == [
        "rare", "rare_regex", "common", "call",
        "half", "unseen", "keeps_all", "service",
        "regex_keeps_most", "cheap_keeps_all",
    ]
    assert all(c.evaluations == c.passes == 0 for c in filter_op.conjuncts)


def test_the_eddy_knob_is_gone():
    with pytest.raises(TypeError):
        EngineConfig(use_eddy=True)


def test_like_ranks_behind_an_equally_selective_regex(monkeypatch):
    """``LIKE`` costs more per row than ``MATCHES``, so of two conjuncts
    that each drop half the rows the regex ends up first."""
    rows = [
        {"created_at": BASE_TS + i,
         "t": "goal" if i % 2 else "miss",
         "u": "goal" if i // 2 % 2 else "miss"}
        for i in range(N)
    ]
    sql = "SELECT t, u FROM s WHERE t LIKE '%goa%' AND u MATCHES 'g[oa]+l';"

    def drain():
        tweeql = TweeQL(config=EngineConfig(batch_size=256))
        tweeql.register_source(
            "s", lambda: iter([dict(r) for r in rows]), ("created_at", "t", "u")
        )
        plan = tweeql.plan(sql)
        (filter_op,) = filters_of(plan.pipeline)
        assert [c.cost for c in filter_op.conjuncts] == [8, 4]
        out = [row for batch in plan.pipeline for row in batch.rows]
        return out, [c.name for c in filter_op.conjuncts]

    rows_out, order = drain()
    assert order == ["(u MATCHES 'g[oa]+l')", "(t LIKE '%goa%')"]
    monkeypatch.setattr(operators, "RERANK_ROWS", N + 1)
    written_rows, written = drain()
    assert written == ["(t LIKE '%goa%')", "(u MATCHES 'g[oa]+l')"]
    assert rows_out == written_rows
    assert len(rows_out) == N // 4
