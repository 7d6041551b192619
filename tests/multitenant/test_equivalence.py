"""Tenant equivalence: shared execution == N independent queries.

The contract the whole multitenant layer stands on: admitting a query to
a :class:`SharedScanGroup` must not change a single output row relative
to running it alone on its own session (lossless delivery pinned by the
conftest helpers). Hypothesis samples random tenant sets from the query
pool; a deterministic sweep crosses batch size, worker count, and tracing,
and checks the observability contract (EXPLAIN, trace reconciliation)
along the way.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineConfig
from repro.obs import reconcile

from tests.multitenant.conftest import (
    QUERY_POOL,
    run_independent,
    run_shared,
)


@given(
    picks=st.lists(
        st.sampled_from(range(len(QUERY_POOL))),
        min_size=2,
        max_size=8,
        unique=True,
    )
)
@settings(max_examples=8, deadline=None)
def test_random_tenant_sets_match_independent_runs(mini_soccer, picks):
    """Any 2–8 queries from the pool: shared rows == independent rows."""
    sqls = [QUERY_POOL[i] for i in picks]
    shared, group = run_shared(mini_soccer, sqls)
    for sql, rows in zip(sqls, shared):
        assert rows == run_independent(mini_soccer, sql), sql
    assert group.stats.admitted == len(sqls)
    assert group.stats.detached == 0


#: A fixed set exercising every pipeline shape at once: shared filter
#: prefix (two tenants on ``contains 'goal'``), UDF projection, early
#: LIMIT exit, and windowed aggregation.
SWEEP_SQLS = [
    QUERY_POOL[1],
    QUERY_POOL[2],
    QUERY_POOL[4],
    QUERY_POOL[5],
]


@pytest.mark.parametrize("batch_size", [1, 256])
@pytest.mark.parametrize("tracing", [False, True])
def test_equivalence_sweep(mini_soccer, batch_size, tracing):
    """Equivalence must survive every engine configuration.

    batch_size=1 is the legacy row-at-a-time framing; tracing wraps every
    operator in span probes.
    """
    config = EngineConfig(batch_size=batch_size, tracing=tracing)
    shared, group = run_shared(mini_soccer, SWEEP_SQLS, config=config)
    for i, sql in enumerate(SWEEP_SQLS):
        assert shared[i] == run_independent(mini_soccer, sql, config=config), (
            f"batch={batch_size} tracing={tracing}: {sql}"
        )
    # Two tenants share the `text contains 'goal'` conjunct, so the
    # per-row memo must have saved evaluations.
    assert group.stats.evaluations_shared > 0
    tree = group.stats_dict()
    assert tree["connection"]["delivered"] == tree["connection"]["scanned"]
    for handle in group.handles:
        if tracing:
            report = reconcile(handle)
            assert report["ok"], report
            analyze = handle.explain(analyze=True)
            assert "SharedScan" in analyze
        else:
            assert "SharedScan" in handle.explain()


def test_group_explain_describes_fanout(mini_soccer):
    _rows, group = run_shared(mini_soccer, SWEEP_SQLS)
    text = group.explain()
    assert "SharedScan group" in text
    assert "Fanout: 1 distinct conjunct(s) shared across tenants" in text
    assert "buffer" not in text and "stall" not in text
    filter_line = next(
        line
        for line in group.handles[0].explain().splitlines()
        if line.startswith("Filter:")
    )
    assert filter_line == (
        "Filter: (text CONTAINS 'goal') (evaluated fanout-side, memoized "
        "across tenants) [vectorized 1/1]"
    )


def test_tenants_run_their_own_confidence_targets(mini_soccer):
    """Confidence is part of each statement, so two tenants of one shared
    scan run different targets, each row-identical to running alone."""
    sql = (
        "SELECT lang, AVG(followers) AS f FROM twitter "
        "WHERE text contains 'goal' GROUP BY lang WINDOW CONFIDENCE {};"
    )
    sqls = [sql.format("50 MAX 30 minutes"), sql.format(400)]
    shared, group = run_shared(mini_soccer, sqls)
    for rows, one in zip(shared, sqls):
        assert rows == run_independent(mini_soccer, one)
    assert all(shared) and shared[0] != shared[1]
    assert "ci≤50," in group.handles[0].explain()
    assert "ci≤400," in group.handles[1].explain()


def test_workers_are_ignored_but_rows_identical(mini_soccer):
    """The inert ``workers`` field changes neither a tenant's rows nor
    its EXPLAIN."""
    shared, group = run_shared(
        mini_soccer, [QUERY_POOL[1]], config=EngineConfig(workers=4)
    )
    serial, serial_group = run_shared(mini_soccer, [QUERY_POOL[1]])
    assert shared == serial
    assert shared[0] == run_independent(mini_soccer, QUERY_POOL[1])
    assert group.handles[0].explain() == serial_group.handles[0].explain()


def test_tenant_stats_count_routed_rows(mini_soccer):
    """A tenant's rows_scanned is its routed substream, and the group's
    rows_routed is the sum over tenants."""
    shared, group = run_shared(
        mini_soccer, [QUERY_POOL[0], QUERY_POOL[1]]
    )
    tree = group.stats_dict()
    routed = [
        tree["tenant"]["0"]["rows_routed"],
        tree["tenant"]["1"]["rows_routed"],
    ]
    # The unfiltered tenant sees every delivered row; the filtered one a
    # strict subset.
    assert routed[0] == tree["connection"]["delivered"]
    assert 0 < routed[1] < routed[0]
    assert tree["group"]["rows_routed"] == sum(routed)
    assert routed[0] == group.handles[0].stats.rows_scanned
    assert len(shared[0]) == routed[0]
