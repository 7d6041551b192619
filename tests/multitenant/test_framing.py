"""What the router hands a tenant: exact frames of the scan's own items.

A tenant's plan reads its inbox through an ordinary ScanOperator, whose
source contract is frames of exactly ``batch_size`` items and then one
shorter frame that ends the stream. And the router moves what the scan
delivered: over ``twitter`` those are tweets, so a group whose conjuncts
and bodies all have column forms never builds a row dict.
"""

from __future__ import annotations

from repro import EngineConfig
from repro.twitter.models import Tweet

from tests.multitenant.conftest import QUERY_POOL, run_independent, run_shared

BATCH = 7


def test_no_tenant_batch_exceeds_the_batch_size(mini_soccer):
    config = EngineConfig(batch_size=BATCH, tracing=True)
    rows, group = run_shared(mini_soccer, QUERY_POOL, config=config)

    sizes = [
        [
            span.attrs["rows"]
            for span in handle.tracer.spans
            if span.kind == "batch" and span.name == f"Scan({group.label})"
        ]
        for handle in group.handles
    ]
    for index, tenant_sizes in enumerate(sizes):
        assert max(tenant_sizes) <= BATCH, f"tenant {index}: {tenant_sizes}"
    for index, tenant_sizes in enumerate(sizes):
        # Every frame but the stream's last is full.
        assert set(tenant_sizes[:-1]) <= {BATCH}, f"tenant {index}: {tenant_sizes}"
    for sql, tenant_rows in zip(QUERY_POOL, rows):
        assert tenant_rows == run_independent(
            mini_soccer, sql, config=EngineConfig(batch_size=BATCH)
        ), sql


def test_routing_builds_no_row_dicts_over_a_tweet_backed_scan(
    mini_soccer, monkeypatch
):
    """Both tenants' conjuncts and bodies are whole-column. The window
    body builds one representative row per (window, group), as it does
    when run alone; the router adds none."""
    sqls = [
        "SELECT text FROM twitter WHERE text contains 'goal';",
        "SELECT COUNT(*) AS n FROM twitter WHERE text contains 'goal' "
        "WINDOW 5 minutes;",
    ]
    calls = []
    to_row = Tweet.to_row

    def counting_to_row(tweet):
        calls.append(tweet.tweet_id)
        return to_row(tweet)

    monkeypatch.setattr(Tweet, "to_row", counting_to_row)
    alone = [run_independent(mini_soccer, sql) for sql in sqls]
    built_alone = len(calls)
    del calls[:]
    rows, group = run_shared(mini_soccer, sqls)

    assert rows == alone
    for handle in group.handles:
        assert "[vectorized 1/1]" in handle.explain()
    assert group.stats.rows_routed > 100 * built_alone
    assert len(calls) == built_alone
