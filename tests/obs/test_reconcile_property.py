"""Property test: the trace is an independent recount of the same stream.

For any row count, predicate threshold, and batch size, the
probe totals must reconcile exactly with the engine's own ``QueryStats``
counters, and the traced output must equal the untraced output.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineConfig, TweeQL
from repro.obs import reconcile

SCHEMA = ("text", "user_id", "created_at")


def _session(n_rows: int, batch_size: int, tracing: bool):
    rows = [
        {"text": f"tweet {i}", "user_id": i % 11, "created_at": 0.0}
        for i in range(n_rows)
    ]
    config = EngineConfig(batch_size=batch_size, tracing=tracing)
    session = TweeQL(config=config)
    session.register_source("fixed", lambda: iter(rows), SCHEMA)
    return session


@settings(max_examples=20, deadline=None)
@given(
    n_rows=st.integers(min_value=1, max_value=300),
    threshold=st.integers(min_value=0, max_value=12),
    batch_size=st.sampled_from([1, 3, 64, 256]),
)
def test_probes_reconcile_with_query_stats(n_rows, threshold, batch_size):
    sql = (
        f"SELECT count(*) AS n FROM fixed WHERE user_id > {threshold} "
        "GROUP BY user_id WINDOW 60 seconds;"
    )
    handle = _session(n_rows, batch_size, tracing=True).query(sql)
    try:
        traced_rows = handle.all()
        report = reconcile(handle)
    finally:
        handle.close()
    assert report["ok"], report

    untraced = _session(n_rows, batch_size, tracing=False).query(sql)
    try:
        assert untraced.all() == traced_rows
    finally:
        untraced.close()
