"""Tracing must be output-neutral: traced and untraced runs match row-for-row."""

from __future__ import annotations

import pytest

from repro import EngineConfig

from tests.obs.conftest import (
    BATCH_SIZES,
    GRID_IDS,
    GROUPED_SQL,
    static_session,
)


def _rows(tracing: bool, batch_size: int) -> list[dict]:
    session = static_session(batch_size=batch_size, tracing=tracing)
    handle = session.query(GROUPED_SQL)
    try:
        return handle.all()
    finally:
        handle.close()


@pytest.mark.parametrize("batch_size", BATCH_SIZES, ids=GRID_IDS)
def test_rows_identical_with_and_without_tracing(batch_size):
    assert _rows(True, batch_size) == _rows(False, batch_size)


def test_scenario_rows_and_stats_identical(session_factory):
    """Also holds on a real scenario with service calls and clock advance."""
    sql = (
        "SELECT latitude(loc) AS lat FROM twitter "
        "WHERE text contains 'goal' LIMIT 40;"
    )
    results = {}
    for tracing in (False, True):
        session = session_factory(
            "soccer", config=EngineConfig(tracing=tracing)
        )
        handle = session.query(sql)
        try:
            rows = handle.all()
            stats = handle.stats.as_dict()
        finally:
            handle.close()
        results[tracing] = (rows, stats)
    assert results[True] == results[False]
