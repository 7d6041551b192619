"""Golden EXPLAIN ANALYZE renderings and span/stats reconciliation.

The batch-size grid runs over the static ``fixed`` source (the clock
never advances). Regenerate after an intentional change with::

    UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/obs/test_explain_analyze.py
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro import EngineConfig
from repro.errors import ExecutionError
from repro.obs import reconcile

from tests.obs.conftest import (
    BATCH_SIZES,
    GRID_IDS,
    GROUPED_SQL,
    static_session,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _check_golden(name: str, rendered: str) -> None:
    path = GOLDEN_DIR / f"{name}.txt"
    if os.environ.get("UPDATE_GOLDEN"):
        path.write_text(rendered + "\n", encoding="utf-8")
    assert rendered + "\n" == path.read_text(encoding="utf-8")


@pytest.mark.parametrize("batch_size", BATCH_SIZES, ids=GRID_IDS)
def test_golden_rendering(batch_size):
    session = static_session(batch_size=batch_size)
    handle = session.query(GROUPED_SQL)
    try:
        rows = handle.all()
        rendered = handle.explain(analyze=True)
    finally:
        handle.close()
    assert len(rows) == 5
    _check_golden(f"analyze_w1_b{batch_size}", rendered)


@pytest.mark.parametrize("batch_size", BATCH_SIZES, ids=GRID_IDS)
def test_reconcile_across_grid(batch_size):
    session = static_session(batch_size=batch_size)
    handle = session.query(GROUPED_SQL)
    try:
        handle.all()
        report = reconcile(handle)
    finally:
        handle.close()
    assert report["ok"], report


def test_golden_serial_scenario_with_services(session_factory):
    """Real virtual-clock timings and a services section, still golden —
    serial plans are fully deterministic."""
    session = session_factory(
        "soccer",
        config=EngineConfig(tracing=True, latency_mode="cached"),
    )
    sql = (
        "SELECT latitude(loc) AS lat FROM twitter "
        "WHERE text contains 'goal';"
    )
    handle = session.query(sql)
    try:
        rendered = handle.explain(analyze=True)
    finally:
        handle.close()
    assert "services:" in rendered and "geocode:" in rendered
    _check_golden("analyze_soccer_serial", rendered)


def test_analyze_requires_tracing():
    session = static_session(tracing=False)
    handle = session.query(GROUPED_SQL)
    try:
        handle.all()
        with pytest.raises(ExecutionError, match="tracing"):
            handle.explain(analyze=True)
    finally:
        handle.close()


def test_session_explain_analyze_forces_tracing():
    session = static_session(tracing=False)
    rendered = session.explain(GROUPED_SQL, analyze=True)
    assert "-- EXPLAIN ANALYZE" in rendered
    assert "query totals:" in rendered


def test_analyze_totals_match_query_stats():
    """The rendered totals line is exactly QueryStats.as_dict()."""
    session = static_session(batch_size=256)
    handle = session.query(GROUPED_SQL)
    try:
        handle.all()
        rendered = handle.explain(analyze=True)
        stats = handle.stats.as_dict()
    finally:
        handle.close()
    totals_line = next(
        line for line in rendered.splitlines()
        if line.startswith("query totals: ")
    )
    expected = " ".join(f"{k}={v}" for k, v in stats.items())
    assert totals_line == "query totals: " + expected


def test_every_golden_file_has_a_case():
    expected = {f"analyze_{case}.txt" for case in GRID_IDS}
    expected.add("analyze_soccer_serial.txt")
    on_disk = {p.name for p in GOLDEN_DIR.glob("*.txt")}
    assert on_disk == expected
