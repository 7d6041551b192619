"""Chrome-trace export: structure and byte determinism."""

from __future__ import annotations

import json

import pytest

from repro.obs import chrome_trace, write_chrome_trace

from tests.obs.conftest import (
    BATCH_SIZES,
    GRID_IDS,
    GROUPED_SQL,
    static_session,
)


def _run_trace(batch_size: int) -> dict:
    session = static_session(batch_size=batch_size)
    handle = session.query(GROUPED_SQL)
    try:
        handle.all()
        return handle.chrome_trace()
    finally:
        handle.close()


@pytest.mark.parametrize("batch_size", BATCH_SIZES, ids=GRID_IDS)
def test_trace_is_byte_deterministic(batch_size):
    first = json.dumps(_run_trace(batch_size), sort_keys=True)
    second = json.dumps(_run_trace(batch_size), sort_keys=True)
    assert first == second


def test_document_structure():
    document = _run_trace(batch_size=256)
    assert document["displayTimeUnit"] == "ms"
    events = document["traceEvents"]
    metadata = [e for e in events if e["ph"] == "M"]
    spans = [e for e in events if e["ph"] == "X"]
    assert {e["name"] for e in metadata} >= {"process_name", "thread_name"}
    assert spans, "a run must record spans"
    for event in spans:
        assert event["ts"] >= 0
        assert event["dur"] >= 0
        assert event["cat"]
    # Batch spans link back to their operator span.
    batch_events = [e for e in spans if e["cat"] == "batch"]
    assert batch_events
    assert all("parent" in e["args"] for e in batch_events)


def test_multi_query_export_gets_one_pid_per_query(tmp_path):
    session_a = static_session()
    session_b = static_session()
    handle_a = session_a.query(GROUPED_SQL)
    handle_b = session_b.query(GROUPED_SQL)
    try:
        handle_a.all()
        handle_b.all()
        path = tmp_path / "trace.json"
        write_chrome_trace(
            [("first", handle_a.tracer), ("second", handle_b.tracer)],
            str(path),
        )
    finally:
        handle_a.close()
        handle_b.close()
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    document = json.loads(text)
    pids = {event["pid"] for event in document["traceEvents"]}
    assert pids == {1, 2}
    names = {
        event["args"]["name"]
        for event in document["traceEvents"]
        if event["name"] == "process_name"
    }
    assert names == {"first", "second"}


def test_single_tracer_accepted_directly():
    session = static_session()
    handle = session.query(GROUPED_SQL)
    try:
        handle.all()
        document = chrome_trace(handle.tracer, process_name="solo")
    finally:
        handle.close()
    (process_event,) = [
        e for e in document["traceEvents"] if e["name"] == "process_name"
    ]
    assert process_event["args"]["name"] == "solo"
