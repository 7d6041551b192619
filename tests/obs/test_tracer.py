"""Unit tests for the span recorder and the pipeline trace wrapper."""

from __future__ import annotations

from repro.engine.types import ColumnBatch
from repro.obs import OperatorProbe, Span, TraceOperator, Tracer


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_add_assigns_ids_and_per_lane_sequence():
    tracer = Tracer(FakeClock())
    a = tracer.add("a", "operator", 0.0, 1.0, lane="main")
    b = tracer.add("b", "operator", 1.0, 2.0, lane="worker-0")
    c = tracer.add("c", "batch", 2.0, 3.0, lane="main")
    assert (a.span_id, b.span_id, c.span_id) == (0, 1, 2)
    assert (a.lane_seq, b.lane_seq, c.lane_seq) == (0, 0, 1)
    assert a.duration == 1.0


def test_instant_is_zero_duration_at_now():
    clock = FakeClock(5.0)
    tracer = Tracer(clock)
    span = tracer.instant("mark", "reconnect", lane="stream", gap=3)
    assert span.start == span.end == 5.0
    assert span.attrs == {"gap": 3}


def test_started_at_is_plan_time():
    clock = FakeClock(7.5)
    tracer = Tracer(clock)
    clock.advance(1.0)
    assert tracer.started_at == 7.5


def test_spans_of_filters_and_orders_deterministically():
    tracer = Tracer(FakeClock())
    tracer.add("late", "batch", 0.0, 1.0, lane="worker-1")
    tracer.add("early", "batch", 0.0, 1.0, lane="worker-0")
    tracer.add("op", "operator", 0.0, 1.0, lane="worker-0")
    batches = tracer.spans_of("batch")
    assert [s.name for s in batches] == ["early", "late"]
    everything = tracer.sorted_spans()
    assert [s.lane for s in everything] == ["worker-0", "worker-0", "worker-1"]


def test_span_as_dict_round_trips_the_fields():
    span = Span(
        span_id=3, name="Scan", kind="operator", lane="main",
        start=0.1234567, end=1.0, lane_seq=2, parent_id=1,
        attrs={"rows": 5},
    )
    assert span.as_dict() == {
        "span_id": 3, "name": "Scan", "kind": "operator", "lane": "main",
        "start": 0.123457, "end": 1.0, "lane_seq": 2, "parent_id": 1,
        "attrs": {"rows": 5},
    }


def _ticking_source(clock: FakeClock, batches: list[ColumnBatch]):
    """Yields the batches, advancing the clock one second per pull."""
    for batch in batches:
        clock.advance(1.0)
        yield batch


def test_trace_operator_is_transparent_and_counts():
    clock = FakeClock()
    tracer = Tracer(clock)
    probe = tracer.probe("Scan(fixed)")
    batches = [
        ColumnBatch.from_rows([{"a": 1}, {"a": 2}]),
        ColumnBatch.from_rows([{"a": 3}], last=True),
    ]
    wrapped = TraceOperator(_ticking_source(clock, batches), probe, tracer)
    assert list(wrapped) == batches  # pass-through, untouched objects
    assert (probe.rows, probe.batches) == (3, 2)
    assert probe.wall_seconds == 2.0  # one timed pull per batch

    op_spans = tracer.spans_of("operator")
    batch_spans = tracer.spans_of("batch")
    assert len(op_spans) == 1 and len(batch_spans) == 2
    assert all(s.parent_id == op_spans[0].span_id for s in batch_spans)
    assert [s.attrs for s in batch_spans] == [
        {"rows": 2, "last": False}, {"rows": 1, "last": True},
    ]
    assert op_spans[0].attrs["rows"] == 3
    assert op_spans[0].attrs["batches"] == 2


def test_trace_operator_without_batch_spans():
    clock = FakeClock()
    tracer = Tracer(clock, batch_spans=False)
    probe = tracer.probe("Scan(fixed)")
    batches = [ColumnBatch.from_rows([{"a": 1}], last=True)]
    list(TraceOperator(_ticking_source(clock, batches), probe, tracer))
    assert tracer.spans_of("batch") == []
    assert probe.rows == 1


def test_trace_operator_finalizes_span_on_generator_close():
    # A downstream LIMIT (or handle.close()) abandons the iterator without
    # exhausting it; closing must still patch the operator span.
    clock = FakeClock()
    tracer = Tracer(clock)
    probe = tracer.probe("Scan(fixed)")
    batches = [
        ColumnBatch.from_rows([{"a": 1}]),
        ColumnBatch.from_rows([{"a": 2}], last=True),
    ]
    iterator = iter(TraceOperator(_ticking_source(clock, batches), probe, tracer))
    next(iterator)
    iterator.close()
    (op_span,) = tracer.spans_of("operator")
    assert op_span.attrs == {
        "rows": 1, "batches": 1, "wall_seconds": 1.0,
    }
    assert op_span.end == probe.last_ts
