"""Span tracing on the virtual clock.

A :class:`Span` is one timed interval — an operator's lifetime, one batch
pull, one service round trip, one retry backoff, one stream reconnect —
with a name, a kind, a lane (the logical stream the span belongs to:
``main`` for a plan of its own, ``fanout`` / ``tenant-N`` for a shared
scan's stages, ``services`` for service calls), virtual-clock start/end
timestamps, and optional parent linkage (batch spans point at their
operator span).

The :class:`Tracer` records spans append-only under a lock. Timestamps
come from the shared :class:`~repro.clock.VirtualClock`, which advances
deterministically (stream delivery and service latency draws are seeded),
so two runs of the same query produce byte-identical traces.

:class:`TraceOperator` is the pipeline instrumentation: the planner wraps
each stage in one when tracing is enabled, and the wrapper counts rows and
batches into an :class:`OperatorProbe` (the per-operator aggregate EXPLAIN
ANALYZE renders) while emitting a batch span per pull and one operator
span over the stage's lifetime.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any

#: Span kinds, for filtering and for exporter categories. ``sanitizer``
#: marks TQLSAN violation instants (see repro.engine.sanitizer).
KINDS = (
    "query", "operator", "batch", "service", "stall",
    "retry", "reconnect", "sanitizer",
)


@dataclass(slots=True)
class Span:
    """One recorded interval on the virtual clock."""

    span_id: int
    name: str
    kind: str
    lane: str
    start: float
    end: float
    #: Per-lane emission ordinal — the sort key exporters use.
    lane_seq: int
    parent_id: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "name": self.name,
            "kind": self.kind,
            "lane": self.lane,
            "start": round(self.start, 6),
            "end": round(self.end, 6),
            "lane_seq": self.lane_seq,
            "parent_id": self.parent_id,
            "attrs": dict(self.attrs),
        }


@dataclass
class OperatorProbe:
    """Aggregate counters for one wrapped pipeline stage.

    ``wall_seconds`` is *inclusive* time: virtual seconds that elapsed
    while this stage (and everything upstream of it) produced its batches.
    The EXPLAIN ANALYZE renderer subtracts the upstream probe's wall to
    show self time.
    """

    name: str
    lane: str = "main"
    rows: int = 0
    batches: int = 0
    wall_seconds: float = 0.0
    first_ts: float | None = None
    last_ts: float | None = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "lane": self.lane,
            "rows": self.rows,
            "batches": self.batches,
            "wall_seconds": round(self.wall_seconds, 6),
        }


class Tracer:
    """Thread-safe append-only span recorder over a virtual clock."""

    def __init__(self, clock: Any, batch_spans: bool = True) -> None:
        self.clock = clock
        #: Virtual time at plan time — the query span's start.
        self.started_at: float = clock.now
        #: Record a span per batch pull (set False to keep only operator /
        #: service / retry / reconnect spans on very long streams).
        self.batch_spans = batch_spans
        self.spans: list[Span] = []
        self.probes: list[OperatorProbe] = []
        # An async retry chain records its spans here, the launching
        # plan's tracer, from whichever thread advances the session's
        # clock past its relaunch: possibly another plan's handle, pulled
        # on its own thread.
        self._lock = threading.Lock()
        self._next_id = 0
        self._lane_seq: dict[str, int] = {}

    def add(
        self,
        name: str,
        kind: str,
        start: float,
        end: float,
        lane: str = "main",
        parent_id: int | None = None,
        **attrs: Any,
    ) -> Span:
        """Record one completed span; returns it (id assigned here)."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            lane_seq = self._lane_seq.get(lane, 0)
            self._lane_seq[lane] = lane_seq + 1
            span = Span(
                span_id=span_id, name=name, kind=kind, lane=lane,
                start=start, end=end, lane_seq=lane_seq,
                parent_id=parent_id, attrs=attrs,
            )
            self.spans.append(span)
            return span

    def instant(
        self, name: str, kind: str, lane: str = "main", **attrs: Any
    ) -> Span:
        """Record a zero-duration marker at the current virtual time."""
        now = self.clock.now
        return self.add(name, kind, now, now, lane=lane, **attrs)

    def probe(self, name: str, lane: str = "main") -> OperatorProbe:
        """Register a per-operator aggregate (pipeline order preserved)."""
        probe = OperatorProbe(name=name, lane=lane)
        with self._lock:
            self.probes.append(probe)
        return probe

    # -- queries over the record ----------------------------------------------

    def spans_of(self, *kinds: str) -> list[Span]:
        """Spans of the given kinds, in deterministic (lane, seq) order."""
        return sorted(
            (s for s in self.spans if s.kind in kinds),
            key=lambda s: (s.lane, s.lane_seq),
        )

    def sorted_spans(self) -> list[Span]:
        """Every span in deterministic (lane, lane_seq) order."""
        return sorted(self.spans, key=lambda s: (s.lane, s.lane_seq))


class TraceOperator:
    """Wraps one pipeline stage with row/batch/time accounting.

    Transparent to the data: batches pass through untouched, so traced and
    untraced runs are row-for-row identical. Each pull of the child is
    timed on the virtual clock (inclusive of upstream work) and recorded
    as a batch span; one operator span covers the stage's lifetime and is
    emitted when the stage exhausts — or when an abandoning consumer
    closes the generator (LIMIT, handle.close()).
    """

    def __init__(self, child: Any, probe: OperatorProbe, tracer: Tracer) -> None:
        self._child = child
        self._probe = probe
        self._tracer = tracer

    def __iter__(self) -> Iterator[Any]:
        tracer = self._tracer
        probe = self._probe
        clock = tracer.clock
        # The operator span opens at the first pull (so batch spans can
        # point at it) and has its end patched when the stage winds down.
        op_span = tracer.add(
            probe.name, "operator", clock.now, clock.now, lane=probe.lane
        )
        child = iter(self._child)
        try:
            while True:
                t0 = clock.now
                batch = next(child, None)
                t1 = clock.now
                probe.wall_seconds += t1 - t0
                if probe.first_ts is None:
                    probe.first_ts = t0
                    op_span.start = t0
                probe.last_ts = t1
                if batch is None:
                    break
                probe.batches += 1
                probe.rows += batch.length
                if tracer.batch_spans:
                    tracer.add(
                        probe.name, "batch", t0, t1, lane=probe.lane,
                        parent_id=op_span.span_id,
                        rows=batch.length, last=batch.last,
                    )
                yield batch
                if batch.last:
                    break
        finally:
            op_span.end = probe.last_ts if probe.last_ts is not None else clock.now
            op_span.attrs.update(
                rows=probe.rows, batches=probe.batches,
                wall_seconds=round(probe.wall_seconds, 6),
            )
