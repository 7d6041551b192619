"""Trace and metrics exporters: Chrome trace JSON, Prometheus text.

Chrome traces load in ``chrome://tracing`` / Perfetto: each lane becomes
a named thread row, every span a complete ("X") event with virtual-clock
microsecond timestamps. Events are ordered by the per-lane emission
ordinal, so the file is byte-deterministic whenever the underlying trace
is (see :mod:`repro.obs.trace`).

The Prometheus exporter renders a :class:`~repro.obs.metrics.MetricsRegistry`
in the text exposition format (version 0.0.4) for the TwitInfo server's
``/metrics`` endpoint.
"""

from __future__ import annotations

import json
from typing import Any


def chrome_trace_events(
    tracer: Any, pid: int = 1, process_name: str = "tweeql"
) -> list[dict[str, Any]]:
    """The trace as a list of Chrome trace events (one process)."""
    spans = tracer.sorted_spans()
    lanes: list[str] = []
    for span in spans:
        if span.lane not in lanes:
            lanes.append(span.lane)
    # Span ids are allocated under a lock shared by every lane, so their
    # values depend on thread interleaving even when the spans themselves
    # are deterministic. Renumber by deterministic (lane, lane_seq)
    # position so parent links survive byte-for-byte comparison.
    renumber = {span.span_id: index for index, span in enumerate(spans)}
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    tids = {lane: index + 1 for index, lane in enumerate(lanes)}
    for lane, tid in tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": lane},
            }
        )
    for span in spans:
        events.append(
            {
                "name": span.name,
                "cat": span.kind,
                "ph": "X",
                "ts": round(span.start * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": pid,
                "tid": tids[span.lane],
                "args": {
                    **span.attrs,
                    **(
                        {"parent": renumber[span.parent_id]}
                        if span.parent_id in renumber
                        else {}
                    ),
                },
            }
        )
    return events


def chrome_trace(
    traces: Any, process_name: str = "tweeql"
) -> dict[str, Any]:
    """A complete Chrome trace document.

    ``traces`` is one tracer, or a list of ``(name, tracer)`` pairs —
    each pair becomes its own process row (the CLI uses this to put every
    analyzed query of a ``.tql`` file in one file).
    """
    if hasattr(traces, "sorted_spans"):
        pairs = [(process_name, traces)]
    else:
        pairs = list(traces)
    events: list[dict[str, Any]] = []
    for index, (name, tracer) in enumerate(pairs, start=1):
        events.extend(chrome_trace_events(tracer, pid=index, process_name=name))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    traces: Any, path: str, process_name: str = "tweeql"
) -> None:
    """Serialize :func:`chrome_trace` to ``path`` (stable key order)."""
    document = chrome_trace(traces, process_name=process_name)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(document, f, indent=1, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------


def _prometheus_name(dotted: str) -> str:
    cleaned = [
        ch if (ch.isalnum() or ch == "_") else "_" for ch in dotted
    ]
    return "tweeql_" + "".join(cleaned)


def _format_value(value: float) -> str:
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return repr(value)


def render_prometheus(registry: Any) -> str:
    """The registry in Prometheus text exposition format."""
    lines: list[str] = []
    for dotted, value in registry.flat().items():
        name = _prometheus_name(dotted)
        if isinstance(value, dict):  # histogram
            lines.append(f"# TYPE {name} histogram")
            for bucket, count in value["buckets"].items():
                le = bucket.removeprefix("le_").replace("inf", "+Inf")
                lines.append(f'{name}_bucket{{le="{le}"}} {count}')
            lines.append(f"{name}_sum {_format_value(value['sum'])}")
            lines.append(f"{name}_count {value['count']}")
        else:
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_format_value(value)}")
    return "\n".join(lines) + "\n"
