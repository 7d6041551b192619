"""Unified observability: span tracing, metrics, EXPLAIN ANALYZE, exporters.

The engine's accounting used to live in scattered counter objects
(``QueryStats``, ``ManagedCallStats``, cache/resilience/breaker dicts,
``ConnectionStats``) with no per-operator timing. This package adds the
missing layer on top of the same virtual clock that drives execution:

- :mod:`repro.obs.trace` — structured spans (operator, batch, service,
  retry, reconnect) recorded by a thread-safe :class:`Tracer`; virtual
  timestamps make traces fully deterministic.
- :mod:`repro.obs.metrics` — a counter/gauge/histogram registry that
  absorbs the ad-hoc stats objects behind one ``snapshot()`` tree.
- :mod:`repro.obs.analyze` — EXPLAIN ANALYZE rendering: the plan
  annotated with rows, batches, wall/stall time, cache hit rates, and
  retries per operator.
- :mod:`repro.obs.export` — Chrome-trace JSON and Prometheus-style text.

Tracing is off by default (``EngineConfig.tracing=False``) and, when off,
the planner builds the exact same pipeline as before — zero wrappers,
zero per-row cost.
"""

from repro.obs.analyze import reconcile, render_analyze
from repro.obs.export import chrome_trace, render_prometheus, write_chrome_trace
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    app_metrics,
    query_metrics,
    shared_metrics,
)
from repro.obs.trace import OperatorProbe, Span, TraceOperator, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OperatorProbe",
    "Span",
    "TraceOperator",
    "Tracer",
    "app_metrics",
    "chrome_trace",
    "query_metrics",
    "reconcile",
    "render_analyze",
    "render_prometheus",
    "shared_metrics",
    "write_chrome_trace",
]
