"""Metrics registry: counters, gauges, histograms behind one snapshot tree.

The engine already counts plenty — ``QueryStats``, ``ManagedCallStats``,
``CacheStats``, resilience/breaker stats, ``ConnectionStats`` — but each
lives on its own object with its own ``as_dict()``. The registry gives
them one home: metric names are dotted paths (``query.rows_scanned``,
``service.geocoder.cache.hits``), labels are folded into the path, and
``snapshot()`` returns the whole tree as nested dicts, ready for JSON or
the Prometheus text exporter.

:func:`query_metrics` absorbs a finished (or running) query handle;
:func:`app_metrics` absorbs a TwitInfo application (events, panels, and
the session's services) for the server's ``/metrics`` endpoint.
"""

from __future__ import annotations

import threading
from typing import Any

#: Histogram bucket upper bounds (virtual seconds) — tuned for service
#: latencies in the hundreds-of-ms range the paper describes.
DEFAULT_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount

    def as_value(self) -> float:
        return self.value


class Gauge:
    """A value that can go up and down (queue depth, breaker state)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def as_value(self) -> float:
        return self.value


class Histogram:
    """Fixed-bucket histogram with count and sum (Prometheus-style)."""

    __slots__ = ("buckets", "counts", "count", "sum")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * (len(self.buckets) + 1)  # +inf bucket last
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def as_value(self) -> dict[str, Any]:
        cumulative: list[int] = []
        running = 0
        for count in self.counts:
            running += count
            cumulative.append(running)
        return {
            "count": self.count,
            "sum": round(self.sum, 6),
            "buckets": {
                **{f"le_{bound:g}": cum
                   for bound, cum in zip(self.buckets, cumulative)},
                "le_inf": cumulative[-1],
            },
        }


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """Get-or-create registry of named metrics with a nested snapshot.

    Names are dotted paths; ``snapshot()`` splits on the dots to build the
    tree (``service.geocoder.calls`` → ``{"service": {"geocoder":
    {"calls": …}}}``). Registration is thread-safe; metric updates rely on
    the GIL-atomicity of the underlying ``+=`` the way the engine's
    existing stats objects already do.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        # The dashboard's HTTP server thread renders /metrics.
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, factory: Any, kind: type[Any]) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = factory()
                    self._metrics[name] = metric
        if not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, Gauge)

    def histogram(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(buckets), Histogram
        )

    def absorb(self, prefix: str, stats: dict[str, Any]) -> None:
        """Fold a flat-or-nested ``as_dict()`` snapshot into the registry.

        Numeric leaves become counters-or-gauges (gauge, so absorbing a
        fresh snapshot overwrites rather than double-counts); nested dicts
        recurse with a dotted prefix; non-numeric leaves are skipped.
        """
        for key, value in stats.items():
            name = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, dict):
                self.absorb(name, value)
            elif isinstance(value, bool):
                self.gauge(name).set(int(value))
            elif isinstance(value, (int, float)):
                self.gauge(name).set(value)

    def snapshot(self) -> dict[str, Any]:
        """The whole registry as one nested dict tree."""
        tree: dict[str, Any] = {}
        for name in sorted(self._metrics):
            parts = name.split(".")
            node = tree
            for part in parts[:-1]:
                node = node.setdefault(part, {})
                if not isinstance(node, dict):
                    raise ValueError(
                        f"metric {name!r} collides with a leaf at {part!r}"
                    )
            node[parts[-1]] = self._metrics[name].as_value()
        return tree

    def flat(self) -> dict[str, Any]:
        """``{dotted name → value}`` for the Prometheus exporter."""
        return {
            name: self._metrics[name].as_value()
            for name in sorted(self._metrics)
        }


# ---------------------------------------------------------------------------
# Collectors: absorb the engine's existing stats objects
# ---------------------------------------------------------------------------


def query_metrics(handle: Any) -> MetricsRegistry:
    """One registry view of a query handle's scattered stats.

    ``query.*`` carries :class:`~repro.engine.types.QueryStats`;
    ``service.<name>.*`` the per-service ManagedCall / cache / resilience
    / breaker blocks (exactly :attr:`QueryHandle.service_stats`);
    ``connection.<i>.*`` each stream connection's delivery accounting.
    """
    registry = MetricsRegistry()
    registry.absorb("query", handle.stats.as_dict())
    for name, stats in handle.service_stats.items():
        registry.absorb(f"service.{name}", stats)
    for index, connection in enumerate(getattr(handle, "connections", ())):
        registry.absorb(f"connection.{index}", connection.stats.as_dict())
    return registry


def shared_metrics(
    group: Any, registry: MetricsRegistry | None = None, prefix: str = "shared"
) -> MetricsRegistry:
    """One registry view of a shared-scan group's counters.

    ``shared.group.*`` carries admission/routing/sharing totals,
    ``shared.fanout.*`` the shared scan's QueryStats, ``shared.tenant.<i>.*``
    per-tenant routing plus live ``buffer_depth`` (routed-but-unread
    frames: the consumer-lag signal) and ``buffer_highwater``,
    ``shared.cache.<service>.*`` cross-tenant hit-rate attribution, and
    ``shared.connection.*`` the single stream connection's delivery
    accounting.
    """
    if registry is None:
        registry = MetricsRegistry()
    registry.absorb(prefix, group.stats_dict())
    return registry


def app_metrics(app: Any) -> MetricsRegistry:
    """Registry for the TwitInfo server's ``/metrics`` endpoint.

    Per tracked event: tweets logged, peaks, sentiment counts, distinct
    links, geotagged markers, timeline bins. Session-wide: each managed
    service's call/cache accounting, plus one ``shared.<i>.*`` tree per
    shared-scan group the app has opened (``shared_scan`` mode).
    """
    registry = MetricsRegistry()
    for name, tracked in app.events.items():
        prefix = f"event.{_metric_safe(name)}"
        registry.absorb(prefix, tracked.report().as_dict())
        registry.gauge(f"{prefix}.timeline_bins").set(len(tracked.timeline))
        registry.gauge(f"{prefix}.timeline_total").set(tracked.timeline.total)
        coverage = getattr(tracked, "coverage", None)
        if coverage is not None:
            registry.gauge(f"{prefix}.coverage").set(coverage.coverage)
            registry.gauge(f"{prefix}.coverage_confidence").set(
                coverage.confidence
            )
    session = app.session
    for key, managed in session._services.items():
        if not key.endswith("_managed"):
            continue
        service_name = key.removesuffix("_managed")
        registry.absorb(
            f"service.{service_name}", managed.stats.as_dict()
        )
        cache = getattr(managed, "cache", None)
        if cache is not None:
            registry.absorb(
                f"service.{service_name}.cache", cache.stats.as_dict()
            )
        inner = getattr(managed, "service", None)
        resilience = getattr(inner, "resilience", None)
        if resilience is not None:
            registry.absorb(
                f"service.{service_name}.resilience", resilience.as_dict()
            )
    for index, group in enumerate(getattr(app, "shared_groups", ())):
        shared_metrics(group, registry, prefix=f"shared.{index}")
    writer = getattr(session, "storage_writer", None)
    if writer is not None:
        registry.absorb("storage.writer", writer.metrics())
    store = getattr(session, "store", None)
    if store is not None:
        registry.gauge("storage.rows").set(len(store))
    return registry


def _metric_safe(name: str) -> str:
    """Collapse arbitrary event names into metric-path-safe tokens."""
    cleaned = [
        ch if (ch.isalnum() or ch == "_") else "_" for ch in name.strip()
    ]
    token = "".join(cleaned).strip("_")
    return token or "event"
