"""Query execution handles.

The pipeline built by the planner is a pull-based iterator chain; the
executor wraps it in a :class:`QueryHandle` with the affordances a caller
wants from a long-running stream query: incremental fetching, cancellation
(closing the API connection), statistics, and EXPLAIN output.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Any

from repro.engine.planner import PhysicalPlan
from repro.engine.types import QueryStats, Row
from repro.errors import ExecutionError


def drain_services(services: dict[str, Any]) -> None:
    """Wait out the in-flight async requests of every managed call (or
    tenant proxy) in a context's ``services``."""
    for name, managed in services.items():
        if name.endswith("_managed"):
            managed.drain()


class QueryHandle:
    """A running TweeQL query.

    Iterate it for result rows (dicts keyed by the output schema), or use
    :meth:`fetch` / :meth:`all` for batch access. ``stats`` exposes engine
    counters, ``explain()`` the plan, and ``close()`` cancels the stream.
    """

    def __init__(self, sql: str, plan: PhysicalPlan) -> None:
        self.sql = sql
        self._plan = plan
        self._iterator: Iterator[Row] | None = None
        self._closed = False
        self._released = False
        #: True once the pipeline delivered its last=True punctuation —
        #: the sanitizer's close-time reconcile() only applies to fully
        #: drained queries (an abandoned stream legitimately leaves the
        #: probes ahead of the counters).
        self._exhausted = False

    @property
    def schema(self) -> tuple[str, ...]:
        """Output column names."""
        return self._plan.output_schema

    @property
    def stats(self) -> QueryStats:
        """Engine counters for this query."""
        return self._plan.ctx.stats

    @property
    def backfill_rows(self) -> int:
        """Rows served from the historical store ahead of the live tail
        (0 for pure-live plans, and until the backfill scan has run)."""
        return self._plan.backfill_rows

    @property
    def service_stats(self) -> dict[str, dict]:
        """Per-service call and cache accounting.

        ``{service: {…ManagedCallStats…, "cache": {…CacheStats…}}}`` — the
        ``cache`` entry (hits, misses, hit_rate, …) is present only when
        the latency mode put an LRU in front of the service. When the
        session enabled retries, ``resilience`` (retries, recoveries,
        giveups, backoff time) and — with a breaker configured —
        ``breaker`` (state plus transition counters) appear too.

        A shared-scan tenant's call counters are its own stats mirror
        (see :class:`~repro.engine.multitenant.TenantManagedCall`);
        cache/resilience/breaker state lives on the shared service
        objects.
        """
        out: dict[str, dict] = {}
        for name, managed in self._plan.ctx.services.items():
            if not name.endswith("_managed"):
                continue
            service_name = name.removesuffix("_managed")
            stats = dict(managed.stats.as_dict())
            cache = getattr(managed, "cache", None)
            if cache is not None:
                stats["cache"] = cache.stats.as_dict()
            service = getattr(managed, "service", None)
            resilience = getattr(service, "resilience", None)
            if resilience is not None:
                stats["resilience"] = resilience.as_dict()
            breaker = getattr(service, "breaker", None)
            if breaker is not None:
                stats["breaker"] = {
                    "state": breaker.state,
                    **breaker.stats.as_dict(),
                }
            out[service_name] = stats
        return out

    @property
    def filter_choice(self):
        """The API filter decision, when the query ran against twitter."""
        return self._plan.filter_choice

    @property
    def tracer(self):
        """The span recorder, when the session planned with tracing on."""
        return self._plan.tracer

    @property
    def connections(self) -> list:
        """Streaming connections this query has opened (so far)."""
        return list(self._plan.connections)

    def explain(self, analyze: bool = False, limit: int | None = None) -> str:
        """The plan description, one operator per line.

        With ``analyze=True`` the rendering is annotated with per-operator
        rows/batches/wall/self time, query totals, service accounting, and
        a span census — which requires the plan to have been built with
        ``EngineConfig.tracing`` on. Any rows not yet consumed are drained
        first (pass ``limit`` to cap that on unbounded streams).
        """
        if not analyze:
            return self._plan.explain()
        from repro.obs.analyze import render_analyze

        if not self._closed and not self._released:
            self.all(limit=limit)
        return render_analyze(self)

    def chrome_trace(self, process_name: str = "tweeql") -> dict:
        """The recorded trace as a Chrome trace document (dict)."""
        from repro.obs.analyze import _require_tracer
        from repro.obs.export import chrome_trace

        return chrome_trace(_require_tracer(self), process_name=process_name)

    def metrics(self):
        """This query's stats as one
        :class:`~repro.obs.metrics.MetricsRegistry` tree."""
        from repro.obs.metrics import query_metrics

        return query_metrics(self)

    def __iter__(self) -> Iterator[Row]:
        if self._closed:
            raise ExecutionError("query is closed")
        if self._iterator is None:
            self._iterator = self._iterate()
        return self._iterator

    def _iterate(self) -> Iterator[Row]:
        # The pipeline speaks batches; the handle flattens back to rows at
        # the API boundary so callers never see batch framing.
        pipeline = iter(self._plan.pipeline)
        try:
            for batch in pipeline:
                if batch.last:
                    self._exhausted = True
                    # Release *before* yielding the final rows: a caller
                    # that fetches exactly the available row count leaves
                    # this generator suspended in the yield below, so the
                    # finally would never run and in-flight async service
                    # calls would never drain into the stats.
                    self._finish(pipeline)
                yield from batch.rows
                if batch.last:
                    break
        finally:
            # Pipeline error or the generator being closed (GC of an
            # abandoned handle): release everything now rather than
            # waiting on cycle GC. Idempotent after the in-loop release.
            self._finish(pipeline)

    def _finish(self, pipeline: Iterator) -> None:
        """Close the operator chain, then release plan resources.

        Closing the outermost generator runs the finally blocks of any
        trace wrappers (finalizing operator spans) before the query span
        is recorded.
        """
        close = getattr(pipeline, "close", None)
        if close is not None:
            close()
        self._release()

    def _release(self) -> None:
        """Tear down plan-owned resources exactly once.

        Order matters: plan closers run first (a shared-scan tenant
        detaches from its group), then API connections close, then
        in-flight service requests drain so their effects reach the stats.
        """
        if self._released:
            return
        self._released = True
        for closer in self._plan.closers:
            closer()
        for connection in self._plan.connections:
            connection.close()
        drain_services(self._plan.ctx.services)
        tracer = self.tracer
        if tracer is not None:
            tracer.add(
                "query", "query", tracer.started_at, tracer.clock.now,
                lane="main", rows_emitted=self.stats.rows_emitted,
            )
        sanitizer = self._plan.sanitizer
        if sanitizer is not None:
            # Mandatory close-time check: probe/stats reconciliation
            # when the stream fully drained.
            sanitizer.at_close(self, exhausted=self._exhausted)

    def fetch(self, n: int) -> list[Row]:
        """Pull up to ``n`` result rows (fewer at end of stream)."""
        iterator = iter(self)
        rows: list[Row] = []
        for _ in range(n):
            row = next(iterator, None)
            if row is None:
                break
            rows.append(row)
        return rows

    def all(self, limit: int | None = None) -> list[Row]:
        """Drain the query (careful on unbounded streams — pass ``limit``).

        Drains in-flight async service requests afterwards so their effects
        are visible in the stats.
        """
        rows: list[Row] = []
        for row in self:
            rows.append(row)
            if limit is not None and len(rows) >= limit:
                break
        drain_services(self._plan.ctx.services)
        return rows

    def to_csv(self, path: str, limit: int | None = None) -> int:
        """Drain the query into a CSV file; returns the row count.

        Columns follow the output schema; internal ``__``-prefixed fields
        are dropped. Pass ``limit`` on unbounded streams.
        """
        import csv

        columns = [name for name in self.schema if not name.startswith("__")]
        written = 0
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.DictWriter(f, fieldnames=columns, extrasaction="ignore")
            writer.writeheader()
            for row in self:
                writer.writerow(row)
                written += 1
                if limit is not None and written >= limit:
                    break
        drain_services(self._plan.ctx.services)
        return written

    def close(self) -> None:
        """Cancel the query: close API connections and drain in-flight
        service requests."""
        if self._closed:
            return
        self._closed = True
        self._release()
