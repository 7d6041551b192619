"""The public TweeQL façade.

:class:`TweeQL` wires together everything a query needs — the simulated
streaming API, the virtual clock, the geocoding and entity web services
(wrapped in the latency machinery), the sentiment classifier, the function
registry, and result tables — and exposes the interface the demo offered:
``query("SELECT …")``.

Typical use::

    from repro import TweeQL
    from repro.twitter import soccer_match_scenario

    session = TweeQL.for_scenarios(soccer_match_scenario(seed=7))
    handle = session.query(
        "SELECT sentiment(text), text FROM twitter "
        "WHERE text contains 'tevez';"
    )
    for row in handle.fetch(10):
        print(row)
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Any

from repro import rng as rng_mod
from repro.clock import VirtualClock
from repro.engine.confidence import ConfidencePolicy
from repro.engine.executor import QueryHandle
from repro.engine.functions import FunctionRegistry, default_registry
from repro.engine.latency import ManagedCall
from repro.engine.multitenant import MAX_TENANTS, SharedScanGroup
from repro.engine.planner import Planner, PhysicalPlan, SourceBinding
from repro.engine.resilience import (
    CircuitBreaker,
    FaultPlan,
    ResilientService,
    RetryPolicy,
)
from repro.engine.types import Row, iter_rows
from repro.errors import GeocodeError, PlanError
from repro.geo.geocode import Geocoder
from repro.geo.service import LatencyModel, SimulatedWebService
from repro.nlp.entities import EntityExtractor
from repro.nlp.sentiment import SentimentClassifier, train_default_classifier
from repro.sql import parse
from repro.sql.ast import SelectStatement


def replace_into_stream(statement: SelectStatement) -> SelectStatement:
    """A copy of ``statement`` without its INTO STREAM clause.

    The derived-source factory re-plans the upstream query on each read;
    stripping the clause first keeps re-planning from re-registering the
    stream recursively.
    """
    import dataclasses

    return dataclasses.replace(statement, into_stream=None)
from repro.storage.tweetlog import TableSink
from repro.twitter.models import TWITTER_SCHEMA
from repro.twitter.stream import Firehose, StreamingAPI
from repro.twitter.workloads import Scenario

#: Tweets per archival chunk the storage writer hands to its drain thread.
STORAGE_BATCH = 256
#: Consecutive failures before a service's circuit breaker opens.
BREAKER_THRESHOLD = 8
#: Open-state cooldown (virtual seconds) before a circuit breaker allows
#: its half-open probe.
BREAKER_RESET_SECONDS = 30.0

@dataclass
class EngineConfig:
    """Session-level engine knobs (each maps to a mechanism in the paper).

    Attributes:
        latency_mode: how high-latency UDFs reach their services —
            ``blocking`` / ``cached`` / ``batched`` / ``async``.
        cache_capacity: LRU size for service caches.
        cache_ttl: optional TTL (virtual seconds) on cached service results.
        pool_depth: max in-flight requests in ``async`` mode.
        batch_size: rows per :class:`~repro.engine.types.ColumnBatch`
            flowing between operators. Larger batches amortize per-row
            overhead, let stages evaluate whole columns at once, and widen
            the key window for ``batched``/``async`` latency modes
            (the batch *is* the lookahead); at 1 every stage runs its
            scalar closure over one-row batches. Output is row-for-row
            identical at every size; queries calling ``now()`` are pinned
            to 1 by the planner.
        partial_results: with ``async`` mode, never block on an in-flight
            service call — emit NULL for the not-yet-known value instead
            (Raman & Hellerstein-style partial results; the paper cites
            this as the complementary piece of the async design).
        confidence_policy: enables CONTROL-style confidence-triggered AVG
            emission for windowless aggregate queries.
        workers: inert; nothing in the engine reads it, and every plan
            is the serial plan whatever its value. It stays only because
            the ``bench/`` harness's mode probe still builds
            ``EngineConfig(workers=2)``; the benchmark change that retires
            that probe leg (ROADMAP item 4) deletes this field with it.
        geocode_latency: latency model of the geocoding service.
        entities_latency: latency model of the entity-extraction service.
        service_failure_rate: transient failure probability per request.
        retries: max retry attempts per service call, with full-jitter
            exponential backoff (:class:`~repro.engine.resilience.
            RetryPolicy`'s defaults) and a circuit breaker per service
            that opens after ``BREAKER_THRESHOLD`` consecutive failures
            (0 disables the resilience layer entirely — calls behave
            exactly as before).
        retry_deadline_seconds: optional per-call wall budget (virtual
            seconds) across all attempts of one logical request.
        fault_plan: optional deterministic
            :class:`~repro.engine.resilience.FaultPlan` injected into the
            services and the streaming API.
        stream_reconnect: auto-reconnect dropped stream connections from
            their cursor (gap tweets recovered); False loses the gap.
        tracing: record structured spans (per operator, batch, service
            call, retry, reconnect) on the virtual clock while queries
            run, enabling ``handle.explain(analyze=True)`` and Chrome
            trace export (see docs/OBSERVABILITY.md). Off by default;
            when off, the planner builds the exact pre-tracing pipeline
            (no wrappers, no per-row cost).
        trace_batch_spans: with ``tracing``, also record one span per
            batch pull (turn off to bound trace size on long streams).
        shared_scan: route multi-query consumers (``TwitInfoApp``, the
            CLI's multi-``--sql`` runs) through one shared-scan group per
            source — one Firehose connection and one scan fanned out to
            every live query, pumped on the thread that pulls the
            handles (see :mod:`repro.engine.multitenant` and
            :meth:`TweeQL.shared`). Single queries are unaffected.
        sanitize: run queries under the TQLSAN invariant sanitizer —
            every operator boundary checks punctuation exactly-once,
            ColumnBatch coherence, single-thread stage ownership, and
            stats monotonicity; ``reconcile()`` is
            enforced at close. Violations raise
            :class:`~repro.errors.SanitizerError` with a stable
            ``TQL9xx`` code (see docs/SANITIZER.md). Off by default and
            zero-wrapper when off, exactly like ``tracing``; the
            ``TWEEQL_SAN=1`` environment variable turns it on without
            touching config.
        storage_path: SQLite file backing the session's historical tier
            (:class:`~repro.storage.historical.HistoricalStore`);
            ``":memory:"`` works for tests. When set, every tweet any
            stream connection delivers is archived behind the live path
            by a background :class:`~repro.storage.historical.
            StorageWriter`. None (the default) disables the tier
            entirely.
        backfill: with ``storage_path``, split queries over the
            ``twitter`` source into backfill-from-storage + live-tail:
            history up to the store's watermark is answered instantly
            from SQLite, and the live connection takes over after it
            (see docs/STORAGE.md). A query with no ``created_at`` lower
            bound backfills the whole store (lint ``TQL311`` warns).
    """

    latency_mode: str = "cached"
    cache_capacity: int = 10_000
    cache_ttl: float | None = None
    pool_depth: int = 8
    batch_size: int = 256
    partial_results: bool = False
    confidence_policy: ConfidencePolicy | None = None
    workers: int = 1
    geocode_latency: LatencyModel = field(default_factory=LatencyModel)
    entities_latency: LatencyModel = field(
        default_factory=lambda: LatencyModel(mean_seconds=0.45, sigma=0.35)
    )
    service_failure_rate: float = 0.0
    retries: int = 0
    retry_deadline_seconds: float | None = None
    fault_plan: "FaultPlan | None" = None
    stream_reconnect: bool = True
    tracing: bool = False
    trace_batch_spans: bool = True
    shared_scan: bool = False
    sanitize: bool = False
    storage_path: str | None = None
    backfill: bool = False


class TweeQL:
    """A TweeQL session: parse, plan, and run stream queries.

    Args:
        api: the (simulated) Twitter streaming API; optional when every
            query targets registered sources.
        clock: virtual clock; a fresh one is created when omitted.
        config: engine configuration.
        classifier: sentiment classifier; the memoized default when None.
        seed: seed for the services' latency draws.
    """

    def __init__(
        self,
        api: StreamingAPI | None = None,
        clock: VirtualClock | None = None,
        config: EngineConfig | None = None,
        classifier: SentimentClassifier | None = None,
        seed: int = rng_mod.DEFAULT_SEED,
    ) -> None:
        self.clock = clock or VirtualClock()
        self.config = config or EngineConfig()
        self.api = api
        self.registry: FunctionRegistry = default_registry()
        self.tables: dict[str, TableSink] = {}
        self._classifier = classifier or train_default_classifier()

        # Web services behind the resilience + latency machinery.
        geocoder = Geocoder()
        fault_plan = self.config.fault_plan

        def geocode_resolver(location: str):
            try:
                return geocoder.geocode(location)
            except GeocodeError:
                return None

        self.geocode_service = SimulatedWebService(
            "geocoder",
            geocode_resolver,
            clock=self.clock,
            latency=self.config.geocode_latency,
            failure_rate=self.config.service_failure_rate,
            seed=seed,
            fault_injector=(
                fault_plan.injector_for("geocoder") if fault_plan else None
            ),
        )
        self.geocode_resilient = self._wrap_resilient(
            self.geocode_service, seed=seed
        )
        self.geocode_managed = ManagedCall(
            self.geocode_resilient or self.geocode_service,
            mode=self.config.latency_mode,
            cache_capacity=self.config.cache_capacity,
            cache_ttl=self.config.cache_ttl,
            pool_depth=self.config.pool_depth,
            partial_results=self.config.partial_results,
        )

        extractor = EntityExtractor()
        self.entities_service = SimulatedWebService(
            "opencalais",
            extractor,
            clock=self.clock,
            latency=self.config.entities_latency,
            failure_rate=self.config.service_failure_rate,
            seed=seed + 1,
            fault_injector=(
                fault_plan.injector_for("opencalais") if fault_plan else None
            ),
        )
        self.entities_resilient = self._wrap_resilient(
            self.entities_service, seed=seed + 1
        )
        self.entities_managed = ManagedCall(
            self.entities_resilient or self.entities_service,
            mode=self.config.latency_mode,
            cache_capacity=self.config.cache_capacity,
            cache_ttl=self.config.cache_ttl,
            pool_depth=self.config.pool_depth,
            partial_results=self.config.partial_results,
        )

        self._services: dict[str, Any] = {
            "geocode": self.geocode_managed,
            "geocode_managed": self.geocode_managed,
            "entities": self.entities_managed,
            "entities_managed": self.entities_managed,
            "sentiment": self._classifier.classify,
            "sentiment_score": self._classifier.score,
        }

        self._sources: dict[str, SourceBinding] = {}
        if api is not None:
            self._sources["twitter"] = SourceBinding(
                name="twitter", schema=TWITTER_SCHEMA, api=api
            )

        # Historical tier: archive delivered tweets behind the live path
        # and (with ``backfill``) answer windowed queries from history.
        self.store = None
        self.storage_writer = None
        if self.config.storage_path is not None:
            from repro.storage.historical import HistoricalStore, StorageWriter

            self.store = HistoricalStore(self.config.storage_path)
            if api is not None:
                self.storage_writer = StorageWriter(
                    self.store, batch_size=STORAGE_BATCH
                )
                api.tap = self.storage_writer.write

    def close(self) -> None:
        """Flush the storage writer and close the historical store.

        Safe to call on sessions without a store, and idempotent. Queries
        still running keep their own connections; only the archival side
        is torn down. A writer that failed, or is still draining when its
        stop times out, raises :class:`~repro.errors.StorageError`.
        """
        writer = self.storage_writer
        try:
            if writer is not None:
                writer.stop()
        finally:
            # A timed-out stop leaves the drain thread running: the store
            # stays open under it and close() can be called again. A
            # failed writer's thread has exited, so the store still closes.
            if writer is None or not writer.alive:
                if writer is not None and self.api is not None:
                    self.api.tap = None
                self.storage_writer = None
                if self.store is not None:
                    self.store.close()
                    self.store = None

    def __enter__(self) -> "TweeQL":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def _wrap_resilient(
        self, service: SimulatedWebService, seed: int
    ) -> ResilientService | None:
        """Retry/breaker wrapper per config; None when retries are off."""
        if self.config.retries <= 0:
            return None
        policy = RetryPolicy(
            max_retries=self.config.retries,
            deadline_seconds=self.config.retry_deadline_seconds,
        )
        breaker = CircuitBreaker(
            self.clock,
            failure_threshold=BREAKER_THRESHOLD,
            reset_timeout_seconds=BREAKER_RESET_SECONDS,
            name=service.name,
        )
        return ResilientService(service, policy, breaker=breaker, seed=seed)

    # -- construction helpers --------------------------------------------------

    @classmethod
    def for_scenarios(
        cls,
        *scenarios: Scenario,
        config: EngineConfig | None = None,
        delivery_ratio: float = 0.98,
        seed: int = rng_mod.DEFAULT_SEED,
        clock: VirtualClock | None = None,
    ) -> "TweeQL":
        """Build a session whose ``twitter`` source serves these scenarios."""
        if not scenarios:
            raise ValueError("at least one scenario is required")
        clock = clock or VirtualClock(
            start=min(s.start for s in scenarios)
        )
        firehose = Firehose.from_scenarios(*scenarios)
        resolved = config or EngineConfig()
        api = StreamingAPI(
            firehose,
            clock=clock,
            delivery_ratio=delivery_ratio,
            seed=seed,
            fault_plan=resolved.fault_plan,
            auto_reconnect=resolved.stream_reconnect,
        )
        return cls(api=api, clock=clock, config=resolved, seed=seed)

    # -- catalog ---------------------------------------------------------------

    @property
    def classifier(self) -> SentimentClassifier:
        """The sentiment classifier behind ``sentiment(text)``."""
        return self._classifier

    def register_source(
        self,
        name: str,
        rows_factory: Callable[[], Iterable[Row]],
        schema: tuple[str, ...],
    ) -> None:
        """Register a static/test source addressable in FROM clauses.

        ``rows_factory`` must return a fresh iterator of time-ordered row
        dicts on each call; rows should carry ``created_at``.
        """
        key = name.lower()
        if key == "twitter" and self.api is not None:
            raise PlanError("cannot shadow the live twitter source")
        self._sources[key] = SourceBinding(
            name=key, schema=tuple(s.lower() for s in schema),
            rows_factory=rows_factory,
        )

    def register_udf(
        self,
        name: str,
        impl: Callable[..., Any],
        stateful: bool = False,
        high_latency: bool = False,
        arg_types: tuple[str, ...] | None = None,
        return_type: str | None = None,
        min_args: int | None = None,
        variadic: bool = False,
        replace: bool = False,
    ) -> None:
        """Register a user-defined function usable in queries.

        ``impl`` receives ``(ctx, *args)`` — or is a zero-arg factory of
        such a callable when ``stateful`` — mirroring how the demo let the
        audience "build their own UDFs for more advanced processing".
        Optional ``arg_types``/``return_type`` feed the static analyzer;
        overriding an existing name (including a builtin) requires
        ``replace=True``.
        """
        self.registry.register(
            name, impl, stateful=stateful, high_latency=high_latency,
            arg_types=arg_types, return_type=return_type,
            min_args=min_args, variadic=variadic, replace=replace,
        )

    def table(self, name: str) -> TableSink:
        """Fetch-or-create the named result table (``INTO`` target)."""
        key = name.lower()
        if key not in self.tables:
            self.tables[key] = TableSink(key)
        return self.tables[key]

    # -- queries ----------------------------------------------------------------

    def _planner(self, config: EngineConfig | None = None) -> Planner:
        return Planner(
            sources=self._sources,
            registry=self.registry,
            services=self._services,
            clock=self.clock,
            config=config or self.config,
            table_factory=self.table,
            store=self.store,
        )

    def plan(self, sql: str) -> PhysicalPlan:
        """Parse and plan without executing (EXPLAIN support)."""
        return self._planner().plan(parse(sql))

    def analyze(self, sql: str):
        """Statically analyze a query against this session's catalog.

        Returns the full :class:`repro.sql.analysis.AnalysisResult` —
        type findings, semantic errors, and lints with source spans —
        without planning or executing anything. Syntax errors become
        diagnostics rather than raising.
        """
        from repro.sql import analysis

        return analysis.analyze_sql(
            sql,
            catalog=analysis.catalog_from_sources(self._sources),
            registry=self.registry,
            config=self.config,
        )

    def query(self, sql: str) -> QueryHandle:
        """Parse, plan, and return a handle on the running query.

        A query ending in ``INTO STREAM <name>`` additionally registers a
        *derived stream*: later queries may name it in FROM, and each such
        reader re-runs this query's pipeline lazily (original TweeQL's
        stream-composition feature — how a stateful UDF like ``meandev``
        consumes "the aggregate tweet count" of an upstream query).
        """
        statement = parse(sql)
        plan = self._planner().plan(statement)
        if statement.into_stream is not None:
            self._register_derived(statement, plan.output_schema)
        return QueryHandle(sql, plan)

    def _register_derived(self, statement, schema: tuple[str, ...]) -> None:
        name = statement.into_stream.lower()
        if name == "twitter" and self.api is not None:
            raise PlanError("cannot shadow the live twitter source")
        base = replace_into_stream(statement)

        def rows_factory():
            derived_plan = self._planner().plan(base)
            return iter_rows(derived_plan.pipeline)

        columns = [
            column.lower() for column in schema if not column.startswith("__")
        ]
        columns.append("created_at")  # every pipeline stamps emission time
        self._sources[name] = SourceBinding(
            name=name,
            schema=tuple(dict.fromkeys(columns)),
            rows_factory=rows_factory,
        )

    def shared(
        self,
        source: str = "twitter",
        *,
        max_tenants: int = MAX_TENANTS,
    ):
        """Open a multi-tenant shared-scan group over one source.

        The group runs **one** stream connection and one scan, fanning
        batches out to every admitted query — ``group.query(sql)`` instead
        of :meth:`query` — with shared filter-prefix evaluation and
        cross-tenant UDF cache attribution. Admission closes when the
        first row is pulled; the scan then advances on whichever handle's
        consumer needs rows, so all of a group's handles are pulled from
        one thread. ``max_tenants`` caps the live queries; query N+1 is
        rejected with ``TQL401``. See
        :mod:`repro.engine.multitenant` and docs/MULTITENANT.md.
        """
        from repro.errors import UnknownSourceError

        binding = self._sources.get(source.lower())
        if binding is None:
            raise UnknownSourceError(source, tuple(sorted(self._sources)))
        return SharedScanGroup(
            self._planner(),
            binding,
            self._services,
            self.clock,
            max_tenants=max_tenants,
        )

    def explain(
        self, sql: str, analyze: bool = False, limit: int | None = None
    ) -> str:
        """The plan description for a query.

        ``analyze=True`` is EXPLAIN ANALYZE: the query is planned with
        tracing forced on, run to exhaustion (cap unbounded streams with
        ``limit``), and rendered with per-operator rows/batches/timing,
        query totals, service accounting, and a span census.
        """
        if not analyze:
            return self.plan(sql).explain()
        import dataclasses

        config = (
            self.config
            if self.config.tracing
            else dataclasses.replace(self.config, tracing=True)
        )
        plan = self._planner(config).plan(parse(sql))
        handle = QueryHandle(sql, plan)
        try:
            return handle.explain(analyze=True, limit=limit)
        finally:
            handle.close()
