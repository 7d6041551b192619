"""Multi-tenant shared-scan execution.

TwitInfo's demo shape — one query, one stream connection, one scan per
tracked event — is the opposite of how a service with many users runs.
This module adds the shared-scan layer: **one** Firehose connection and
**one** scan per source, with post-scan batches fanned out to every live
tenant query.

Architecture (the fanout protocol)
----------------------------------
A :class:`SharedScanGroup` admits tenant queries *before* the stream
starts (admission control), then runs three kinds of threads, reusing the
exchange/worker substrate of :mod:`repro.engine.parallel`:

- the **fanout** thread pulls source batches through one ScanOperator
  (source pulls hold the group lock — the stream advances the shared
  virtual clock), evaluates every tenant's WHERE conjuncts *fanout-side*
  with a per-row memo keyed by the conjunct's rendered SQL — so a filter
  prefix shared by N tenants is evaluated **once** per row, not N times —
  and routes passing rows into per-tenant bounded queues;
- one **tenant worker** thread per query runs the residual pipeline
  (prefetch → aggregate/project → into; no filter stage — filtering
  already happened) and ships output batches to an unbounded queue;
- the **consumer** (the tenant's :class:`~repro.engine.executor.QueryHandle`)
  drains that queue on the caller's thread.

Backpressure policy
-------------------
Tenant input queues are bounded (``EngineConfig.shared_buffer_batches``).
A worker never blocks on output (unbounded out-queues), so under normal
operation it always drains its input and the fanout never stalls. When a
tenant's pipeline is genuinely slower than the stream (a slow UDF, a
stuck consumer), the fanout blocks on its full queue for at most
``EngineConfig.shared_stall_seconds`` of wall time and then **evicts**
the tenant — its handle raises :class:`~repro.errors.ExecutionError`,
siblings never wait longer than the stall budget. A tenant that finishes
early (LIMIT) or whose handle is closed is **detached**: its feed is
dropped, nothing else changes. When every tenant is done the fanout
stops pulling and closes the shared connection, so early completion is
visible in the connection's :class:`~repro.twitter.stream.ConnectionStats`.

Admission control
-----------------
``query()`` rejects with a typed :class:`~repro.errors.AdmissionError`:

- ``TQL401`` — the group is at ``max_tenants`` capacity;
- ``TQL402`` — the statement cannot share a scan (joins, ``INTO
  STREAM``, ``now()``, or a FROM source other than the group's);
- ``TQL403`` — the group already started streaming (or is closed).

Equivalence contract
--------------------
Shared execution is **row-for-row identical** to running each query on
its own session, provided transport is lossless (``delivery_ratio=1.0``
— per-connection delivery-loss RNG draws differ between a shared
firehose connection and N per-query filtered connections, exactly as two
independent real connections would drop different tweets). The
tenant-equivalence suite in ``tests/multitenant/`` pins this. Stats are
*not* promised equal: a tenant's ``rows_scanned`` counts rows routed to
it (post shared filter), and ``predicate_evaluations`` accrue on the
fanout context where the sharing happens.
"""

from __future__ import annotations

import queue
import threading
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

from repro.engine import operators as ops
from repro.engine import parallel
from repro.engine.executor import QueryHandle
from repro.engine.expressions import compile_expr
from repro.engine.sanitizer import registered_lock
from repro.engine.planner import (
    Planner,
    PhysicalPlan,
    SourceBinding,
    split_conjuncts,
)
from repro.engine.types import (
    DEFAULT_BATCH_SIZE,
    ColumnBatch,
    EvalContext,
    Row,
)
from repro.errors import AdmissionError, ExecutionError
from repro.sql import ast, parse

_POLL_SECONDS = parallel._POLL_SECONDS
_END = object()
_MISS = object()

_HIT_INDEX = parallel._MANAGED_FIELDS.index("cache_hits")


# ---------------------------------------------------------------------------
# Cross-tenant shared service cache accounting
# ---------------------------------------------------------------------------


@dataclass
class SharedCacheStats:
    """Cross-tenant accounting for one service's shared cache.

    ``cross_tenant_hits`` counts cache hits on keys first requested by a
    *different* tenant — the work sharing that motivates running tenants
    on one session (geocode/entity results are identical across tenants).
    """

    requests: int = 0
    hits: int = 0
    cross_tenant_hits: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    @property
    def cross_tenant_hit_rate(self) -> float:
        return self.cross_tenant_hits / self.requests if self.requests else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "requests": self.requests,
            "hits": self.hits,
            "cross_tenant_hits": self.cross_tenant_hits,
            "hit_rate": round(self.hit_rate, 6),
            "cross_tenant_hit_rate": round(self.cross_tenant_hit_rate, 6),
        }


class SharedServiceCache:
    """Key-ownership map over the session's (already shared) UDF caches.

    The :class:`~repro.engine.latency.ManagedCall` LRUs are session-owned,
    so tenants share them by construction; this object only *attributes*
    that sharing — which tenant first requested each key, and how many
    hits crossed tenant boundaries. All mutation happens under the group
    lock (the proxies call :meth:`record` while holding it).
    """

    def __init__(self) -> None:
        self._owners: dict[tuple[str, Any], int] = {}
        self._per_service: dict[str, SharedCacheStats] = {}

    def service_stats(self, service: str) -> SharedCacheStats:
        stats = self._per_service.get(service)
        if stats is None:
            stats = self._per_service[service] = SharedCacheStats()
        return stats

    def record(self, service: str, tenant: int, key: Any, hit: bool) -> None:
        """Account one tenant request; claims ownership on first sight."""
        owner = self._owners.setdefault((service, key), tenant)
        stats = self.service_stats(service)
        stats.requests += 1
        if hit:
            stats.hits += 1
            if owner != tenant:
                stats.cross_tenant_hits += 1

    def claim(self, service: str, tenant: int, key: Any) -> None:
        """Ownership-only record (prefetch warms keys without a lookup)."""
        self._owners.setdefault((service, key), tenant)

    def as_dict(self) -> dict[str, dict[str, float]]:
        return {
            name: stats.as_dict()
            for name, stats in sorted(self._per_service.items())
        }


class TenantManagedCall(parallel.LockedManagedCall):
    """A tenant's lock-guarded view of a shared :class:`ManagedCall`.

    Extends the per-shard stats mirror of
    :class:`~repro.engine.parallel.LockedManagedCall` with cross-tenant
    cache attribution: every call reports to the group's
    :class:`SharedServiceCache` whether it hit, and who owned the key.
    """

    def __init__(
        self,
        inner: Any,
        lock: threading.RLock,
        tenant: int,
        shared: SharedServiceCache,
    ) -> None:
        super().__init__(inner, lock)
        self._tenant = tenant
        self._shared = shared
        self._service_name = inner.service.name

    def __call__(self, key: Any) -> Any:
        with self._lock:
            before = self._snapshot()
            try:
                return self._inner(key)
            finally:
                after = self._snapshot()
                self._accumulate(before)
                self._shared.record(
                    self._service_name,
                    self._tenant,
                    key,
                    hit=after[_HIT_INDEX] > before[_HIT_INDEX],
                )

    def prefetch(self, keys: Any) -> None:
        keys = list(keys)
        with self._lock:
            for key in keys:
                self._shared.claim(self._service_name, self._tenant, key)
            before = self._snapshot()
            try:
                self._inner.prefetch(keys)
            finally:
                self._accumulate(before)


def tenant_services(
    services: dict[str, Any],
    lock: threading.RLock,
    tenant: int,
    shared: SharedServiceCache,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Per-tenant service catalog: shared-cache proxies over ManagedCalls.

    Mirrors :func:`repro.engine.parallel.locked_services` — aliases of one
    ManagedCall share one proxy so the per-tenant stats mirror is not
    double-counted — but the proxies additionally attribute cache traffic
    to this tenant in the group's :class:`SharedServiceCache`.
    """
    from repro.engine.latency import ManagedCall

    proxies: dict[str, Any] = {}
    by_id: dict[int, TenantManagedCall] = {}
    stats: dict[str, Any] = {}
    for name, svc in services.items():
        if isinstance(svc, ManagedCall):
            proxy = by_id.get(id(svc))
            if proxy is None:
                proxy = TenantManagedCall(svc, lock, tenant, shared)
                by_id[id(svc)] = proxy
                stats[svc.service.name] = proxy.stats
            proxies[name] = proxy
        else:
            proxies[name] = svc
    return proxies, stats


# ---------------------------------------------------------------------------
# Tenant bookkeeping and pipeline endpoints
# ---------------------------------------------------------------------------


@dataclass
class GroupStats:
    """Group-level counters (admission, routing, sharing, lifecycle)."""

    admitted: int = 0
    rejected: int = 0
    evicted: int = 0
    detached: int = 0
    #: Total row deliveries across tenants (one row routed to 3 tenants
    #: counts 3).
    rows_routed: int = 0
    #: Predicate evaluations *saved* by the per-row conjunct memo — each
    #: is an evaluation an independent run would have performed again.
    evaluations_shared: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "admitted": self.admitted,
            "rejected": self.rejected,
            "evicted": self.evicted,
            "detached": self.detached,
            "rows_routed": self.rows_routed,
            "evaluations_shared": self.evaluations_shared,
        }


class _Tenant:
    """One admitted query's runtime state inside the group."""

    def __init__(self, index: int, sql: str, buffer_batches: int) -> None:
        self.index = index
        self.sql = sql
        self.queue: queue.Queue = queue.Queue(maxsize=buffer_batches)
        self.out: queue.Queue = queue.Queue()
        self.done = threading.Event()
        self.evicted = threading.Event()
        self.evicted_reason: str | None = None
        self.detached = False
        self.error: BaseException | None = None
        self.conjunct_keys: tuple[str, ...] = ()
        self.pipeline: Any = None
        self.ctx: EvalContext | None = None
        self.rows_routed = 0
        self.buffer_highwater = 0

    @property
    def finished(self) -> bool:
        """No more input should be routed to this tenant."""
        return self.done.is_set() or self.detached or self.evicted.is_set()

    def as_dict(self) -> dict[str, Any]:
        return {
            "rows_routed": self.rows_routed,
            "buffer_depth": self.queue.qsize(),
            "buffer_highwater": self.buffer_highwater,
            "done": self.done.is_set(),
            "evicted": self.evicted.is_set(),
            "detached": self.detached,
        }


class TenantScan:
    """Source stage of a tenant's residual pipeline, fed by the fanout.

    Counts routed rows as this tenant's ``rows_scanned`` (its view of the
    stream is the post-shared-filter substream) and advances the tenant
    context's stream time like a ScanOperator. Ends with an empty ``last``
    batch on the fanout's sentinel; raises if the tenant was evicted.
    """

    def __init__(
        self, tenant: _Tenant, stop: threading.Event, ctx: EvalContext
    ) -> None:
        self._tenant = tenant
        self._stop = stop
        self._ctx = ctx

    def __iter__(self) -> Iterator[ColumnBatch]:
        tenant = self._tenant
        ctx = self._ctx
        stats = ctx.stats
        seq = 0
        while True:
            if tenant.evicted.is_set():
                raise ExecutionError(
                    f"tenant {tenant.index} evicted from shared scan: "
                    f"{tenant.evicted_reason}"
                )
            try:
                rows = tenant.queue.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                if not (self._stop.is_set() or tenant.detached):
                    continue
                rows = None
            if rows is None:  # fanout sentinel (stream exhausted) or stop
                yield ColumnBatch.from_rows([], seq, last=True)
                return
            stats.rows_scanned += len(rows)
            stats.batches += 1
            ctx.advance_to(rows)
            yield ColumnBatch.from_rows(rows, seq)
            seq += 1


class _TenantOutput:
    """The tenant plan's pipeline: drains the worker's output queue.

    Pulled on the consumer's thread; the first pull lazily starts the
    group's threads (planning and EXPLAIN must not open the stream).
    """

    def __init__(self, group: "SharedScanGroup", tenant: _Tenant) -> None:
        self._group = group
        self._tenant = tenant

    def __iter__(self) -> Iterator[ColumnBatch]:
        group = self._group
        tenant = self._tenant
        group.start()
        tail_seq = 0
        while True:
            group._raise_if_error()
            if tenant.error is not None:
                raise tenant.error
            try:
                item = tenant.out.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                continue
            if item is None:  # worker ended without a last batch
                group._raise_if_error()
                if tenant.error is not None:
                    raise tenant.error
                # Punctuate with seq strictly above everything yielded.
                yield ColumnBatch.from_rows([], tail_seq, last=True)
                return
            tail_seq = item.seq + 1
            yield item
            if item.last:
                return


# ---------------------------------------------------------------------------
# The group
# ---------------------------------------------------------------------------


class SharedScanGroup:
    """One shared scan serving N tenant queries over one source.

    Built by :meth:`repro.engine.session.TweeQL.shared`. Lifecycle::

        group = session.shared()
        h1 = group.query("SELECT …;")   # admission happens here
        h2 = group.query("SELECT …;")
        rows = h1.all()                 # first pull starts the fanout
        …
        group.close()                   # join threads, close the stream

    Tenant handles are ordinary :class:`QueryHandle` objects: ``stats``,
    ``service_stats``, ``explain(analyze=True)`` and ``metrics()`` all
    work, scoped to the tenant's own slice of the work.
    """

    def __init__(
        self,
        planner: Planner,
        binding: SourceBinding,
        services: dict[str, Any],
        clock: Any,
        *,
        max_tenants: int = 16,
        buffer_batches: int = 16,
        stall_seconds: float = 5.0,
        label: str | None = None,
    ) -> None:
        if max_tenants < 1:
            raise ValueError("max_tenants must be positive")
        if buffer_batches < 1:
            raise ValueError("buffer_batches must be positive")
        self._planner = planner
        self._binding = binding
        self._services = services
        self._clock = clock
        self.max_tenants = max_tenants
        self.buffer_batches = buffer_batches
        self.stall_seconds = stall_seconds
        self.label = label or f"shared:{binding.name}"

        self._lock = registered_lock("shared.services", rlock=True)
        self._stop = threading.Event()
        self._state_lock = registered_lock("shared.state")
        self._started = False
        self._closed = False
        self._pool: ThreadPoolExecutor | None = None
        self._error: BaseException | None = None
        self._error_lock = registered_lock("shared.error")

        self.stats = GroupStats()
        self.shared_cache = SharedServiceCache()
        self._tenants: list[_Tenant] = []
        self._handles: list[QueryHandle] = []
        #: Deduplicated compiled conjuncts, keyed by rendered SQL — the
        #: "share common filter prefixes" mechanism.
        self._predicates: dict[str, Any] = {}

        # Fanout-side context and source pipeline. The fanout's services
        # are lock-guarded (WHERE conjuncts may call them), with a stats
        # mirror so service attribution reconciles: per-tenant mirrors +
        # the fanout mirror sum to the session's global counters.
        config = planner._config
        self._batch_size = getattr(config, "batch_size", DEFAULT_BATCH_SIZE)
        fanout_services, self.fanout_service_stats = parallel.locked_services(
            services, self._lock
        )
        self._fanout_ctx = EvalContext(
            clock=clock, services=fanout_services, lane="fanout"
        )
        self._fanout_plan = PhysicalPlan(
            pipeline=iter(()), output_schema=(), ctx=self._fanout_ctx
        )
        self._fanout_plan.tracer = planner._make_tracer()
        self._fanout_plan.sanitizer = planner._make_sanitizer()
        self._fanout_ctx.tracer = self._fanout_plan.tracer
        # Service spans belong to whichever single query planned last;
        # a shared group has no single owner, so it records none.
        planner._attach_service_tracers(None)
        source_rows = planner._build_source(binding, [], self._fanout_plan)
        scan: ops.Batches = ops.ScanOperator(
            source_rows, self._fanout_ctx, self._batch_size
        )
        self._scan = planner._trace(
            scan, f"Scan({binding.name})", self._fanout_plan, lane="fanout"
        )

    # -- admission -------------------------------------------------------------

    @property
    def tenants(self) -> int:
        """Number of admitted tenant queries."""
        return len(self._tenants)

    @property
    def handles(self) -> list[QueryHandle]:
        """The admitted tenants' query handles, in admission order."""
        return list(self._handles)

    @property
    def connections(self) -> list:
        """The (single) streaming connection, once the scan has started."""
        return list(self._fanout_plan.connections)

    def _share_blocker(self, statement: ast.SelectStatement) -> str | None:
        """Why this statement cannot ride a shared scan, or None.

        Everything here needs something the fanout cannot give a tenant:
        a join pulls a second input, ``INTO STREAM`` registers a derived
        source whose readers re-run the plan, and ``now()`` reads stream
        time row-by-row, which batch-framed fanout delivery cannot
        preserve (the same reason it pins serial plans to batch size 1).
        """
        if statement.source.lower() != self._binding.name:
            return (
                f"this group scans source {self._binding.name!r}, "
                f"not {statement.source!r}"
            )
        if statement.join is not None:
            return "joins pull a second input the shared scan does not carry"
        if statement.into_stream is not None:
            return "INTO STREAM registers a derived source; run it unshared"
        return self._planner._batch_blocker(statement)

    def query(self, sql: str) -> QueryHandle:
        """Admit one tenant query onto the shared scan.

        Raises :class:`~repro.errors.AdmissionError` (``TQL401`` capacity,
        ``TQL402`` unshareable statement, ``TQL403`` already streaming);
        every other validation error carries its usual diagnostic code via
        the static analyzer.
        """
        with self._state_lock:
            if self._closed:
                self.stats.rejected += 1
                raise AdmissionError(
                    "shared scan group is closed", code="TQL403"
                )
            if self._started:
                self.stats.rejected += 1
                raise AdmissionError(
                    "shared scan group is already streaming; tenants must "
                    "be admitted before the first row is pulled",
                    code="TQL403",
                )
            if len(self._tenants) >= self.max_tenants:
                self.stats.rejected += 1
                raise AdmissionError(
                    f"shared scan group is at capacity "
                    f"({self.max_tenants} live queries); close one or raise "
                    "EngineConfig.shared_max_tenants",
                    code="TQL401",
                )
            statement = parse(sql)
            reason = self._share_blocker(statement)
            if reason is not None:
                self.stats.rejected += 1
                raise AdmissionError(
                    f"statement cannot share a scan: {reason}", code="TQL402"
                )
            self._planner.analyze(statement).raise_first_error()
            handle = self._admit(statement, sql)
            self.stats.admitted += 1
            return handle

    def _admit(self, statement: ast.SelectStatement, sql: str) -> QueryHandle:
        planner = self._planner
        binding = self._binding
        schema = binding.schema
        index = len(self._tenants)
        tenant = _Tenant(index, sql, self.buffer_batches)

        # Shared filter compilation: each distinct conjunct (by rendered
        # SQL) is compiled once against the fanout context and evaluated
        # once per row for the whole group.
        conjuncts = split_conjuncts(statement.where)
        keys: list[str] = []
        for conjunct in conjuncts:
            key = conjunct.to_sql()
            if key not in self._predicates:
                self._predicates[key] = compile_expr(
                    conjunct, planner._registry, schema, self._fanout_ctx
                )
            keys.append(key)
        tenant.conjunct_keys = tuple(keys)

        proxies, proxy_stats = tenant_services(
            self._services, self._lock, index, self.shared_cache
        )
        lane = f"tenant-{index}"
        ctx = EvalContext(clock=self._clock, services=proxies, lane=lane)
        tenant.ctx = ctx
        plan = PhysicalPlan(
            pipeline=iter(()), output_schema=(), ctx=ctx,
            batch_size=self._batch_size,
        )
        plan.tracer = planner._make_tracer()
        plan.sanitizer = planner._make_sanitizer()
        ctx.tracer = plan.tracer
        explain = plan.explain_lines
        explain.append(
            f"SharedScan: tenant {index} of {self.label} "
            f"(1 connection / 1 scan fanned out to "
            f"{self.max_tenants}-tenant group)"
        )
        if keys:
            explain.append(
                "Filter: " + " AND ".join(keys)
                + " (evaluated fanout-side, memoized across tenants)"
            )
        explain.append(f"Batch: {self._batch_size} rows/batch (fanout-framed)")
        if getattr(planner._config, "workers", 1) > 1:
            explain.append(
                "Parallel: serial within shared scan (workers ignored; "
                "rows identical either way)"
            )

        pipeline: ops.Batches = TenantScan(tenant, self._stop, ctx)
        pipeline = planner._trace(
            pipeline, f"Scan({self.label})", plan, lane=lane
        )

        # No conjuncts: the fanout already evaluated this tenant's WHERE.
        tenant.pipeline, plan.output_schema = planner._build_body(
            statement, pipeline, schema, ctx, plan, lane=lane
        )
        plan.pipeline = _TenantOutput(self, tenant)
        plan.closers.append(lambda: self.detach(tenant.index, "handle closed"))
        handle = QueryHandle(sql, plan)
        self._tenants.append(tenant)
        self._handles.append(handle)
        return handle

    # -- fanout ----------------------------------------------------------------

    def _record_error(self, error: BaseException) -> None:
        with self._error_lock:
            if self._error is None:
                self._error = error
        self._stop.set()

    def _raise_if_error(self) -> None:
        with self._error_lock:
            error = self._error
        if error is not None:
            raise error

    def _admit_row(
        self, row: Row, tenant: _Tenant, memo: dict[str, Any]
    ) -> bool:
        """Does ``row`` pass this tenant's WHERE? Memoized per row.

        Short-circuits in conjunct order like a serial filter chain;
        verdicts are normalized to SQL WHERE semantics (NULL drops).
        """
        predicates = self._predicates
        ctx = self._fanout_ctx
        stats = ctx.stats
        for key in tenant.conjunct_keys:
            value = memo.get(key, _MISS)
            if value is _MISS:
                verdict = predicates[key](row, ctx)
                value = verdict is not None and bool(verdict)
                memo[key] = value
                stats.predicate_evaluations += 1
            else:
                self.stats.evaluations_shared += 1
            if not value:
                return False
        return True

    def _put(self, tenant: _Tenant, item: list[Row] | None) -> None:
        """Route one batch (or the end sentinel) with bounded-stall policy."""
        waited = 0.0
        while not self._stop.is_set():
            if tenant.finished:
                return
            try:
                tenant.queue.put(item, timeout=_POLL_SECONDS)
            except queue.Full:
                waited += _POLL_SECONDS
                if waited >= self.stall_seconds:
                    self._evict(
                        tenant,
                        f"consumer stalled the fanout for ≥"
                        f"{self.stall_seconds:g}s with a full buffer "
                        f"({self.buffer_batches} batches)",
                    )
                    return
                continue
            depth = tenant.queue.qsize()
            if depth > tenant.buffer_highwater:
                tenant.buffer_highwater = depth
            if item is not None:
                tenant.rows_routed += len(item)
                self.stats.rows_routed += len(item)
            return

    def _evict(self, tenant: _Tenant, reason: str) -> None:
        tenant.evicted_reason = reason
        tenant.evicted.set()
        self.stats.evicted += 1

    def detach(self, index: int, reason: str = "detached") -> None:
        """Drop a live tenant's feed (dead/closed consumer); idempotent.

        A tenant whose pipeline already completed is not "detached" — its
        handle closing afterwards is the normal lifecycle, so the counter
        only moves for tenants abandoned mid-stream.
        """
        tenant = self._tenants[index]
        if tenant.detached or tenant.evicted.is_set() or tenant.done.is_set():
            return
        tenant.detached = True
        self.stats.detached += 1

    def _fanout(self) -> None:
        tenants = self._tenants
        pending: list[list[Row]] = [[] for _ in tenants]
        iterator: Any = None
        try:
            iterator = iter(self._scan)
            while True:
                if self._stop.is_set():
                    return
                if all(t.finished for t in tenants):
                    break
                # Source pulls hold the group lock: the stream advances
                # the shared virtual clock, and so do tenant service calls.
                with self._lock:
                    batch = next(iterator, _END)
                if batch is _END:
                    break
                for row in batch.rows:
                    memo: dict[str, Any] = {}
                    for tenant in tenants:
                        if tenant.finished:
                            continue
                        if self._admit_row(row, tenant, memo):
                            pending[tenant.index].append(row)
                for tenant in tenants:
                    if len(pending[tenant.index]) >= self._batch_size:
                        self._put(tenant, pending[tenant.index])
                        pending[tenant.index] = []
                if batch.last:
                    break
        except BaseException as error:  # noqa: BLE001 — surfaced at tenants
            self._record_error(error)
            return
        finally:
            if not self._stop.is_set():
                for tenant in tenants:
                    if tenant.finished:
                        continue
                    if pending[tenant.index]:
                        self._put(tenant, pending[tenant.index])
                    self._put(tenant, None)
            # Stop pulling promptly: run the scan's trace finalizers and
            # release the (scarce) streaming connection.
            close = getattr(iterator, "close", None)
            if close is not None:
                close()
            for connection in self._fanout_plan.connections:
                connection.close()

    def _worker(self, tenant: _Tenant) -> None:
        iterator = iter(tenant.pipeline)
        try:
            for batch in iterator:
                tenant.out.put(batch)
                if batch.last:
                    break
        except BaseException as error:  # noqa: BLE001
            tenant.error = error
        finally:
            # Close the operator chain so trace-wrapper finalizers run
            # (operator spans end) before the handle renders EXPLAIN ANALYZE.
            close = getattr(iterator, "close", None)
            if close is not None:
                close()
            tenant.done.set()
            tenant.out.put(None)

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Spawn the fanout and tenant worker threads (idempotent)."""
        with self._state_lock:
            if self._started:
                return
            if self._closed:
                raise ExecutionError("shared scan group is closed")
            if not self._tenants:
                raise ExecutionError(
                    "shared scan group has no tenants; admit queries first"
                )
            self._started = True
        self._pool = ThreadPoolExecutor(
            max_workers=len(self._tenants) + 1,
            thread_name_prefix="tweeql-shared",
        )
        self._pool.submit(self._fanout)
        for tenant in self._tenants:
            self._pool.submit(self._worker, tenant)

    def close(self) -> None:
        """Stop the fanout, join every thread, release the stream."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        self._stop.set()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        for connection in self._fanout_plan.connections:
            connection.close()
        for proxy in {
            id(s): s
            for s in self._fanout_ctx.services.values()
            if hasattr(s, "drain")
        }.values():
            proxy.drain()

    def __enter__(self) -> "SharedScanGroup":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # -- observability ---------------------------------------------------------

    @property
    def tracer(self) -> Any:
        """The fanout lane's span recorder (None when tracing is off)."""
        return self._fanout_plan.tracer

    def explain(self) -> str:
        """Group-level plan description (fanout side)."""
        lines = [
            f"SharedScan group {self.label}: {len(self._tenants)} tenant(s), "
            f"max {self.max_tenants}",
            f"Fanout: {len(self._predicates)} distinct conjunct(s) shared "
            f"across tenants; buffers {self.buffer_batches} batches, "
            f"stall budget {self.stall_seconds:g}s",
        ]
        lines.extend(self._fanout_plan.explain_lines)
        return "\n".join(lines)

    def stats_dict(self) -> dict[str, Any]:
        """One nested snapshot of everything the group counts.

        Shape: ``group`` (admission/routing), ``fanout`` (scan counters),
        ``tenant.<i>`` (per-tenant routing + buffer depth — the fanout-lag
        signal), ``cache.<service>`` (cross-tenant hit attribution), and
        ``connection`` (the shared stream's delivery accounting).
        """
        tree: dict[str, Any] = {
            "group": self.stats.as_dict(),
            "fanout": self._fanout_ctx.stats.as_dict(),
            "tenant": {
                str(t.index): t.as_dict() for t in self._tenants
            },
            "cache": self.shared_cache.as_dict(),
        }
        connections = self._fanout_plan.connections
        if connections:
            stats = connections[0].stats
            tree["connection"] = {
                "scanned": stats.scanned,
                "matched": stats.matched,
                "delivered": stats.delivered,
                "dropped": stats.dropped,
                "reconnects": stats.reconnects,
                "gap_tweets": stats.gap_tweets,
            }
        return tree

    def metrics(self):
        """The group snapshot as a
        :class:`~repro.obs.metrics.MetricsRegistry` (``shared.*`` tree)."""
        from repro.obs.metrics import shared_metrics

        return shared_metrics(self)
