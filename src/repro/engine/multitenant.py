"""Multi-tenant shared-scan execution.

TwitInfo's demo shape — one query, one stream connection, one scan per
tracked event — is the opposite of how a service with many users runs.
This module adds the shared-scan layer: **one** Firehose connection and
**one** scan per source, with post-scan batches fanned out to every live
tenant query.

Architecture (the fanout protocol: pump on pull)
------------------------------------------------
A :class:`SharedScanGroup` admits tenant queries *before* the stream
starts (admission control) and then runs entirely on the thread that
pulls its handles — no threads, no queues, no locks:

- each tenant's pipeline is its **residual body** (prefetch →
  aggregate/project → into; no filter stage — filtering happens at the
  fanout) over a :class:`TenantScan` that reads routed row-lists from the
  tenant's inbox;
- when that inbox is empty, the TenantScan **pumps** the group: one source
  batch is pulled through the single ScanOperator and routed. Routing
  evaluates every live tenant's WHERE conjuncts with a per-batch memo
  keyed by the conjunct's rendered SQL — a filter prefix shared by N
  tenants is evaluated **once** per row, not N times — each conjunct over
  a whole column when it has a vector form, by scalar closure otherwise.
  Passing rows collect per tenant and move into its inbox in
  ``batch_size`` frames; at end of stream the remainders are flushed and
  the connection closes.

Consumer-order buffering
------------------------
A tenant's body runs only when its own consumer pulls, so nothing can
fall behind the stream and there is no backpressure policy: a slow UDF
costs only the tenant that calls it. Rows routed to a tenant whose
consumer has not pulled yet wait in its inbox — ``buffer_depth`` and
``buffer_highwater`` measure that consumer lag — so draining tenants one
after another (as ``TwitInfoApp.run_events`` does) buffers the later
tenants' substreams. A tenant that finishes early (LIMIT) or whose handle
is closed mid-stream (**detached**) stops receiving rows; once every
tenant is done or detached the scan stops and the shared connection
closes, so early completion is visible in the connection's
:class:`~repro.twitter.stream.ConnectionStats`.

A source or fanout-conjunct error is stored on the group and re-raised to
every tenant; an error inside one tenant's body reaches only that
tenant's handle, with its original exception type.

Like any :class:`~repro.engine.executor.QueryHandle`, one group's handles
are pulled from one thread. Under the sanitizer, pumping the group from a
second thread raises ``TQL911`` on the fanout scan.

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

import dataclasses
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any

from repro.engine import operators as ops
from repro.engine.executor import QueryHandle
from repro.engine.expressions import compile_expr, expand_column
from repro.engine.latency import ManagedCall, ManagedCallStats
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

#: Live queries one shared-scan group admits by default; query N+1 is
#: rejected with ``TQL401``.
MAX_TENANTS = 16

_MISS = object()


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
    hits crossed tenant boundaries.
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


_MANAGED_FIELDS = tuple(f.name for f in dataclasses.fields(ManagedCallStats))


class TenantManagedCall:
    """One stage's view of a shared :class:`ManagedCall`: a tenant's, or
    the fanout's.

    ``stats`` mirrors the *delta* each forwarded call produced on the
    shared call's global counters, so the tenants' mirrors plus the
    fanout's sum to the session's own. A tenant view also reports every
    call to the group's :class:`SharedServiceCache` — whether it hit, and
    who owned the key; the fanout's view (``shared`` None) reports none.
    """

    def __init__(
        self,
        inner: ManagedCall,
        tenant: int = -1,
        shared: SharedServiceCache | None = None,
    ) -> None:
        self._inner = inner
        self._tenant = tenant
        self._shared = shared
        self._service_name = inner.service.name
        self.stats = ManagedCallStats()

    @property
    def mode(self) -> str:
        return self._inner.mode

    @property
    def cache(self):
        return self._inner.cache

    @property
    def service(self):
        return self._inner.service

    def _snapshot(self) -> tuple:
        return tuple(getattr(self._inner.stats, f) for f in _MANAGED_FIELDS)

    def _accumulate(self, before: tuple) -> None:
        after = self._snapshot()
        for name, b, a in zip(_MANAGED_FIELDS, before, after):
            setattr(self.stats, name, getattr(self.stats, name) + (a - b))

    def __call__(self, key: Any) -> Any:
        hits = self.stats.cache_hits
        before = self._snapshot()
        try:
            return self._inner(key)
        finally:
            self._accumulate(before)
            if self._shared is not None:
                self._shared.record(
                    self._service_name,
                    self._tenant,
                    key,
                    hit=self.stats.cache_hits > hits,
                )

    def prefetch(self, keys: Iterable[Any]) -> None:
        keys = list(keys)
        if self._shared is not None:
            for key in keys:
                self._shared.claim(self._service_name, self._tenant, key)
        before = self._snapshot()
        try:
            self._inner.prefetch(keys)
        finally:
            self._accumulate(before)

    def drain(self) -> None:
        self._inner.drain()


def proxy_services(
    services: dict[str, Any],
    tenant: int = -1,
    shared: SharedServiceCache | None = None,
) -> tuple[dict[str, Any], dict[str, ManagedCallStats]]:
    """Wrap every ManagedCall in ``services`` with a
    :class:`TenantManagedCall` view for ``tenant`` (the fanout's when
    ``shared`` is None).

    Returns the proxied mapping plus {service name → stats mirror}.
    Aliases of one ManagedCall (``geocode`` / ``geocode_managed``) share
    one view so the mirror is not double-counted.
    """
    proxies: dict[str, Any] = {}
    by_id: dict[int, TenantManagedCall] = {}
    stats: dict[str, ManagedCallStats] = {}
    for name, svc in services.items():
        if isinstance(svc, ManagedCall):
            proxy = by_id.get(id(svc))
            if proxy is None:
                proxy = TenantManagedCall(svc, tenant, shared)
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
    detached: int = 0
    #: Total row deliveries across tenants (one row routed to 3 tenants
    #: counts 3).
    rows_routed: int = 0
    #: Predicate evaluations *saved* by the conjunct memo — each is an
    #: evaluation an independent run would have performed again.
    evaluations_shared: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "admitted": self.admitted,
            "rejected": self.rejected,
            "detached": self.detached,
            "rows_routed": self.rows_routed,
            "evaluations_shared": self.evaluations_shared,
        }


class _Tenant:
    """One admitted query's runtime state inside the group."""

    def __init__(self, index: int) -> None:
        self.index = index
        #: Routed row-lists waiting for this tenant's consumer to pull.
        self.inbox: deque[list[Row]] = deque()
        #: Passing rows not yet framed into a ``batch_size`` inbox entry.
        self.pending: list[Row] = []
        self.done = False
        self.detached = False
        self.conjunct_keys: tuple[str, ...] = ()
        self.pipeline: Any = None
        self.rows_routed = 0
        self.buffer_highwater = 0

    @property
    def finished(self) -> bool:
        """No more input should be routed to this tenant."""
        return self.done or self.detached

    def as_dict(self) -> dict[str, Any]:
        return {
            "rows_routed": self.rows_routed,
            "buffer_depth": len(self.inbox),
            "buffer_highwater": self.buffer_highwater,
            "done": self.done,
            "detached": self.detached,
        }


class TenantScan:
    """Source stage of a tenant's residual pipeline, fed by the fanout.

    Pumps the group whenever the tenant's inbox is empty. Counts routed
    rows as this tenant's ``rows_scanned`` (its view of the stream is the
    post-shared-filter substream) and advances the tenant context's
    stream time like a ScanOperator. Ends with an empty ``last`` batch
    once the stream has ended and the inbox is drained.
    """

    def __init__(
        self, group: "SharedScanGroup", tenant: _Tenant, ctx: EvalContext
    ) -> None:
        self._group = group
        self._tenant = tenant
        self._ctx = ctx

    def __iter__(self) -> Iterator[ColumnBatch]:
        group = self._group
        inbox = self._tenant.inbox
        ctx = self._ctx
        stats = ctx.stats
        seq = 0
        while True:
            if group._error is not None:
                raise group._error
            if not inbox:
                if group._pump():
                    continue
                yield ColumnBatch.from_rows([], seq, last=True)
                return
            rows = inbox.popleft()
            stats.rows_scanned += len(rows)
            stats.batches += 1
            batch = ColumnBatch.from_rows(rows, seq)
            ctx.advance_to(batch)
            yield batch
            seq += 1


class _TenantOutput:
    """The tenant plan's pipeline: its residual body, pulled directly.

    The first pull lazily starts the group (planning and EXPLAIN must not
    open the stream). Ending — exhaustion, an error, or the handle closing
    the iterator — marks the tenant done, which stops the shared scan once
    no tenant is left to read it.
    """

    def __init__(self, group: "SharedScanGroup", tenant: _Tenant) -> None:
        self._group = group
        self._tenant = tenant

    def __iter__(self) -> Iterator[ColumnBatch]:
        self._group.start()
        try:
            yield from self._tenant.pipeline
        finally:
            self._group._finish(self._tenant)


# ---------------------------------------------------------------------------
# The group
# ---------------------------------------------------------------------------


class SharedScanGroup:
    """One shared scan serving N tenant queries over one source.

    Built by :meth:`repro.engine.session.TweeQL.shared`. Lifecycle::

        group = session.shared()
        h1 = group.query("SELECT …;")   # admission happens here
        h2 = group.query("SELECT …;")
        rows = h1.all()                 # first pull opens the scan
        …
        group.close()                   # stop the scan, close the stream

    Tenant handles are ordinary :class:`QueryHandle` objects: ``stats``,
    ``service_stats``, ``explain(analyze=True)`` and ``metrics()`` all
    work, scoped to the tenant's own slice of the work. All of a group's
    handles must be pulled from one thread.
    """

    def __init__(
        self,
        planner: Planner,
        binding: SourceBinding,
        services: dict[str, Any],
        clock: Any,
        *,
        max_tenants: int = MAX_TENANTS,
        label: str | None = None,
    ) -> None:
        if max_tenants < 1:
            raise ValueError("max_tenants must be positive")
        self._planner = planner
        self._binding = binding
        self._services = services
        self._clock = clock
        self.max_tenants = max_tenants
        self.label = label or f"shared:{binding.name}"

        self._started = False
        self._closed = False
        #: The scan's batch iterator while the stream is open.
        self._source: Iterator[ColumnBatch] | None = None
        self._error: BaseException | None = None

        self.stats = GroupStats()
        self.shared_cache = SharedServiceCache()
        self._tenants: list[_Tenant] = []
        self._handles: list[QueryHandle] = []
        #: Deduplicated compiled conjuncts (scalar closure, vector form or
        #: None), keyed by rendered SQL — the "share common filter
        #: prefixes" mechanism.
        self._predicates: dict[str, tuple[Any, Any]] = {}

        # Fanout-side context and source pipeline. The fanout's services
        # carry a stats mirror (WHERE conjuncts may call them) so service
        # attribution reconciles: per-tenant mirrors + the fanout mirror
        # sum to the session's global counters.
        config = planner._config
        self._batch_size = getattr(config, "batch_size", DEFAULT_BATCH_SIZE)
        fanout_services, self.fanout_service_stats = proxy_services(services)
        self._fanout_ctx = EvalContext(
            clock=clock, services=fanout_services, lane="fanout"
        )
        self._fanout_plan = PhysicalPlan(
            pipeline=iter(()), output_schema=(), ctx=self._fanout_ctx,
            batch_size=self._batch_size,
        )
        self._fanout_plan.tracer = planner._make_tracer()
        self._fanout_plan.sanitizer = planner._make_sanitizer()
        self._fanout_ctx.tracer = self._fanout_plan.tracer
        # Service spans belong to whichever single query planned last;
        # a shared group has no single owner, so it records none.
        planner._attach_service_tracers(None)
        source = planner._build_source(binding, [], self._fanout_plan)
        scan: ops.Batches = ops.ScanOperator(
            source, self._fanout_ctx, self._batch_size
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
        if self._closed:
            self.stats.rejected += 1
            raise AdmissionError("shared scan group is closed", code="TQL403")
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
                f"({self.max_tenants} live queries); close one or open "
                "the group with a larger TweeQL.shared(max_tenants=...)",
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
        schema = self._binding.schema
        index = len(self._tenants)
        tenant = _Tenant(index)

        # Shared filter compilation: each distinct conjunct (by rendered
        # SQL) is compiled once against the fanout context — with its
        # whole-column form when it has one — and evaluated once per row
        # for the whole group.
        keys: list[str] = []
        vectorized = 0
        for conjunct in split_conjuncts(statement.where):
            key = conjunct.to_sql()
            if key not in self._predicates:
                self._predicates[key] = (
                    compile_expr(
                        conjunct, planner._registry, schema, self._fanout_ctx
                    ),
                    planner._vector(
                        self._fanout_plan, conjunct, schema, self._fanout_ctx
                    ),
                )
            if self._predicates[key][1] is not None:
                vectorized += 1
            keys.append(key)
        tenant.conjunct_keys = tuple(keys)

        proxies, _ = proxy_services(self._services, index, self.shared_cache)
        lane = f"tenant-{index}"
        ctx = EvalContext(clock=self._clock, services=proxies, lane=lane)
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
                + (f" [vectorized {vectorized}/{len(keys)}]" if vectorized else "")
            )
        explain.append(f"Batch: {self._batch_size} rows/batch (fanout-framed)")

        pipeline: ops.Batches = TenantScan(self, tenant, ctx)
        pipeline = planner._trace(
            pipeline, f"Scan({self.label})", plan, lane=lane
        )

        # No conjuncts: the fanout already evaluated this tenant's WHERE.
        tenant.pipeline, plan.output_schema = planner._build_body(
            statement, pipeline, schema, ctx, plan, lane=lane
        )
        plan.pipeline = _TenantOutput(self, tenant)
        plan.closers.append(lambda: self.detach(tenant.index))
        handle = QueryHandle(sql, plan)
        self._tenants.append(tenant)
        self._handles.append(handle)
        return handle

    # -- fanout ----------------------------------------------------------------

    def _pump(self) -> bool:
        """Pull and route one source batch on the calling consumer's thread.

        Moves each live tenant's pending rows into its inbox once they
        fill a ``batch_size`` frame (all of them at end of stream, which
        also stops the scan). Returns False once the stream has ended. A
        source or fanout-conjunct error is stored — every tenant re-raises
        it — and stops the scan.
        """
        source = self._source
        if source is None:
            return False
        try:
            batch = next(source, None)
            if batch is not None:
                self._route(batch)
        except BaseException as error:  # noqa: BLE001 — surfaced at tenants
            self._error = error
            self._stop_scan()
            raise
        end = batch is None or batch.last
        for tenant in self._tenants:
            pending = tenant.pending
            if tenant.finished or not pending:
                continue
            if end or len(pending) >= self._batch_size:
                tenant.pending = []
                tenant.inbox.append(pending)
                tenant.rows_routed += len(pending)
                self.stats.rows_routed += len(pending)
                tenant.buffer_highwater = max(
                    tenant.buffer_highwater, len(tenant.inbox)
                )
        if end:
            self._stop_scan()
        return True

    def _route(self, batch: ColumnBatch) -> None:
        """Append each row of ``batch`` to every live tenant it passes.

        The conjunct memo is one verdict column per distinct conjunct.
        For each live tenant in admission order, and each of its
        conjuncts in order, only the rows of the tenant's surviving
        selection the memo lacks are evaluated. That visits exactly the
        (row, conjunct) pairs a per-row memo would, in the same per-row
        order, so ``predicate_evaluations`` and ``evaluations_shared`` do
        not depend on the batch size.
        """
        rows = batch.rows
        if not rows:
            return
        memo: dict[str, list[Any]] = {}
        everyone = range(len(rows))
        for tenant in self._tenants:
            if tenant.finished:
                continue
            selection: Sequence[int] = everyone
            for key in tenant.conjunct_keys:
                verdicts = memo.get(key)
                if verdicts is None:
                    verdicts = memo[key] = [_MISS] * len(rows)
                    needed = list(selection)
                else:
                    needed = [i for i in selection if verdicts[i] is _MISS]
                    self.stats.evaluations_shared += len(selection) - len(needed)
                if needed:
                    self._decide(key, batch, needed, verdicts)
                selection = [i for i in selection if verdicts[i]]
                if not selection:
                    break
            tenant.pending.extend(map(rows.__getitem__, selection))

    def _decide(
        self,
        key: str,
        batch: ColumnBatch,
        needed: list[int],
        verdicts: list[Any],
    ) -> None:
        """Evaluate conjunct ``key`` on rows ``needed`` into its memo
        column, whole-column when it has a vector form. Verdicts follow
        SQL WHERE semantics: NULL drops the row like FALSE."""
        predicate, vector = self._predicates[key]
        ctx = self._fanout_ctx
        if vector is not None:
            values = expand_column(vector(batch.take(needed), ctx), len(needed))
        else:
            rows = batch.rows
            values = [predicate(rows[i], ctx) for i in needed]
        for i, value in zip(needed, values):
            verdicts[i] = value is not None and bool(value)
        ctx.stats.predicate_evaluations += len(needed)

    def _stop_scan(self) -> None:
        """Close the scan (running its trace finalizers) and release the
        (scarce) streaming connection; idempotent."""
        source, self._source = self._source, None
        if source is not None:
            source.close()
        for connection in self._fanout_plan.connections:
            connection.close()

    def _finish(self, tenant: _Tenant) -> None:
        """A tenant's pipeline ended; stop the scan if no tenant is left."""
        tenant.done = True
        if all(t.finished for t in self._tenants):
            self._stop_scan()

    def detach(self, index: int) -> None:
        """Drop a live tenant's feed (dead/closed consumer); idempotent.

        A tenant whose pipeline already completed is not "detached" — its
        handle closing afterwards is the normal lifecycle, so the counter
        only moves for tenants abandoned mid-stream.
        """
        tenant = self._tenants[index]
        if tenant.finished:
            return
        tenant.detached = True
        self.stats.detached += 1
        if all(t.finished for t in self._tenants):
            self._stop_scan()

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Open the shared scan (idempotent); admission closes here."""
        if self._started:
            return
        if self._closed:
            raise ExecutionError("shared scan group is closed")
        if not self._tenants:
            raise ExecutionError(
                "shared scan group has no tenants; admit queries first"
            )
        self._started = True
        self._source = iter(self._scan)

    def close(self) -> None:
        """Stop the scan, release the stream, drain fanout service calls."""
        if self._closed:
            return
        self._closed = True
        self._stop_scan()
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
            "across tenants",
        ]
        lines.extend(self._fanout_plan.explain_lines)
        return "\n".join(lines)

    def stats_dict(self) -> dict[str, Any]:
        """One nested snapshot of everything the group counts.

        Shape: ``group`` (admission/routing), ``fanout`` (scan counters),
        ``tenant.<i>`` (per-tenant routing + inbox depth — the consumer-lag
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
