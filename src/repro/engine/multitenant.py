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

- the fanout is the planner's scan of the source (:meth:`Planner.scan`),
  and each tenant's pipeline is the planner's ordinary plan of its
  statement (:meth:`Planner.plan`) over a **routed feed**: a scan source
  whose chunks are the frames in the tenant's inbox. The fanout applied
  the tenant's WHERE clause, so its plan has no filter stage;
- when that inbox is empty, the feed **pumps** the group: one source
  batch is pulled through the fanout scan and routed. Routing
  evaluates every live tenant's WHERE conjuncts with a per-batch memo
  keyed by the conjunct's rendered SQL — a filter prefix shared by N
  tenants is evaluated **once** per row, not N times — each conjunct over
  a whole column when it has a vector form, by scalar closure otherwise.
  The router moves the scan's own items — tweets for ``twitter``, row
  dicts for a registered source — so tenants scan tweet-backed batches
  like any other ``twitter`` plan. Passing items collect per tenant and
  move into its inbox in frames of exactly ``batch_size``; at end of
  stream the remainders are flushed and the connection closes.

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

from collections import OrderedDict, deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Any

from repro.engine.executor import QueryHandle, drain_services
from repro.engine.expressions import expand_column
from repro.engine.latency import ManagedCall, ManagedCallStats, managed_calls
from repro.engine.planner import Planner, SourceBinding
from repro.engine.types import ColumnBatch, EvalContext
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
    hits crossed tenant boundaries. Each service's ownership map holds at
    most as many keys as the LRU it attributes: past that it forgets its
    least recently requested key, as the LRU evicts its least recently
    used one. A service with no LRU never hits, so it keeps no owners.
    """

    def __init__(self) -> None:
        self._owners: dict[str, OrderedDict[Any, int]] = {}
        self._per_service: dict[str, SharedCacheStats] = {}

    def service_stats(self, service: str) -> SharedCacheStats:
        stats = self._per_service.get(service)
        if stats is None:
            stats = self._per_service[service] = SharedCacheStats()
        return stats

    def record(self, call: ManagedCall, tenant: int, key: Any, hit: bool) -> None:
        """Account one tenant lookup through ``call``; claims ownership of
        ``key`` on first sight."""
        service = call.service.name
        owners = self._owners.setdefault(service, OrderedDict())
        owner = owners.pop(key, tenant)
        if call.cache is not None:
            owners[key] = owner
            if len(owners) > call.cache.capacity:
                owners.popitem(last=False)
        stats = self.service_stats(service)
        stats.requests += 1
        if hit:
            stats.hits += 1
            if owner != tenant:
                stats.cross_tenant_hits += 1

    def as_dict(self) -> dict[str, dict[str, float]]:
        return {
            name: stats.as_dict()
            for name, stats in sorted(self._per_service.items())
        }


# ---------------------------------------------------------------------------
# Tenant bookkeeping and the routed feed
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
        #: Routed frames (tweets, or a registered source's row dicts) of
        #: exactly ``batch_size`` items, the last one shorter, waiting for
        #: this tenant's consumer to pull.
        self.inbox: deque[list[Any]] = deque()
        #: Routed items not yet framed into an inbox entry.
        self.pending: list[Any] = []
        self.done = False
        self.detached = False
        self.conjunct_keys: tuple[str, ...] = ()
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


class _TenantFeed:
    """A tenant's scan source: the frames the router put in its inbox.

    The tenant plan's ordinary ScanOperator reads it, so it counts the
    tenant's ``rows_scanned`` and ``batches`` and advances its stream
    time. The first pull starts the group (planning and EXPLAIN open no
    connection); an empty inbox pumps the group; a stored group error is
    re-raised. The group frames at its batch size, which is the tenant
    plan's too, so ``chunks`` meets the ScanSource contract.
    """

    def __init__(
        self,
        group: "SharedScanGroup",
        tenant: _Tenant,
        explain_lines: list[str],
    ) -> None:
        self._group = group
        self._inbox = tenant.inbox
        self.batch = group._wrap
        #: EXPLAIN lines the planner prints in place of a scan line.
        self.explain_lines = explain_lines

    def chunks(self, size: int) -> Iterator[list[Any]]:
        group = self._group
        inbox = self._inbox
        group.start()
        while True:
            if group._error is not None:
                raise group._error
            if inbox:
                yield inbox.popleft()
            elif not group._pump():
                yield []
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

        # The fanout: the planner's scan of the source, on a context of
        # its own, which counts and traces the service calls its WHERE
        # conjuncts make.
        self._fanout = planner.scan(
            binding,
            EvalContext(clock=clock, services=dict(services), lane="fanout"),
        )
        self._batch_size = self._fanout.batch_size
        #: Wraps a frame of routed items as the scan wrapped them.
        self._wrap = (
            ColumnBatch.from_rows if binding.api is None else ColumnBatch.from_tweets
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
        return list(self._fanout.connections)

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
        return self._planner.batch_blocker(statement)

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
        index = len(self._tenants)
        tenant = _Tenant(index)

        # Shared filter compilation: each distinct conjunct (by rendered
        # SQL) is compiled once against the fanout plan — with its
        # whole-column form when it has one — and evaluated once per row
        # for the whole group.
        keys: list[str] = []
        vectorized = 0
        for conjunct in ast.split_conjuncts(statement.where):
            key = conjunct.to_sql()
            if key not in self._predicates:
                self._predicates[key] = self._planner.compile_predicate(
                    conjunct, self._fanout
                )
            if self._predicates[key][1] is not None:
                vectorized += 1
            keys.append(key)
        tenant.conjunct_keys = tuple(keys)

        explain = [
            f"SharedScan: tenant {index} of {self.label} "
            f"(1 connection / 1 scan fanned out to "
            f"{self.max_tenants}-tenant group)"
        ]
        if keys:
            explain.append(
                "Filter: " + " AND ".join(keys)
                + " (evaluated fanout-side, memoized across tenants)"
                + (f" [vectorized {vectorized}/{len(keys)}]" if vectorized else "")
            )
        binding = SourceBinding(
            self.label, self._binding.schema,
            feed=_TenantFeed(self, tenant, explain),
        )
        shared = self.shared_cache
        ctx = EvalContext(
            clock=self._clock,
            services=dict(self._services),
            lane=f"tenant-{index}",
            on_lookup=lambda call, key, hit: shared.record(call, index, key, hit),
        )
        plan = self._planner.plan(statement, binding, ctx, analyzed=True)
        plan.closers.append(lambda abandoned: self._leave(tenant, abandoned))
        handle = QueryHandle(sql, plan)
        self._tenants.append(tenant)
        self._handles.append(handle)
        return handle

    # -- fanout ----------------------------------------------------------------

    def _pump(self) -> bool:
        """Pull and route one source batch on the calling consumer's thread.

        Moves each live tenant's pending items into its inbox in frames of
        exactly ``batch_size`` (the remainder too at end of stream, which
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
        size = self._batch_size
        for tenant in self._tenants:
            pending = tenant.pending
            while pending and not tenant.finished and (end or len(pending) >= size):
                tenant.inbox.append(pending[:size])
                del pending[:size]
                tenant.buffer_highwater = max(
                    tenant.buffer_highwater, len(tenant.inbox)
                )
        if end:
            self._stop_scan()
        return True

    def _route(self, batch: ColumnBatch) -> None:
        """Append each item of ``batch`` to every live tenant it passes.

        The items are what the scan delivered (``ColumnBatch.items``), so
        a tweet is routed as itself; only a conjunct with no column form
        builds row dicts, for the rows it evaluates. The conjunct memo is
        one verdict column per distinct conjunct. For each live tenant in
        admission order, and each of its conjuncts in order, only the rows
        of the tenant's surviving selection the memo lacks are evaluated.
        That visits exactly the (row, conjunct) pairs a per-row memo
        would, in the same per-row order, so ``predicate_evaluations`` and
        ``evaluations_shared`` do not depend on the batch size.
        """
        items = batch.items
        if not items:
            return
        memo: dict[str, list[Any]] = {}
        everyone = range(len(items))
        for tenant in self._tenants:
            if tenant.finished:
                continue
            selection: Sequence[int] = everyone
            for key in tenant.conjunct_keys:
                verdicts = memo.get(key)
                if verdicts is None:
                    verdicts = memo[key] = [_MISS] * len(items)
                    needed = list(selection)
                else:
                    needed = [i for i in selection if verdicts[i] is _MISS]
                    self.stats.evaluations_shared += len(selection) - len(needed)
                if needed:
                    self._decide(key, batch, needed, verdicts)
                selection = [i for i in selection if verdicts[i]]
                if not selection:
                    break
            tenant.pending.extend(map(items.__getitem__, selection))
            tenant.rows_routed += len(selection)
            self.stats.rows_routed += len(selection)

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
        ctx = self._fanout.ctx
        if vector is not None:
            values = expand_column(vector(batch.take(needed), ctx), len(needed))
        else:
            values = [predicate(batch.row(i), ctx) for i in needed]
        for i, value in zip(needed, values):
            verdicts[i] = value is not None and bool(value)
        ctx.stats.predicate_evaluations += len(needed)

    def _stop_scan(self) -> None:
        """Close the scan (running its trace finalizers) and release the
        (scarce) streaming connection, and a derived source's upstream
        plan with its connection; idempotent."""
        source, self._source = self._source, None
        if source is not None:
            source.close()
            # A derived source's upstream plan: the group lets go of it
            # here, whether or not it ran out.
            for closer in self._fanout.closers:
                closer(True)
        for connection in self._fanout.connections:
            connection.close()

    def _leave(self, tenant: _Tenant, abandoned: bool) -> None:
        """A tenant's handle let go of its pipeline, which ended (done) or
        was abandoned mid-stream (detached); stop the scan if no tenant is
        left. Only abandoned tenants count in ``stats.detached``: a handle
        closed after its pipeline completed is the normal lifecycle."""
        if abandoned:
            tenant.detached = True
            self.stats.detached += 1
        else:
            tenant.done = True
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
        self._source = iter(self._fanout.pipeline)

    def close(self) -> None:
        """Stop the scan, release the stream, drain fanout service calls."""
        if self._closed:
            return
        self._closed = True
        self._stop_scan()
        drain_services(self._fanout.ctx.services)

    def __enter__(self) -> "SharedScanGroup":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # -- observability ---------------------------------------------------------

    @property
    def tracer(self) -> Any:
        """The fanout lane's span recorder (None when tracing is off)."""
        return self._fanout.tracer

    @property
    def fanout_service_stats(self) -> dict[str, ManagedCallStats]:
        """The service calls the fanout's WHERE conjuncts made, by UDF
        name (the keys of :attr:`QueryHandle.service_stats`)."""
        ctx = self._fanout.ctx
        return {
            name: ctx.calls[call]
            for name, call in managed_calls(ctx.services).items()
        }

    def explain(self) -> str:
        """Group-level plan description (fanout side)."""
        lines = [
            f"SharedScan group {self.label}: {len(self._tenants)} tenant(s), "
            f"max {self.max_tenants}",
            f"Fanout: {len(self._predicates)} distinct conjunct(s) shared "
            "across tenants",
        ]
        lines.extend(self._fanout.explain_lines)
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
            "fanout": self._fanout.ctx.stats.as_dict(),
            "tenant": {
                str(t.index): t.as_dict() for t in self._tenants
            },
            "cache": self.shared_cache.as_dict(),
        }
        connections = self._fanout.connections
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
