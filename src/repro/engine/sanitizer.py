"""TQLSAN — the engine's runtime invariant sanitizer and lock-order detector.

The engine's correctness rests on a small set of protocol invariants that
are easy to state and easy to break silently: batch ``seq`` stamps are
strictly increasing per producer, every producer punctuates with exactly
one ``last=True`` batch and nothing after it, ColumnBatches stay coherent
(column lengths agree, the ``MISSING`` sentinel never leaks into row
dicts, negative-probe caches never go stale), one pipeline stage is
driven from one thread, stats counters only grow, and the trace probes
reconcile with the engine's own counters at close. PRs 1–7 pinned these indirectly through equivalence
sweeps; this module checks them *directly*, TSAN-style, at every operator
boundary.

Three cooperating pieces:

- :class:`SanitizeOperator` — a pipeline wrapper the planner installs at
  every stage boundary when ``EngineConfig.sanitize`` (or ``TWEEQL_SAN=1``
  in the environment, or ``tweeql --sanitize``) is on. Mirrors the
  ``TraceOperator`` pattern: when off, the planner adds **zero** wrappers
  and the hot path is byte-identical to an unsanitized build.
- :class:`LockRegistry` + :func:`registered_lock` — every lock the engine
  creates goes through :func:`registered_lock`, which returns a
  :class:`TrackedLock` recording per-thread acquisition stacks into a
  happens-before graph. Cycles in that graph are potential deadlocks
  (``TQL910``); the engine-source lint (:mod:`repro.sql.analysis.engine_lint`)
  flags any bare ``threading.Lock()`` that bypasses registration.
- :class:`Sanitizer` — the per-plan checking context: it runs the
  mandatory ``reconcile()`` cross-check at query close and turns
  violations into structured :class:`~repro.errors.SanitizerError`
  records.

Violation codes (catalogued in ``docs/ANALYSIS.md`` and
``docs/SANITIZER.md``):

======= ====================================================================
TQL901  batch ``seq`` regression (not strictly increasing per producer)
TQL902  punctuation protocol: batch after ``last=True`` / stream ended
        without punctuation
TQL903  ColumnBatch incoherence (column/row length mismatch, stale
        negative-probe cache, a tweet backing that is not a list of one
        ``Tweet`` per row)
TQL904  ``MISSING`` sentinel leaked into a materialized row dict
TQL906  stats counter regression (a ``QueryStats`` counter decreased)
TQL907  trace/stats reconciliation failed at query close
TQL910  lock-order cycle (potential deadlock) in the acquisition graph
TQL911  batch ownership violation (one pipeline stage driven from two
        threads)
======= ====================================================================

Everything here is deterministic: violation messages sort lock names and
carry stable operator/lane labels, so a sanitized CI lane can golden-match
its output.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Iterable, Iterator
from typing import Any

from repro.engine.types import ColumnBatch, MISSING, QueryStats, Row
from repro.errors import SanitizerError
from repro.twitter.models import Tweet

__all__ = [
    "LockRegistry",
    "SanitizeOperator",
    "Sanitizer",
    "TrackedLock",
    "enable_lock_tracking",
    "lock_registry",
    "lock_tracking",
    "registered_lock",
    "sanitize_env_enabled",
]


def sanitize_env_enabled() -> bool:
    """True when ``TWEEQL_SAN`` asks for sanitized execution."""
    return os.environ.get("TWEEQL_SAN", "").strip().lower() in (
        "1", "true", "on", "yes",
    )


# ---------------------------------------------------------------------------
# Lock registry: instrumented locks + happens-before acquisition graph
# ---------------------------------------------------------------------------


class _HeldLocks(threading.local):
    """Per-thread stack of currently-held tracked locks."""

    def __init__(self) -> None:
        self.stack: list[TrackedLock] = []
        self.depth: dict[int, int] = {}


class LockRegistry:
    """Happens-before graph over named lock acquisitions.

    Edges are recorded by *name*, not instance — two queries each taking
    lock ``a`` then lock ``b`` produce one edge — so the
    graph (and any cycle report) is deterministic across runs and across
    instances. A cycle ``A → B → A`` means two threads can take the same
    pair of locks in opposite orders: a potential deadlock, reported as
    ``TQL910``. Detection happens at edge-insertion time and is recorded
    rather than raised (raising inside an engine thread could deadlock the
    very teardown being diagnosed); :meth:`check` raises at query close.
    """

    def __init__(self) -> None:
        # Internal synchronization is deliberately a *raw* lock: the
        # registry cannot track itself, and the engine lint allowlists
        # this module for exactly that reason.
        self._mutex = threading.Lock()
        self._held = _HeldLocks()
        #: name -> set of names acquired while holding it.
        self._edges: dict[str, set[str]] = {}
        #: Deterministic violation records: (code, message) sorted-unique.
        self._violations: dict[tuple[str, str], None] = {}
        #: Names ever registered (for the how-to docs / debugging).
        self.names: dict[str, int] = {}

    # -- instrumentation callbacks (called by TrackedLock) ------------------

    def register(self, lock: "TrackedLock") -> None:
        with self._mutex:
            self.names[lock.name] = self.names.get(lock.name, 0) + 1

    def acquired(self, lock: "TrackedLock") -> None:
        held = self._held
        key = id(lock)
        depth = held.depth.get(key, 0)
        held.depth[key] = depth + 1
        if depth:
            return  # reentrant re-acquire adds no ordering information
        new_edges: list[tuple[str, str]] = []
        for outer in held.stack:
            if outer.name != lock.name:
                new_edges.append((outer.name, lock.name))
        held.stack.append(lock)
        if not new_edges:
            return
        with self._mutex:
            for src, dst in new_edges:
                targets = self._edges.setdefault(src, set())
                if dst in targets:
                    continue
                targets.add(dst)
                cycle = self._find_cycle(dst, src)
                if cycle is not None:
                    path = " -> ".join(cycle + [cycle[0]])
                    self._violations[(
                        "TQL910",
                        f"lock-order cycle (potential deadlock): {path}",
                    )] = None

    def released(self, lock: "TrackedLock") -> None:
        held = self._held
        key = id(lock)
        depth = held.depth.get(key, 0)
        if depth > 1:
            held.depth[key] = depth - 1
            return
        held.depth.pop(key, None)
        for index in range(len(held.stack) - 1, -1, -1):
            if held.stack[index] is lock:
                del held.stack[index]
                break

    def _find_cycle(self, start: str, goal: str) -> list[str] | None:
        """A path ``start → … → goal`` in the edge graph, if one exists.

        Called with the just-inserted edge ``goal → start`` already in the
        graph, so a returned path closes a cycle through it. Deterministic:
        neighbors are visited in sorted order.
        """
        stack = [(start, [start])]
        seen = {start}
        while stack:
            node, path = stack.pop()
            if node == goal:
                return path
            for neighbor in sorted(self._edges.get(node, ()), reverse=True):
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append((neighbor, path + [neighbor]))
        return None

    # -- reporting -----------------------------------------------------------

    def report(self) -> list[tuple[str, str]]:
        """Recorded violations, deterministically ordered."""
        with self._mutex:
            return sorted(self._violations)

    def edges(self) -> list[tuple[str, str]]:
        """The acquisition graph as sorted (outer, inner) name pairs."""
        with self._mutex:
            return sorted(
                (src, dst)
                for src, targets in self._edges.items()
                for dst in targets
            )

    def check(self) -> None:
        """Raise ``TQL910`` for the first (deterministic) recorded cycle."""
        violations = self.report()
        if violations:
            code, message = violations[0]
            raise SanitizerError(
                message,
                code=code,
                hint="two code paths take these locks in opposite orders; "
                "pick one order and stick to it (see docs/SANITIZER.md)",
            )


class TrackedLock:
    """A ``Lock``/``RLock`` façade that reports acquisitions to the registry.

    Created by :func:`registered_lock`; behaves exactly like the wrapped
    primitive (context manager, ``acquire(blocking, timeout)``,
    ``locked()``). When no registry is active the per-operation cost is
    one module-global load and a ``None`` check.
    """

    __slots__ = ("_inner", "name")

    def __init__(self, inner: Any, name: str) -> None:
        self._inner = inner
        self.name = name

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            registry = _ACTIVE_REGISTRY
            if registry is not None:
                registry.acquired(self)
        return acquired

    def release(self) -> None:
        registry = _ACTIVE_REGISTRY
        if registry is not None:
            registry.released(self)
        self._inner.release()

    def locked(self) -> bool:
        return bool(self._inner.locked())

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TrackedLock({self.name!r})"


#: The process-wide active registry; None keeps TrackedLock at its cheap
#: fast path. Installed by enable_lock_tracking() (idempotent) when a
#: sanitizing session plans its first query, or scoped via lock_tracking().
_ACTIVE_REGISTRY: LockRegistry | None = None


def lock_registry() -> LockRegistry | None:
    """The active registry, or None when lock tracking is off."""
    return _ACTIVE_REGISTRY


def enable_lock_tracking() -> LockRegistry:
    """Install (or return) the process-wide lock registry."""
    global _ACTIVE_REGISTRY
    if _ACTIVE_REGISTRY is None:
        _ACTIVE_REGISTRY = LockRegistry()
    return _ACTIVE_REGISTRY


class lock_tracking:
    """Context manager installing a fresh registry (tests use this).

    Restores the previous registry (possibly None) on exit, so a test
    asserting on one query's acquisition graph does not see edges from
    the rest of the suite.
    """

    def __init__(self) -> None:
        self.registry = LockRegistry()
        self._previous: LockRegistry | None = None

    def __enter__(self) -> LockRegistry:
        global _ACTIVE_REGISTRY
        self._previous = _ACTIVE_REGISTRY
        _ACTIVE_REGISTRY = self.registry
        return self.registry

    def __exit__(self, *exc: Any) -> None:
        global _ACTIVE_REGISTRY
        _ACTIVE_REGISTRY = self._previous


def registered_lock(name: str, *, rlock: bool = False) -> TrackedLock:
    """An engine lock registered with the lock-order detector.

    Every ``threading.Lock()`` / ``RLock()`` in engine code must be
    created through this helper (the engine-source lint enforces it).
    The wrapper is always returned — tracking activates lazily when a
    registry is installed, so locks created before ``--sanitize`` was
    seen still participate.
    """
    lock = TrackedLock(
        threading.RLock() if rlock else threading.Lock(), name
    )
    registry = _ACTIVE_REGISTRY
    if registry is not None:
        registry.register(lock)
    return lock


# ---------------------------------------------------------------------------
# The per-plan sanitizer context
# ---------------------------------------------------------------------------


class Sanitizer:
    """Shared checking state for one physical plan.

    One instance is created at plan time (``Planner._make_sanitizer``)
    and shared by every :class:`SanitizeOperator` the planner installs
    and the executor (for the close-time reconciliation).
    """

    def __init__(self, clock: Any = None) -> None:
        self.clock = clock
        self.lock_registry = enable_lock_tracking()
        #: Wrappers installed under this sanitizer (off-mode asserts zero).
        self.wrappers = 0

    # -- violation plumbing ----------------------------------------------------

    def violation(
        self,
        code: str,
        message: str,
        *,
        operator: str | None = None,
        lane: str | None = None,
        hint: str | None = None,
        tracer: Any = None,
        batch_seq: int | None = None,
    ) -> SanitizerError:
        """Build (and trace) a structured violation.

        When the plan has a tracer the violation is recorded as an
        instant ``sanitizer`` span on the offending operator's lane, and
        the span rides on the raised error — the "offending operator's
        trace span" part of the TQL9xx contract.
        """
        where = operator or "query"
        if lane:
            where = f"{where}[{lane}]"
        full = f"{code}: {message} (at {where})"
        span = None
        if tracer is not None:
            span = tracer.instant(
                f"violation:{code}", "sanitizer", lane=lane or "main",
                code=code, operator=operator or "", message=message,
            )
        if hint is None:
            hint = (
                "re-run with TWEEQL_SAN=1 and EngineConfig.tracing=True to "
                "capture the full span context"
            )
        error = SanitizerError(
            full, code=code, operator=operator, lane=lane, hint=hint,
            span=span, batch_seq=batch_seq,
        )
        error.diagnostic = _diagnostic_for(error)
        return error

    # -- close-time checks ------------------------------------------------------

    def at_close(self, handle: Any, exhausted: bool) -> None:
        """Mandatory end-of-query checks (called by ``QueryHandle``).

        Lock-order cycles always raise. The probe/stats reconciliation
        runs only when the stream was drained to punctuation — a query
        abandoned mid-stream (LIMIT on an unbounded source,
        ``handle.close()``) legitimately leaves probes ahead of the
        counters.
        """
        self.lock_registry.check()
        if not exhausted:
            return
        tracer = getattr(handle, "tracer", None)
        if tracer is None or not tracer.probes:
            return
        from repro.obs.analyze import reconcile

        report = reconcile(handle)
        if not report["ok"]:
            raise self.violation(
                "TQL907",
                "trace probes disagree with the engine's own counters: "
                f"scan_rows={report['scan_rows']} vs "
                f"rows_scanned={report['rows_scanned']}, "
                f"emitted_rows={report['emitted_rows']} vs "
                f"rows_emitted={report['rows_emitted']}",
                tracer=tracer,
                hint="a stage is dropping, duplicating, or double-counting "
                "rows; EXPLAIN ANALYZE shows the per-operator census",
            )


def _diagnostic_for(error: SanitizerError) -> Any:
    """A Diagnostic mirroring the error, for uniform --format=json output."""
    from repro.sql.analysis.diagnostics import Diagnostic, Severity

    return Diagnostic(
        code=error.code or "TQL900",
        severity=Severity.ERROR,
        message=str(error),
        hint=error.hint,
        payload={
            "operator": error.operator,
            "lane": error.lane,
            "batch_seq": error.batch_seq,
        },
    )


# ---------------------------------------------------------------------------
# The operator-boundary wrapper
# ---------------------------------------------------------------------------

#: QueryStats counters the sanitizer requires to be monotonic.
_MONOTONIC_COUNTERS = tuple(QueryStats().as_dict())


class SanitizeOperator:
    """Checks every batch crossing one operator boundary.

    Installed innermost (under the TraceOperator, when both are on) so it
    observes exactly what the wrapped stage produced. Transparent to the
    data — batches pass through untouched — so sanitized and unsanitized
    runs are row-for-row identical; the only behavioral difference is one
    extra ``next()`` probe after the ``last`` batch, proving the producer
    really stopped.
    """

    def __init__(
        self,
        child: Iterable[ColumnBatch],
        sanitizer: Sanitizer,
        *,
        name: str,
        lane: str = "main",
        stats: QueryStats | None = None,
        tracer: Any = None,
    ) -> None:
        self._child = child
        self._san = sanitizer
        self._name = name
        self._lane = lane
        self._stats = stats
        self._tracer = tracer
        #: The single thread allowed to drive this stage (bound on first
        #: pull); a second thread pulling the same stage is TQL911.
        self._thread: int | None = None
        sanitizer.wrappers += 1

    def _fail(
        self, code: str, message: str,
        batch: ColumnBatch | None = None, hint: str | None = None,
    ) -> None:
        raise self._san.violation(
            code, message, operator=self._name, lane=self._lane,
            hint=hint, tracer=self._tracer,
            batch_seq=None if batch is None else batch.seq,
        )

    # -- per-batch checks ------------------------------------------------------

    def _check_ownership(self) -> None:
        ident = threading.get_ident()
        if self._thread is None:
            self._thread = ident
        elif self._thread != ident:
            self._fail(
                "TQL911",
                "stage driven from two threads (batch ownership violation): "
                f"bound to thread {self._thread}, pulled from {ident}",
                hint="each lane's pipeline belongs to exactly one thread, "
                "and one shared-scan group's handles are pulled from one "
                "thread",
            )

    def _check_seq(self, batch: ColumnBatch, prev_seq: int | None) -> None:
        if not isinstance(batch.seq, int):
            self._fail(
                "TQL901",
                f"batch seq must be an int, got {type(batch.seq).__name__}",
                batch,
            )
        if prev_seq is not None and batch.seq <= prev_seq:
            self._fail(
                "TQL901",
                f"seq regression: batch seq {batch.seq} after {prev_seq} "
                "(must be strictly increasing per producer)",
                batch,
            )

    def _check_stats(self, previous: dict[str, int] | None) -> dict[str, int]:
        stats = self._stats
        if stats is None:
            return {}
        snapshot = stats.as_dict()
        if previous:
            for counter in _MONOTONIC_COUNTERS:
                if snapshot[counter] < previous[counter]:
                    self._fail(
                        "TQL906",
                        f"stats counter regression: {counter} went "
                        f"{previous[counter]} -> {snapshot[counter]}",
                        hint="QueryStats counters are append-only; "
                        "something reset or overwrote a live counter",
                    )
        return snapshot

    def _check_payload(self, batch: ColumnBatch) -> None:
        length = batch.length
        if length < 0:
            self._fail("TQL903", f"negative batch length {length}", batch)
        backing = batch._rows
        tweets = batch._tweets
        if tweets is not None:
            self._check_tweets(batch, tweets)
        elif batch._lazy and backing is None:
            self._fail(
                "TQL903", "lazy ColumnBatch lost its backing row list", batch
            )
        if backing is not None and not isinstance(backing, list):
            self._fail(
                "TQL903",
                "backing rows must be a list, got "
                f"{type(backing).__name__}",
                batch,
            )
        if backing is not None and len(backing) != length:
            self._fail(
                "TQL903",
                f"row/column length mismatch: {len(backing)} backing rows "
                f"vs declared length {length}",
                batch,
            )
        absent = batch._absent or ()
        for name, column in batch.columns.items():
            if len(column) != length:
                self._fail(
                    "TQL903",
                    f"column {name!r} has {len(column)} cells but the "
                    f"batch declares {length} rows",
                    batch,
                )
            if name in absent and any(v is not MISSING for v in column):
                self._fail(
                    "TQL903",
                    f"stale negative-probe cache: {name!r} is marked "
                    "absent but a materialized column has real cells",
                    batch,
                    hint="the _absent set may only name fields no row "
                    "carries; it must be invalidated on materialization",
                )
        if backing is not None:
            self._check_rows(batch, backing)

    def _check_tweets(self, batch: ColumnBatch, tweets: Any) -> None:
        """A tweet-backed batch's backing: a list of ``Tweet``s, one per
        row. (Its row dicts, once built, are checked like any others.)"""
        if not isinstance(tweets, list):
            self._fail(
                "TQL903",
                "backing tweets must be a list, got "
                f"{type(tweets).__name__}",
                batch,
            )
        if len(tweets) != batch.length:
            self._fail(
                "TQL903",
                f"tweet/row length mismatch: {len(tweets)} backing tweets "
                f"vs declared length {batch.length}",
                batch,
            )
        for index, tweet in enumerate(tweets):
            if not isinstance(tweet, Tweet):
                self._fail(
                    "TQL903",
                    f"backing tweet {index} is a {type(tweet).__name__}, "
                    "not a Tweet",
                    batch,
                )

    def _check_rows(self, batch: ColumnBatch, rows: list[Row]) -> None:
        for index, row in enumerate(rows):
            if not isinstance(row, dict):
                self._fail(
                    "TQL903",
                    f"row {index} is a {type(row).__name__}, not a dict",
                    batch,
                )
            for key, value in row.items():
                if value is MISSING:
                    self._fail(
                        "TQL904",
                        f"MISSING sentinel leaked into row {index} "
                        f"field {key!r}",
                        batch,
                        hint="MISSING is a column-layout cell marker; "
                        "to_rows() must omit such cells, never emit them",
                    )

    # -- the wrapper -----------------------------------------------------------

    def __iter__(self) -> Iterator[ColumnBatch]:
        child = iter(self._child)
        prev_seq: int | None = None
        stats_snapshot: dict[str, int] | None = None
        while True:
            batch = next(child, None)
            self._check_ownership()
            if batch is None:
                self._fail(
                    "TQL902",
                    "stream ended without last=True punctuation",
                    hint="every producer must terminate with exactly one "
                    "last batch (possibly empty)",
                )
                return  # pragma: no cover - _fail always raises
            self._check_seq(batch, prev_seq)
            prev_seq = batch.seq
            self._check_payload(batch)
            stats_snapshot = self._check_stats(stats_snapshot)
            if batch.last:
                # Exactly-once / never-after-last: the producer must now
                # be exhausted. One extra probe proves it (and is the only
                # place the sanitizer pulls harder than a real consumer).
                extra = next(child, None)
                if extra is not None:
                    self._fail(
                        "TQL902",
                        f"batch seq {extra.seq} produced after last=True "
                        f"punctuation (seq {batch.seq})",
                        extra,
                    )
                yield batch
                return
            yield batch
