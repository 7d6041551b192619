"""TQLSAN — the engine's runtime invariant sanitizer.

The engine's correctness rests on a small set of protocol invariants that
are easy to state and easy to break silently: every producer punctuates
with exactly one ``last=True`` batch and nothing after it, ColumnBatches
stay coherent (column lengths agree, the ``MISSING`` sentinel never leaks
into row dicts, negative-probe caches never go stale), one pipeline stage
is driven from one thread, stats counters only grow, and the trace probes
reconcile with the engine's own counters at close. The equivalence sweeps
pin these only indirectly; this module checks them *directly*,
TSAN-style, at every operator boundary.

Two cooperating pieces:

- :class:`SanitizeOperator` — a pipeline wrapper the planner installs at
  every stage boundary when ``EngineConfig.sanitize`` (or ``TWEEQL_SAN=1``
  in the environment, or ``tweeql --sanitize``) is on. Mirrors the
  ``TraceOperator`` pattern: when off, the planner adds **zero** wrappers
  and the hot path is byte-identical to an unsanitized build.
- :class:`Sanitizer` — the per-plan checking context: it runs the
  mandatory ``reconcile()`` cross-check at query close and turns
  violations into structured :class:`~repro.errors.SanitizerError`
  records.

Violation codes (catalogued in ``docs/ANALYSIS.md`` and
``docs/SANITIZER.md``):

======= ====================================================================
TQL902  punctuation protocol: batch after ``last=True`` / stream ended
        without punctuation
TQL903  ColumnBatch incoherence (column/row length mismatch, stale
        negative-probe cache, a tweet backing that is not a list of one
        ``Tweet`` per row)
TQL904  ``MISSING`` sentinel leaked into a materialized row dict
TQL906  stats counter regression (a ``QueryStats`` counter decreased)
TQL907  trace/stats reconciliation failed at query close
TQL911  batch ownership violation (one pipeline stage driven from two
        threads)
======= ====================================================================

TQL901, TQL905 and TQL910 are retired and not reused.

Everything here is deterministic: violation messages carry stable
operator/lane labels, so a sanitized CI lane can golden-match its output.
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
    "SanitizeOperator",
    "Sanitizer",
    "sanitize_env_enabled",
]


def sanitize_env_enabled() -> bool:
    """True when ``TWEEQL_SAN`` asks for sanitized execution."""
    return os.environ.get("TWEEQL_SAN", "").strip().lower() in (
        "1", "true", "on", "yes",
    )


# ---------------------------------------------------------------------------
# The per-plan sanitizer context
# ---------------------------------------------------------------------------


class Sanitizer:
    """Shared checking state for one physical plan.

    One instance is created at plan time (``Planner.scan``)
    and shared by every :class:`SanitizeOperator` the planner installs
    and the executor (for the close-time reconciliation).
    """

    def __init__(self, clock: Any = None) -> None:
        self.clock = clock
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
            span=span,
        )
        error.diagnostic = _diagnostic_for(error)
        return error

    # -- close-time checks ------------------------------------------------------

    def at_close(self, handle: Any, exhausted: bool) -> None:
        """Mandatory end-of-query checks (called by ``QueryHandle``).

        The probe/stats reconciliation runs only when the stream was
        drained to punctuation — a query abandoned mid-stream (LIMIT on
        an unbounded source, ``handle.close()``) legitimately leaves
        probes ahead of the counters.
        """
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
        payload={"operator": error.operator, "lane": error.lane},
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

    def _fail(self, code: str, message: str, hint: str | None = None) -> None:
        raise self._san.violation(
            code, message, operator=self._name, lane=self._lane,
            hint=hint, tracer=self._tracer,
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
        backing = batch._rows
        if batch._tweets is not None:
            self._check_tweets(batch._tweets, length)
        if backing is not None and not isinstance(backing, list):
            self._fail(
                "TQL903",
                f"backing rows must be a list, got {type(backing).__name__}",
            )
        if backing is not None and len(backing) != length:
            self._fail(
                "TQL903",
                f"row/column length mismatch: {len(backing)} backing rows "
                f"vs declared length {length}",
            )
        absent = batch._absent or ()
        for name, column in batch.columns.items():
            if len(column) != length:
                self._fail(
                    "TQL903",
                    f"column {name!r} has {len(column)} cells but the "
                    f"batch declares {length} rows",
                )
            if name in absent and any(v is not MISSING for v in column):
                self._fail(
                    "TQL903",
                    f"stale negative-probe cache: {name!r} is marked "
                    "absent but a materialized column has real cells",
                    hint="the _absent set may only name fields no row "
                    "carries; it must be invalidated on materialization",
                )
        if backing is not None:
            self._check_rows(backing)

    def _check_tweets(self, tweets: Any, length: int) -> None:
        """A tweet-backed batch's backing: a list of ``Tweet``s, one per
        row. (Its row dicts, once built, are checked like any others.)"""
        if not isinstance(tweets, list):
            self._fail(
                "TQL903",
                f"backing tweets must be a list, got {type(tweets).__name__}",
            )
        if len(tweets) != length:
            self._fail(
                "TQL903",
                f"tweet/row length mismatch: {len(tweets)} backing tweets "
                f"vs declared length {length}",
            )
        for index, tweet in enumerate(tweets):
            if not isinstance(tweet, Tweet):
                self._fail(
                    "TQL903",
                    f"backing tweet {index} is a {type(tweet).__name__}, "
                    "not a Tweet",
                )

    def _check_rows(self, rows: list[Row]) -> None:
        for index, row in enumerate(rows):
            if not isinstance(row, dict):
                self._fail(
                    "TQL903",
                    f"row {index} is a {type(row).__name__}, not a dict",
                )
            for key, value in row.items():
                if value is MISSING:
                    self._fail(
                        "TQL904",
                        f"MISSING sentinel leaked into row {index} "
                        f"field {key!r}",
                        hint="MISSING is a column-layout cell marker; "
                        "to_rows() must omit such cells, never emit them",
                    )

    # -- the wrapper -----------------------------------------------------------

    def __iter__(self) -> Iterator[ColumnBatch]:
        child = iter(self._child)
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
                        f"a {extra.length}-row batch produced after "
                        "last=True punctuation",
                    )
                yield batch
                return
            yield batch
