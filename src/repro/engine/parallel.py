"""Sharded parallel query execution.

The serial engine runs one pull-based batch pipeline per query. This module
adds the ``workers=N`` path: an **exchange** hash-partitions the source
stream across N worker pipelines running in a thread pool, and a
timestamp-ordered **k-way merge** reassembles shard outputs into exactly
the row sequence the serial engine would have produced. Rows cross every
thread boundary in whole batches — the exchange routes one source
:class:`~repro.engine.types.ColumnBatch` per lock acquisition and ships
routed row-lists per queue operation, and workers ship tagged output
batches back — so queue and lock traffic is per batch, not per row.

Determinism contract
--------------------
Results must be *byte-identical* to the serial engine, order included,
under the virtual clock. Three mechanisms make that hold:

- The exchange stamps every routed row with a global sequence number
  (``__seq__``), strictly increasing in stream order. Scalar pipelines
  propagate it through projection; the merge orders by it, which *is*
  stream order.
- Aggregating pipelines partition by the GROUP BY key, so a group lives
  entirely in one shard and its accumulators see exactly the rows the
  serial engine's would. Emissions are tagged ``(window_end,
  window_start, first-seen seq of the group)`` — the serial engine closes
  windows in increasing end order and emits groups in first-seen order,
  so merging on that tag reproduces its sequence. Per-window ORDER BY /
  LIMIT cannot run shard-locally and are deferred to a post-merge
  finalizer that applies the same sort the serial operator would.
- Confidence-triggered aggregation emits on *triggers* (the row whose
  arrival aged-out or confirmed a group). The exchange runs the WHERE
  stage itself and broadcasts a punctuation carrying each post-filter
  row's timestamp to every other shard, so age-based flushes fire at the
  same triggers as in the serial engine; emissions are tagged with the
  trigger's sequence number.

Thread safety: the virtual clock, the simulated web services, and the
:class:`~repro.engine.latency.ManagedCall` wrappers are single-threaded
constructs. Workers reach them only through :class:`ManagedCallProxy`
objects sharing one lock, which also collect per-shard
:class:`~repro.engine.latency.ManagedCallStats`. Row *values* remain
deterministic because the service resolvers are pure; only latency
accounting depends on thread scheduling.

Known limits (the planner falls back to serial for these): joins,
count-based windows, global aggregates (single group), and statements
calling stateful UDFs or ``now()`` — all of which depend on global row
order that sharding destroys.
"""

from __future__ import annotations

import contextlib
import dataclasses
import queue
import threading
import zlib
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro.engine.latency import ManagedCall, ManagedCallStats
from repro.engine.operators import _sort_key
from repro.engine.sanitizer import registered_lock
from repro.engine.types import (
    DEFAULT_BATCH_SIZE,
    ColumnBatch,
    EvalContext,
    Row,
    batch_rows,
)

#: Queue poll interval; every blocking loop re-checks the stop event at
#: this granularity so shutdown is prompt.
_POLL_SECONDS = 0.05

_END = object()


def stable_hash(value: Any) -> int:
    """Process-stable hash for partition keys.

    Python's builtin ``hash`` is salted for strings, so two runs (or the
    equivalence test's serial/sharded sessions under different
    PYTHONHASHSEED) would partition differently. CRC32 over ``repr`` is
    stable, cheap, and defined for every value a group key can hold.
    """
    return zlib.crc32(repr(value).encode("utf-8", "backslashreplace"))


# ---------------------------------------------------------------------------
# Service proxies
# ---------------------------------------------------------------------------


_MANAGED_FIELDS = tuple(f.name for f in dataclasses.fields(ManagedCallStats))


class ManagedCallProxy:
    """A per-stage view of a shared :class:`ManagedCall`.

    The proxy's own ``stats`` mirror accumulates the *delta* each
    forwarded operation produced, giving per-stage ManagedCallStats on top
    of the service's global counters. With a ``lock``, every forwarded
    operation holds it: the ``workers=N`` shards call services from pool
    threads (sharing the lock with the exchange's source pulls), and the
    underlying call advances the virtual clock and mutates its cache.
    Single-threaded callers (the shared scan) pass none.
    """

    def __init__(self, inner: ManagedCall, lock: Any = None) -> None:
        self._inner = inner
        self._lock = contextlib.nullcontext() if lock is None else lock
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
        with self._lock:
            before = self._snapshot()
            try:
                return self._inner(key)
            finally:
                self._accumulate(before)

    def prefetch(self, keys: Iterable[Any]) -> None:
        keys = list(keys)
        with self._lock:
            before = self._snapshot()
            try:
                self._inner.prefetch(keys)
            finally:
                self._accumulate(before)

    def drain(self) -> None:
        with self._lock:
            self._inner.drain()


def proxy_services(
    services: dict[str, Any],
    make_proxy: Callable[[ManagedCall], ManagedCallProxy] = ManagedCallProxy,
) -> tuple[dict[str, Any], dict[str, ManagedCallStats]]:
    """Wrap every ManagedCall in ``services`` with a ``make_proxy`` proxy.

    Returns the proxied mapping plus {service name → per-stage stats
    mirror}. Aliases of one ManagedCall (``geocode`` / ``geocode_managed``)
    share one proxy so the mirror is not double-counted.
    """
    proxies: dict[str, Any] = {}
    by_id: dict[int, ManagedCallProxy] = {}
    stats: dict[str, ManagedCallStats] = {}
    for name, svc in services.items():
        if isinstance(svc, ManagedCall):
            proxy = by_id.get(id(svc))
            if proxy is None:
                proxy = make_proxy(svc)
                by_id[id(svc)] = proxy
                stats[svc.service.name] = proxy.stats
            proxies[name] = proxy
        else:
            proxies[name] = svc
    return proxies, stats


# ---------------------------------------------------------------------------
# Output taggers (worker side): strip ordering metadata into a merge tag
# ---------------------------------------------------------------------------


def scalar_tagger(row: Row) -> tuple[tuple, Row]:
    """Scalar pipelines: merge on the source row's global sequence."""
    return (row.pop("__seq__"),), row


def window_tagger(row: Row) -> tuple[tuple, Row]:
    """Windowed aggregates: (window end, window start, group-first-seen)."""
    seq = row.pop("__seq__")
    return (row["window_end"], row["window_start"], seq), row


def confidence_tagger(row: Row) -> tuple[tuple, Row]:
    """Confidence emissions carry their full order tag (see confidence.py)."""
    return row.pop("__order__"), row


# ---------------------------------------------------------------------------
# Worker-side stages
# ---------------------------------------------------------------------------


class ShardScan:
    """Worker-side source adapter over a shard's input queue.

    Wraps each routed row-list the exchange shipped into a rows-backed
    :class:`~repro.engine.types.ColumnBatch` (columns transpose on the
    worker's side of the queue) and advances the worker context's stream
    time like a ScanOperator, but does *not* count ``rows_scanned`` — the
    exchange's scan already counted every source row once, matching the
    serial engine's counter. A final empty ``last`` batch punctuates end
    of input.
    """

    def __init__(self, source: Iterable[list[Row]], ctx: EvalContext) -> None:
        self._source = source
        self._ctx = ctx

    def __iter__(self) -> Iterator[ColumnBatch]:
        ctx = self._ctx
        seq = 0
        for rows in self._source:
            batch = ColumnBatch.from_rows(rows, seq)
            ctx.advance_to(batch)
            yield batch
            seq += 1
        yield ColumnBatch.from_rows([], seq, last=True)


@dataclasses.dataclass
class DeferredOrderLimit:
    """Per-window ORDER BY / LIMIT stripped from shard-local aggregation.

    A worker only holds a slice of each window's groups, so ordering and
    capping move to :class:`WindowFinalizeOperator` after the merge. The
    planner fills this while building the worker pipelines.
    """

    order_evals: list[tuple[Callable, bool]] = dataclasses.field(
        default_factory=list
    )
    limit: int | None = None


# ---------------------------------------------------------------------------
# Post-merge stages
# ---------------------------------------------------------------------------


class WindowFinalizeOperator:
    """Applies per-window ORDER BY / LIMIT after the merge.

    Workers cannot order or cap a window they only hold a slice of, so the
    sharded planner strips both from the per-shard aggregate operators and
    re-applies them here, over the merged stream, with exactly the serial
    operator's stable sort and NULL ordering. The merged stream arrives
    grouped by window (the merge orders on window bounds), so one bucket
    is buffered at a time.
    """

    def __init__(
        self,
        child: Iterable[ColumnBatch],
        order_by: list[tuple[Callable, bool]],
        limit: int | None,
        ctx: EvalContext,
    ) -> None:
        self._child = child
        self._order_by = order_by
        self._limit = limit
        self._ctx = ctx

    def __iter__(self) -> Iterator[ColumnBatch]:
        bucket: list[Row] = []
        current: tuple | None = None
        seq = 0
        for batch in self._child:
            finalized: list[Row] = []
            for row in batch.rows:
                bounds = (row.get("window_end"), row.get("window_start"))
                if current is not None and bounds != current:
                    finalized.extend(self._flush(bucket))
                    bucket = []
                current = bounds
                bucket.append(row)
            if finalized:
                yield ColumnBatch.from_rows(finalized, seq)
                seq += 1
            if batch.last:
                break
        yield ColumnBatch.from_rows(list(self._flush(bucket)), seq, last=True)

    def _flush(self, bucket: list[Row]) -> list[Row]:
        for evaluate, descending in reversed(self._order_by):
            bucket.sort(
                key=lambda r, e=evaluate: _sort_key(e(r, self._ctx)),
                reverse=descending,
            )
        if self._limit is not None:
            bucket = bucket[: self._limit]
        return bucket


class CountingOperator:
    """Counts merged output rows into the merge context's stats.

    Per-shard ``rows_emitted`` counters over-count when a per-worker or
    per-window LIMIT trims rows at the merge, so the aggregated stats take
    ``rows_emitted`` from this counter instead of the shard sum.
    """

    def __init__(self, child: Iterable[ColumnBatch], ctx: EvalContext) -> None:
        self._child = child
        self._ctx = ctx

    def __iter__(self) -> Iterator[ColumnBatch]:
        stats = self._ctx.stats
        for batch in self._child:
            stats.rows_emitted += len(batch.rows)
            yield batch
            if batch.last:
                return


# ---------------------------------------------------------------------------
# The execution fabric: exchange thread, worker threads, merging consumer
# ---------------------------------------------------------------------------


class _ShardInput:
    """Iterable of routed row-lists a worker's ShardScan pulls; fed by the
    exchange. Each item is one whole exchange batch — queue traffic is per
    batch, not per row."""

    def __init__(
        self,
        q: queue.Queue,
        stop: threading.Event,
        sanitizer: Any = None,
        shard: int = 0,
    ) -> None:
        self._q = q
        self._stop = stop
        self._sanitizer = sanitizer
        self._shard = shard

    def __iter__(self) -> Iterator[list[Row]]:
        sanitizer = self._sanitizer
        while True:
            try:
                batch = self._q.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                if self._stop.is_set():
                    return
                continue
            if batch is None:  # sentinel: source exhausted
                return
            if sanitizer is not None:
                sanitizer.handoff.verify(self._shard, batch)
            yield batch


class ShardedExecution:
    """Runs N worker pipelines over a hash-partitioned stream.

    Lifecycle: the planner constructs it, builds the worker pipelines over
    :meth:`shard_input` iterables, then calls :meth:`configure`. Threads
    start lazily on the first pull of :meth:`merged` (planning/EXPLAIN must
    not spawn threads). :meth:`shutdown` is idempotent and joins every
    thread; the merge generator invokes it from its ``finally`` so natural
    exhaustion, an abandoned iterator (GC), and ``QueryHandle.close`` all
    tear the fabric down.

    Queues: worker inputs are bounded (backpressure on the exchange);
    worker outputs are unbounded — a worker never blocks on output, so it
    always drains its input, so the exchange always makes progress, so the
    merge (which may wait a long time on a sparse shard) cannot deadlock
    the pipeline. The cost is buffering fast shards' results while a slow
    shard catches up.
    """

    def __init__(
        self,
        n_workers: int,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        if n_workers < 2:
            raise ValueError("sharded execution needs at least 2 workers")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.n = n_workers
        self.lock = registered_lock("sharded.services", rlock=True)
        self.stop = threading.Event()
        self._in = [queue.Queue(maxsize=64) for _ in range(n_workers)]
        self._out = [queue.Queue() for _ in range(n_workers)]
        self._done = [threading.Event() for _ in range(n_workers)]
        self._batch = batch_size
        #: Per-shard tagged rows already pulled off the output queue but not
        #: yet consumed by the merge heap (workers ship whole batches).
        self._pending: list[list[tuple[tuple, Row]]] = [
            [] for _ in range(n_workers)
        ]
        self._pending_pos = [0] * n_workers
        self._error: BaseException | None = None
        self._error_lock = registered_lock("sharded.error")
        self._pool: ThreadPoolExecutor | None = None
        self._started = False
        self._closed = False
        #: Span recorder (set by the planner when tracing is on); the
        #: exchange thread emits one ``route`` marker per source batch.
        self.tracer: Any = None
        #: Invariant checker (set by the planner when sanitize mode is
        #: on); the exchange fingerprints each routed row-list at enqueue
        #: and the worker-side ShardScan input verifies it at dequeue
        #: (TQL905).
        self.sanitizer: Any = None
        # Filled by configure():
        self._source: Iterable[ColumnBatch] | None = None
        self._partition: Callable[[Row, int], int] | None = None
        self._pipelines: list[Iterable[ColumnBatch]] = []
        self._taggers: list[Callable[[Row], tuple[tuple, Row]]] = []
        self._broadcast_punctuation = False

    # -- wiring ----------------------------------------------------------------

    def shard_input(self, worker: int) -> _ShardInput:
        """The row iterable worker ``worker``'s pipeline scans."""
        return _ShardInput(self._in[worker], self.stop, self.sanitizer, worker)

    def configure(
        self,
        source: Iterable[ColumnBatch],
        partition: Callable[[Row, int], int],
        pipelines: list[Iterable[ColumnBatch]],
        taggers: list[Callable[[Row], tuple[tuple, Row]]],
        broadcast_punctuation: bool = False,
    ) -> None:
        """Attach the source, partitioner, and built worker pipelines."""
        self._source = source
        self._partition = partition
        self._pipelines = pipelines
        self._taggers = taggers
        self._broadcast_punctuation = broadcast_punctuation

    # -- threads ---------------------------------------------------------------

    def _record_error(self, error: BaseException) -> None:
        with self._error_lock:
            if self._error is None:
                self._error = error
        self.stop.set()

    def _raise_if_error(self) -> None:
        with self._error_lock:
            error = self._error
        if error is not None:
            self.stop.set()
            raise error

    def _exchange(self) -> None:
        """Producer: pull source batches, partition their rows, and route.

        Whole batches move under one lock acquisition and whole routed
        row-lists move per queue operation — the synchronization cost is
        per batch, not per row.
        """
        assert self._source is not None and self._partition is not None
        partition = self._partition
        broadcast = self._broadcast_punctuation
        pending: list[list[Row]] = [[] for _ in range(self.n)]
        try:
            iterator = iter(self._source)
            seq = 0
            while True:
                if self.stop.is_set():
                    return  # cancelled: no sentinels, workers see stop
                if all(done.is_set() for done in self._done):
                    break
                # Source pulls share the service lock: the stream advances
                # the virtual clock, and so do worker service calls.
                with self.lock:
                    batch = next(iterator, _END)
                if batch is _END:
                    break
                if self.tracer is not None:
                    self.tracer.instant(
                        "route", "exchange", lane="exchange",
                        seq=batch.seq, rows=len(batch.rows), last=batch.last,
                    )
                for row in batch.rows:
                    shard = partition(row, seq)
                    tagged = dict(row)  # never mutate caller-owned row dicts
                    tagged["__seq__"] = seq
                    pending[shard].append(tagged)
                    if broadcast:
                        timestamp = row.get("created_at")
                        for other in range(self.n):
                            if other != shard:
                                pending[other].append(
                                    {
                                        "__punct__": True,
                                        "created_at": timestamp,
                                        "__seq__": seq,
                                    }
                                )
                    seq += 1
                for shard_id, routed in enumerate(pending):
                    if len(routed) >= self._batch:
                        self._put_batch(shard_id, routed)
                        pending[shard_id] = []
                if batch.last:
                    break
        except BaseException as error:  # noqa: BLE001 — surfaced at the merge
            self._record_error(error)
            return
        finally:
            if not self.stop.is_set():
                for shard_id, routed in enumerate(pending):
                    if routed:
                        self._put_batch(shard_id, routed)
                    self._put_batch(shard_id, None)

    def _put_batch(self, shard: int, batch: list[Row] | None) -> None:
        if batch is not None and self.sanitizer is not None:
            # Freeze-on-handoff: fingerprint the routed payload before it
            # becomes visible to the worker; the worker-side _ShardInput
            # re-fingerprints at dequeue and raises TQL905 on mismatch.
            self.sanitizer.handoff.seal(shard, batch)
        while not self.stop.is_set():
            if batch is not None and self._done[shard].is_set():
                return  # worker finished early (LIMIT); drop its feed
            try:
                self._in[shard].put(batch, timeout=_POLL_SECONDS)
                return
            except queue.Full:
                continue

    def _worker(self, worker: int) -> None:
        tagger = self._taggers[worker]
        out = self._out[worker]
        try:
            for batch in self._pipelines[worker]:
                if batch.rows:
                    # Ship the whole tagged batch as one queue item.
                    out.put(("rows", [tagger(row) for row in batch.rows]))
                if batch.last:
                    break
        except BaseException as error:  # noqa: BLE001
            self._record_error(error)
        finally:
            self._done[worker].set()
            out.put(("end",))

    def start(self) -> None:
        """Spawn the exchange and the workers (idempotent)."""
        if self._started:
            return
        self._started = True
        self._pool = ThreadPoolExecutor(
            max_workers=self.n + 1, thread_name_prefix="tweeql-shard"
        )
        self._pool.submit(self._exchange)
        for worker in range(self.n):
            self._pool.submit(self._worker, worker)

    def shutdown(self) -> None:
        """Stop every thread and join them (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.stop.set()
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    # -- consumer --------------------------------------------------------------

    def merged(self) -> Iterator[ColumnBatch]:
        """The k-way ordered merge of shard outputs (lazy thread start).

        Consumes whole tagged batches from the worker output queues,
        feeds the heap row by row (ordering is per row), and re-chunks
        the merged sequence into output batches.
        """
        try:
            yield from batch_rows(self._merged_rows(), self._batch)
        finally:
            self.shutdown()

    def _merged_rows(self) -> Iterator[Row]:
        import heapq

        self.start()
        heap: list[tuple[tuple, int, Row]] = []
        for shard in range(self.n):
            entry = self._next_output(shard)
            if entry is not None:
                heapq.heappush(heap, entry)
        while heap:
            _tag, shard, row = heapq.heappop(heap)
            yield row
            entry = self._next_output(shard)
            if entry is not None:
                heapq.heappush(heap, entry)
        self._raise_if_error()

    def _next_output(self, shard: int) -> tuple[tuple, int, Row] | None:
        pending = self._pending[shard]
        position = self._pending_pos[shard]
        if position < len(pending):
            tag, row = pending[position]
            self._pending_pos[shard] = position + 1
            return (tag, shard, row)
        while True:
            self._raise_if_error()
            try:
                item = self._out[shard].get(timeout=_POLL_SECONDS)
            except queue.Empty:
                if self.stop.is_set():
                    return None
                continue
            if item[0] == "end":
                return None
            rows = item[1]
            if not rows:
                continue
            self._pending[shard] = rows
            self._pending_pos[shard] = 1
            tag, row = rows[0]
            return (tag, shard, row)
