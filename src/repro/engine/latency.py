"""High-latency operator machinery.

The paper: web-service UDF requests "optimistically take hundreds of
milliseconds apiece, but incur little processing cost on behalf of the
query processor … We employ caching to avoid requests, and batching when an
API allows multiple simultaneous requests", and points to asynchronous
iteration (Goldman & Widom's WSQ/DSQ) as the design for overlapping
necessary requests with stream processing.

:class:`ManagedCall` wraps one :class:`~repro.geo.service.SimulatedWebService`
with all three techniques, selected by mode:

- ``blocking`` — the naive baseline: one synchronous round trip per call.
- ``cached``   — an LRU (optionally TTL) cache in front of blocking calls;
  repeated keys (Zipf-distributed profile locations!) skip the trip.
- ``batched``  — cache plus batch round trips that resolve many pending
  keys at once.
- ``async``    — cache plus a bounded pool of in-flight asynchronous
  requests; launched keys resolve while the stream flows, and a consumer
  that needs an unresolved key stalls only until *that* request lands.

:meth:`ManagedCall.resolve` is the one way a service is called: the
service-backed builtins hand it a batch's whole key column (a scalar call
is a one-key column), and it runs two phases:

1. **Warm** (``batched`` and ``async`` only): the keys, NULLs skipped,
   deduplicated in first-appearance order, cached and in-flight ones
   skipped, go out as batch round trips of up to ``max_batch_size`` keys
   or as async launches into the pool. The batch size *is* the lookahead.
2. **Look up**, in row order: one cache probe, else a stall on the key's
   in-flight request, else a blocking round trip. A NULL key gives NULL
   and is not counted.

Two call sites on one key column (``latitude(loc)``, ``longitude(loc)``)
resolve one after the other; the second finds every key the first
resolved as long as a batch's distinct keys fit the cache and no TTL runs
out within one batch's stalls. Below that capacity, or with such a TTL,
it can request a key again.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.engine.resilience import ResilientService
from repro.errors import ServiceError
from repro.geo.service import SimulatedWebService
from repro.storage.cache import LRUCache

#: Valid ManagedCall modes.
MODES = ("blocking", "cached", "batched", "async")

_MISSING = object()


@dataclass
class ManagedCallStats:
    """Call accounting on top of the underlying service's own stats.

    ``stall_seconds`` is time a consumer spent *blocked* waiting for a
    value it needed right then; ``prefetch_seconds`` is time spent in
    batch-prefetch round trips ahead of need. The E5 benchmark compares
    modes on stalls, so the two must not be conflated.
    """

    calls: int = 0
    cache_hits: int = 0
    stalls: int = 0
    stall_seconds: float = 0.0
    prefetch_seconds: float = 0.0
    prefetched: int = 0
    partials: int = 0

    def as_dict(self) -> dict[str, float]:
        return {
            "calls": self.calls,
            "cache_hits": self.cache_hits,
            "stalls": self.stalls,
            "stall_seconds": round(self.stall_seconds, 6),
            "prefetch_seconds": round(self.prefetch_seconds, 6),
            "prefetched": self.prefetched,
            "partials": self.partials,
        }


class ManagedCall:
    """A service call wrapped with caching, batching, and async requests.

    Args:
        service: the simulated remote service — raw, or wrapped in a
            :class:`~repro.engine.resilience.ResilientService` when the
            session enabled retries (the two expose the same surface).
        mode: one of :data:`MODES`.
        cache_capacity: LRU size for the non-blocking modes.
        cache_ttl: optional TTL in virtual seconds.
        pool_depth: max concurrent in-flight async requests.
        negative_cache: cache failures (``None``) too — a location that
            didn't geocode a second ago still won't.
        partial_results: in ``async`` mode, never stall on an in-flight
            request — return ``None`` now (counted in ``stats.partials``)
            and let the landed value serve *later* rows. The paper points
            at Raman & Hellerstein's partial-results data model as the
            design that would permit exactly this trade of completeness
            for zero blocking.

    :meth:`resolve` maps a column of keys to values (``None`` on service
    failure); calling the instance resolves one key.
    """

    def __init__(
        self,
        service: SimulatedWebService | ResilientService,
        mode: str = "cached",
        cache_capacity: int = 10_000,
        cache_ttl: float | None = None,
        pool_depth: int = 8,
        negative_cache: bool = True,
        partial_results: bool = False,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if pool_depth <= 0:
            raise ValueError("pool_depth must be positive")
        if partial_results and mode != "async":
            raise ValueError("partial_results requires async mode")
        self._partial_results = partial_results
        self._service = service
        self._mode = mode
        self._clock = service.clock
        self._negative_cache = negative_cache
        self._pool_depth = pool_depth
        self._cache: LRUCache | None = None
        if mode != "blocking":
            self._cache = LRUCache(
                capacity=cache_capacity,
                ttl_seconds=cache_ttl,
                clock=self._clock if cache_ttl is not None else None,
            )
        #: key → virtual completion time of the in-flight async request.
        self._in_flight: dict[Any, float] = {}
        self.stats = ManagedCallStats()
        #: Span recorder (set by the planner when tracing is on). Checked
        #: once per service interaction, never per row.
        self.tracer: Any = None

    @property
    def mode(self) -> str:
        return self._mode

    @property
    def cache(self) -> LRUCache | None:
        return self._cache

    @property
    def service(self) -> SimulatedWebService | ResilientService:
        return self._service

    # -- resolution ----------------------------------------------------------

    def __call__(self, key: Any) -> Any:
        """Resolve one key: a one-key :meth:`resolve`."""
        return self.resolve([key])[0]

    def resolve(self, keys: Sequence[Any]) -> list[Any]:
        """Resolve a column of keys to their values, in order, in the two
        phases the module docstring describes."""
        return self._resolve(keys, None)

    def _resolve(
        self,
        keys: Sequence[Any],
        on_lookup: Callable[[Any, bool], None] | None,
    ) -> list[Any]:
        """:meth:`resolve`, reporting each lookup's key and whether it was
        a cache hit to ``on_lookup`` (a shared-scan tenant's accounting)."""
        if self._mode in ("batched", "async"):
            self._warm(keys)
        values: list[Any] = []
        for key in keys:
            if key is None:
                values.append(None)
                continue
            hits = self.stats.cache_hits
            values.append(self._lookup(key))
            if on_lookup is not None:
                on_lookup(key, self.stats.cache_hits > hits)
        return values

    def _lookup(self, key: Any) -> Any:
        """Resolve one key, using whatever the warm phase arranged."""
        self.stats.calls += 1
        value = self._cached(key)
        if value is not _MISSING:
            return value
        if self._partial_results:
            # Partial-results mode: never block. If the value is in flight,
            # report "unknown yet"; if it was never requested, launch it
            # asynchronously (pool permitting) and still answer NULL now.
            # Later rows with the same key get the landed value.
            if key not in self._in_flight and len(self._in_flight) < self._pool_depth:
                self._launch_async(key)
            self.stats.partials += 1
            return None
        if key in self._in_flight:
            # The async request is still in the air: stall until it lands.
            done_at = self._in_flight[key]
            stall = max(0.0, done_at - self._clock.now)
            self.stats.stalls += 1
            self.stats.stall_seconds += stall
            before = self._clock.now
            self._clock.advance_to(max(done_at, self._clock.now))
            if self.tracer is not None:
                self.tracer.add(
                    self._service.name, "stall", before, self._clock.now,
                    lane="services", key=str(key), path="in_flight",
                )
            # The completion callback has now run and populated the cache.
            value = self._cached(key)
            if value is not _MISSING:
                return value
        return self._request_blocking(key)

    def _cached(self, key: Any) -> Any:
        """One counted cache probe: the value, or ``_MISSING``."""
        if self._cache is None:
            return _MISSING
        value = self._cache.get(key, _MISSING)
        if value is not _MISSING:
            self.stats.cache_hits += 1
        return value

    def _request_blocking(self, key: Any) -> Any:
        before = self._clock.now
        try:
            value = self._service.request(key)
        except ServiceError:
            value = None
        self.stats.stall_seconds += self._clock.now - before
        self.stats.stalls += 1
        if self.tracer is not None:
            self.tracer.add(
                self._service.name, "service", before, self._clock.now,
                lane="services", key=str(key), path="blocking",
                failed=value is None,
            )
        self._store(key, value)
        return value

    def _store(self, key: Any, value: Any) -> None:
        if self._cache is None:
            return
        if value is None and not self._negative_cache:
            return
        self._cache.put(key, value)

    # -- warm phase ------------------------------------------------------------

    def _warm(self, keys: Iterable[Any]) -> None:
        """The warm phase of :meth:`resolve` (see the module docstring)."""
        pending: list[Any] = []
        seen: set[Any] = set()
        for key in keys:
            if key is None or key in seen:
                continue
            seen.add(key)
            if self._cache is not None and self._cache.contains(key):
                continue
            if key in self._in_flight:
                continue
            pending.append(key)
        if not pending:
            return
        if self._mode == "batched":
            self._prefetch_batched(pending)
        else:
            self._prefetch_async(pending)

    def _prefetch_batched(self, keys: list[Any]) -> None:
        limit = self._service.max_batch_size
        for start in range(0, len(keys), limit):
            chunk = keys[start : start + limit]
            before = self._clock.now
            try:
                results = self._service.request_batch(chunk)
            except ServiceError:
                results = [None] * len(chunk)
            # A prefetch round trip is work done ahead of need, not a
            # consumer stall — account it separately.
            self.stats.prefetch_seconds += self._clock.now - before
            if self.tracer is not None:
                self.tracer.add(
                    self._service.name, "service", before, self._clock.now,
                    lane="services", path="batch", keys=len(chunk),
                )
            for key, value in zip(chunk, results):
                if isinstance(value, Exception):
                    # A transiently failed item stays uncached: the
                    # consumer's blocking fallback (retried, when the
                    # session enabled retries) gets a fresh shot instead
                    # of reading a pinned NULL.
                    continue
                self._store(key, value)
                self.stats.prefetched += 1

    def _prefetch_async(self, keys: list[Any]) -> None:
        for key in keys:
            while len(self._in_flight) >= self._pool_depth:
                if self._partial_results:
                    # Never block: drop the hint; the key is either
                    # prefetched by a later refill or answered as partial.
                    return
                # Pool full: wait for an in-flight request to land.
                before = self._clock.now
                self.stats.stalls += 1
                self._await_in_flight()
                self.stats.stall_seconds += self._clock.now - before
                if self.tracer is not None:
                    self.tracer.add(
                        self._service.name, "stall", before, self._clock.now,
                        lane="services", path="pool_full",
                    )
            self._launch_async(key)
            self.stats.prefetched += 1

    def _launch_async(self, key: Any) -> None:
        """Fire one async request (caller has checked the pool)."""

        def on_done(value: Any, error: Exception | None, key=key) -> None:
            self._in_flight.pop(key, None)
            if error is not None:
                # A late final failure (the retried async chain gave up
                # after a consumer already resolved the key via the
                # blocking fallback) must not clobber the landed value.
                if self._cache is not None and self._cache.contains(key):
                    return
                self._store(key, None)
                return
            # Success always lands — including over a prior negative entry.
            self._store(key, value)

        done_at = self._service.request_async(key, on_done)
        self._in_flight[key] = done_at
        if self.tracer is not None:
            # Span covers launch → promised completion; retries land later.
            self.tracer.add(
                self._service.name, "service", self._clock.now, done_at,
                lane="services", key=str(key), path="async",
            )

    def _await_in_flight(self) -> None:
        """Advance the clock until in-flight requests can make progress.

        An entry can outlive its promised completion time when the service
        rescheduled it (an async retry chain); advancing to the clock's
        next pending deadline then makes progress where re-advancing to
        the stale promise would spin.
        """
        earliest = min(self._in_flight.values())
        if earliest > self._clock.now:
            self._clock.advance_to(earliest)
            return
        deadline = self._clock.next_deadline()
        if deadline is None:
            # Nothing scheduled can resolve these; don't spin forever.
            self._in_flight.clear()
            return
        self._clock.advance_to(max(deadline, self._clock.now))

    def drain(self) -> None:
        """Wait for every in-flight async request (end-of-stream cleanup)."""
        while self._in_flight:
            self._await_in_flight()

