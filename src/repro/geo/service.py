"""Simulated remote web services.

The paper's "High-latency Operators" section: web-service UDF calls
"optimistically take hundreds of milliseconds apiece, but incur little
processing cost on behalf of the query processor". This module reproduces
exactly that cost profile against the virtual clock:

- each request charges a latency sample (lognormal around a configurable
  mean) to the :class:`~repro.clock.VirtualClock`;
- a batch endpoint amortizes a round trip over many items, as some real
  geocoders allowed;
- asynchronous requests reserve pool slots and deliver results via clock
  callbacks (the WSQ/DSQ-style asynchronous iteration the paper cites);
- transient failures can be injected at a configurable rate.

:class:`SimulatedWebService` is generic over the resolution function, so the
geocoder and the OpenCalais-style entity extractor share one implementation.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro import rng as rng_mod
from repro.clock import VirtualClock
from repro.errors import ServiceError


@dataclass(frozen=True)
class LatencyModel:
    """Latency distribution of one simulated service.

    Attributes:
        mean_seconds: expected per-request round-trip time.
        sigma: lognormal shape parameter; 0 gives deterministic latency.
        per_item_seconds: marginal cost of each extra item in a batch
            request (server-side work grows with batch size, but the round
            trip is paid once).
    """

    mean_seconds: float = 0.3
    sigma: float = 0.35
    per_item_seconds: float = 0.002

    def sample(self, rng: random.Random) -> float:
        """Draw one round-trip latency."""
        if self.sigma <= 0.0:
            return self.mean_seconds
        return rng_mod.lognormal(rng, self.mean_seconds, self.sigma)

    def sample_batch(self, rng: random.Random, n_items: int) -> float:
        """Draw the latency of a batch request over ``n_items`` items."""
        return self.sample(rng) + self.per_item_seconds * max(0, n_items - 1)


@dataclass
class ServiceStats:
    """Counters describing how a service has been used.

    ``virtual_seconds_busy`` accumulates the latency of every request — the
    total time a *blocking* caller would have spent waiting. Async callers
    overlap requests, so their elapsed virtual time can be far smaller; that
    gap is exactly what benchmark E5 measures.
    """

    requests: int = 0
    items: int = 0
    batch_requests: int = 0
    failures: int = 0
    virtual_seconds_busy: float = 0.0
    in_flight_high_water: int = 0
    _in_flight: int = field(default=0, repr=False)

    def note_request(self, items: int, latency: float, batch: bool) -> None:
        self.requests += 1
        self.items += items
        if batch:
            self.batch_requests += 1
        self.virtual_seconds_busy += latency

    def note_begin(self) -> None:
        self._in_flight += 1
        self.in_flight_high_water = max(self.in_flight_high_water, self._in_flight)

    def note_end(self) -> None:
        self._in_flight -= 1


class SimulatedWebService:
    """A remote service with realistic latency, wrapped around a resolver.

    Args:
        name: service name for error messages and stats.
        resolver: pure function computing the response for one request item.
            It may raise; the exception propagates to the caller the way an
            HTTP error payload would.
        clock: shared virtual clock charged for every request.
        latency: the latency model.
        failure_rate: probability that any given request transiently fails
            with :class:`~repro.errors.ServiceError` (after its latency has
            been paid, like a real timeout).
        seed: RNG seed for latency and failure draws.
        max_batch_size: server-imposed limit on batch endpoint size.
        fault_injector: optional
            :class:`~repro.engine.resilience.ServiceFaultInjector` applying
            a deterministic :class:`~repro.engine.resilience.FaultPlan` —
            per-key failure bursts (after latency is paid, like a timeout)
            and latency spikes. Independent of the rate-based
            ``failure_rate`` machinery; injected failures also count in
            ``stats.failures``.

    Each request method takes a ``tracer`` keyword only to share its
    surface with :class:`~repro.engine.resilience.ResilientService`, which
    records retry spans there; a bare service retries nothing and records
    no span.
    """

    def __init__(
        self,
        name: str,
        resolver: Callable[[Any], Any],
        clock: VirtualClock,
        latency: LatencyModel | None = None,
        failure_rate: float = 0.0,
        seed: int = rng_mod.DEFAULT_SEED,
        max_batch_size: int = 25,
        fault_injector: Any = None,
    ) -> None:
        if not 0.0 <= failure_rate < 1.0:
            raise ValueError("failure_rate must be in [0, 1)")
        self.name = name
        self._resolver = resolver
        self._clock = clock
        self._latency = latency or LatencyModel()
        self._failure_rate = failure_rate
        self._rng = rng_mod.derive(seed, f"service:{name}")
        self._max_batch_size = max_batch_size
        self.fault_injector = fault_injector
        self.stats = ServiceStats()

    @property
    def clock(self) -> VirtualClock:
        """The virtual clock this service charges."""
        return self._clock

    @property
    def max_batch_size(self) -> int:
        """Largest batch the service accepts in one request."""
        return self._max_batch_size

    def _maybe_fail(self) -> None:
        if self._failure_rate and self._rng.random() < self._failure_rate:
            self.stats.failures += 1
            raise ServiceError(f"{self.name}: transient service failure")

    def _draw_fault(self, item: Any) -> Any:
        """One injector verdict for ``item`` (None without an injector)."""
        if self.fault_injector is None:
            return None
        return self.fault_injector.draw(item)

    def request(self, item: Any, tracer: Any = None) -> Any:
        """Blocking single-item request.

        Advances the virtual clock by one latency sample, then resolves.
        """
        fault = self._draw_fault(item)
        latency = self._latency.sample(self._rng)
        if fault is not None:
            latency *= fault.latency_multiplier
        self.stats.note_begin()
        self._clock.advance(latency)
        self.stats.note_end()
        self.stats.note_request(1, latency, batch=False)
        self._maybe_fail()
        if fault is not None and fault.error is not None:
            self.stats.failures += 1
            raise fault.error
        return self._resolver(item)

    def request_batch(
        self, items: Sequence[Any], tracer: Any = None
    ) -> list[Any]:
        """Blocking batch request; one round trip for up to ``max_batch_size``
        items.

        Per-item resolver errors are returned in-place as the exception
        object (a real batch geocoder returns per-item status codes), so one
        bad address does not poison the batch.
        """
        if len(items) > self._max_batch_size:
            raise ServiceError(
                f"{self.name}: batch of {len(items)} exceeds limit "
                f"{self._max_batch_size}"
            )
        faults = [self._draw_fault(item) for item in items]
        latency = self._latency.sample_batch(self._rng, len(items))
        # The round trip pays the worst spike among its items (the server
        # answers the batch as one response).
        spike = max(
            (f.latency_multiplier for f in faults if f is not None),
            default=1.0,
        )
        latency *= spike
        self.stats.note_begin()
        self._clock.advance(latency)
        self.stats.note_end()
        self.stats.note_request(len(items), latency, batch=True)
        self._maybe_fail()
        results: list[Any] = []
        for item, fault in zip(items, faults):
            if fault is not None and fault.error is not None:
                self.stats.failures += 1
                results.append(fault.error)
                continue
            try:
                results.append(self._resolver(item))
            except ServiceError as exc:
                results.append(exc)
        return results

    def request_async(
        self,
        item: Any,
        callback: Callable[[Any, Exception | None], None],
        tracer: Any = None,
    ) -> float:
        """Non-blocking request.

        Does *not* advance the clock. Instead, schedules ``callback(result,
        error)`` to fire when the clock sweeps past now + latency — the
        asynchronous iteration design of Goldman & Widom the paper points to.
        Returns the virtual completion time.
        """
        fault = self._draw_fault(item)
        latency = self._latency.sample(self._rng)
        if fault is not None:
            latency *= fault.latency_multiplier
        done_at = self._clock.now + latency
        self.stats.note_begin()
        self.stats.note_request(1, latency, batch=False)

        def fire() -> None:
            self.stats.note_end()
            try:
                self._maybe_fail()
                if fault is not None and fault.error is not None:
                    self.stats.failures += 1
                    raise fault.error
                result = self._resolver(item)
            except Exception as exc:  # noqa: BLE001 - forwarded to callback
                callback(None, exc)
                return
            callback(result, None)

        self._clock.call_at(done_at, fire)
        return done_at
