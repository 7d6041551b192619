"""Fault tolerance for high-latency services and the streaming connection.

The paper's web-service UDFs (geocoding, OpenCalais) and the streaming API
call real remote endpoints, and real remote endpoints fail: connections
drop, requests time out, rate limits push back. This module gives the
engine the machinery to ride those failures out instead of degrading a
whole query on one transient blip:

- :class:`RetryPolicy` — bounded retries with exponential backoff and full
  jitter, honoring a server-supplied ``retry_after`` as a floor on the
  wait, under an optional per-call deadline.
- :class:`CircuitBreaker` — the classic closed → open → half-open state
  machine over the virtual clock: sustained failure opens the circuit and
  short-circuits calls (no latency paid, no load added) until a half-open
  probe confirms recovery.
- :class:`ResilientService` — wraps a
  :class:`~repro.geo.service.SimulatedWebService` with both, exposing the
  same request surface so :class:`~repro.engine.latency.ManagedCall` needs
  no changes to benefit. Degradation to NULL happens only after the retry
  budget (or deadline, or breaker) is exhausted.
- :class:`FaultPlan` — a deterministic, seed-driven schedule of service
  failures, latency spikes, and stream disconnects. Service faults are
  keyed on the *request key*, not arrival order, so the same plan produces
  the same faults at every batch size and worker count — which is what
  lets the chaos harness (``tests/chaos/``) assert that a retry-enabled
  run emits row-for-row identical output to the no-fault baseline.

Every wait here advances the shared :class:`~repro.clock.VirtualClock`, so
backoff schedules are exact and testable without sleeping.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro import rng as rng_mod
from repro.clock import VirtualClock
from repro.errors import CircuitOpenError, ServiceError

# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff, full jitter, and a deadline.

    Attributes:
        max_retries: attempts *after* the first; 0 disables retrying.
        deadline_seconds: per-logical-call budget measured on the virtual
            clock from the first attempt; a retry whose wait would cross
            the deadline is not started. None means no deadline.
        backoff_base_seconds: backoff cap for the first retry; doubles per
            subsequent retry.
        backoff_cap_seconds: upper bound on the (pre-jitter) backoff.
        jitter: draw the wait uniformly from ``[0, cap]`` (AWS-style full
            jitter) instead of waiting the full cap. Disable for tests that
            pin exact wait sequences.
    """

    max_retries: int = 3
    deadline_seconds: float | None = None
    backoff_base_seconds: float = 0.1
    backoff_cap_seconds: float = 5.0
    jitter: bool = True

    def backoff_seconds(
        self,
        attempt: int,
        rng: random.Random,
        retry_after: float | None = None,
    ) -> float:
        """The wait before retry number ``attempt`` (1-based).

        ``retry_after`` (from :attr:`ServiceError.retry_after`) is a floor:
        the server told us when it will be ready, so backing off less than
        that only burns a retry.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        cap = min(
            self.backoff_cap_seconds,
            self.backoff_base_seconds * (2.0 ** (attempt - 1)),
        )
        wait = rng.random() * cap if self.jitter else cap
        if retry_after is not None:
            wait = max(wait, retry_after)
        return wait


@dataclass
class ResilienceStats:
    """Accounting for one :class:`ResilientService`."""

    calls: int = 0
    retries: int = 0
    recovered: int = 0
    giveups: int = 0
    deadline_giveups: int = 0
    backoff_seconds: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "calls": self.calls,
            "retries": self.retries,
            "recovered": self.recovered,
            "giveups": self.giveups,
            "deadline_giveups": self.deadline_giveups,
            "backoff_seconds": round(self.backoff_seconds, 6),
        }


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------


@dataclass
class CircuitBreakerStats:
    """Transition and short-circuit counters for one breaker."""

    failures: int = 0
    successes: int = 0
    opens: int = 0
    closes: int = 0
    probes: int = 0
    short_circuits: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "failures": self.failures,
            "successes": self.successes,
            "opens": self.opens,
            "closes": self.closes,
            "probes": self.probes,
            "short_circuits": self.short_circuits,
        }


class CircuitBreaker:
    """Closed → open → half-open breaker over the virtual clock.

    Closed: calls pass through; ``failure_threshold`` *consecutive*
    failures open the circuit. Open: :meth:`allow` raises
    :class:`~repro.errors.CircuitOpenError` (carrying ``retry_after`` =
    time until the probe window) without touching the service. After
    ``reset_timeout_seconds`` the next :meth:`allow` transitions to
    half-open and lets exactly one probe through: success closes the
    circuit, failure re-opens it for a fresh timeout.
    """

    def __init__(
        self,
        clock: VirtualClock,
        failure_threshold: int = 8,
        reset_timeout_seconds: float = 30.0,
        name: str = "service",
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be positive")
        if reset_timeout_seconds <= 0:
            raise ValueError("reset_timeout_seconds must be positive")
        self._clock = clock
        self._threshold = failure_threshold
        self._reset_timeout = reset_timeout_seconds
        self.name = name
        self.state = "closed"
        self.stats = CircuitBreakerStats()
        self._consecutive_failures = 0
        self._opened_at = 0.0

    def allow(self) -> None:
        """Gate one attempt; raises :class:`CircuitOpenError` when open."""
        if self.state != "open":
            return
        elapsed = self._clock.now - self._opened_at
        if elapsed >= self._reset_timeout:
            self.state = "half_open"
            self.stats.probes += 1
            return
        self.stats.short_circuits += 1
        raise CircuitOpenError(
            self.name, retry_after=self._reset_timeout - elapsed
        )

    def record_success(self) -> None:
        self.stats.successes += 1
        self._consecutive_failures = 0
        if self.state != "closed":
            self.state = "closed"
            self.stats.closes += 1

    def record_failure(self) -> None:
        self.stats.failures += 1
        self._consecutive_failures += 1
        if self.state == "half_open" or (
            self.state == "closed"
            and self._consecutive_failures >= self._threshold
        ):
            self.state = "open"
            self.stats.opens += 1
            self._opened_at = self._clock.now


# ---------------------------------------------------------------------------
# Fault plans: deterministic failure schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServiceFaultModel:
    """How one service misbehaves under a :class:`FaultPlan`.

    Faults are *per request key*: a fraction ``failure_rate`` of distinct
    keys fail their first 1..``max_burst`` attempts (then heal), which
    makes the schedule independent of request arrival order — the property
    the chaos-equivalence suite leans on. A disjoint ``latency_spike_rate``
    fraction of keys pay ``latency_multiplier`` × latency per request.
    """

    failure_rate: float = 0.2
    max_burst: int = 2
    retry_after_seconds: float | None = None
    latency_spike_rate: float = 0.0
    latency_multiplier: float = 5.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.failure_rate <= 1.0:
            raise ValueError("failure_rate must be in [0, 1]")
        if self.max_burst < 1:
            raise ValueError("max_burst must be positive")
        if not 0.0 <= self.latency_spike_rate <= 1.0:
            raise ValueError("latency_spike_rate must be in [0, 1]")

    def as_dict(self) -> dict[str, Any]:
        return {
            "failure_rate": self.failure_rate,
            "max_burst": self.max_burst,
            "retry_after_seconds": self.retry_after_seconds,
            "latency_spike_rate": self.latency_spike_rate,
            "latency_multiplier": self.latency_multiplier,
        }


@dataclass(frozen=True)
class StreamDrop:
    """One scheduled streaming disconnect.

    The connection drops after delivering ``after_delivered`` tweets; the
    next ``gap`` deliverable tweets fall into the disconnect window. With
    auto-reconnect the connection resumes from its cursor, so the gap
    tweets are recovered (and counted in ``ConnectionStats.gap_tweets``);
    without it they are lost, the way a client that blindly reopened the
    2011 stream lost whatever passed while it was down.
    """

    after_delivered: int
    gap: int = 0

    def __post_init__(self) -> None:
        if self.after_delivered < 0:
            raise ValueError("after_delivered must be non-negative")
        if self.gap < 0:
            raise ValueError("gap must be non-negative")

    def as_dict(self) -> dict[str, int]:
        return {"after_delivered": self.after_delivered, "gap": self.gap}


def _unit_hash(seed: int, *parts: Any) -> float:
    """Deterministic hash of (seed, parts) to a float in [0, 1).

    SHA-256 based (like :func:`repro.rng.derive`) so the mapping is stable
    across processes and PYTHONHASHSEED values.
    """
    text = ":".join([str(seed), *(repr(p) for p in parts)])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible schedule of service and stream failures.

    Everything is derived from ``seed`` and the request *content* (service
    name + key), never from arrival order, so one plan injects the same
    faults into a serial row-at-a-time run and a 4-worker batched run.
    ``services`` maps service names to fault models; the key ``"*"``
    applies to any service without its own entry. ``stream_drops`` applies
    to every streaming connection the plan's session opens.

    Serialization: :meth:`as_dict`/:meth:`from_dict` and
    :meth:`to_file`/:meth:`from_file` (JSON; see ``docs/RESILIENCE.md``
    for the format), so a failing chaos case can be pinned to a file and
    replayed with ``tweeql --fault-plan``.
    """

    seed: int = rng_mod.DEFAULT_SEED
    services: dict[str, ServiceFaultModel] = field(default_factory=dict)
    stream_drops: tuple[StreamDrop, ...] = ()

    def model_for(self, service: str) -> ServiceFaultModel | None:
        """The fault model governing ``service``, if any."""
        return self.services.get(service) or self.services.get("*")

    def failing_attempts(self, service: str, key: Any) -> int:
        """How many leading attempts for ``key`` fail (0 = healthy key)."""
        model = self.model_for(service)
        if model is None or model.failure_rate <= 0.0:
            return 0
        if _unit_hash(self.seed, "fail", service, key) >= model.failure_rate:
            return 0
        burst = _unit_hash(self.seed, "burst", service, key)
        return 1 + int(burst * model.max_burst) % model.max_burst

    def latency_multiplier(self, service: str, key: Any) -> float:
        """Latency multiplier for every request carrying ``key``."""
        model = self.model_for(service)
        if model is None or model.latency_spike_rate <= 0.0:
            return 1.0
        if _unit_hash(self.seed, "spike", service, key) < model.latency_spike_rate:
            return model.latency_multiplier
        return 1.0

    def injector_for(self, service: str) -> "ServiceFaultInjector | None":
        """A per-session injector for ``service``; None when unaffected."""
        if self.model_for(service) is None:
            return None
        return ServiceFaultInjector(self, service)

    # -- serialization ---------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "services": {
                name: model.as_dict() for name, model in self.services.items()
            },
            "stream_drops": [drop.as_dict() for drop in self.stream_drops],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultPlan":
        services = {
            name: ServiceFaultModel(**model)
            for name, model in data.get("services", {}).items()
        }
        drops = tuple(
            StreamDrop(**drop) for drop in data.get("stream_drops", [])
        )
        return cls(
            seed=int(data.get("seed", rng_mod.DEFAULT_SEED)),
            services=services,
            stream_drops=drops,
        )

    def to_file(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.as_dict(), f, indent=2)
            f.write("\n")

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        with open(path, encoding="utf-8") as f:
            return cls.from_dict(json.load(f))


@dataclass(frozen=True)
class FaultDecision:
    """One injector verdict: pay this latency multiplier, then maybe fail."""

    latency_multiplier: float = 1.0
    error: ServiceError | None = None


class ServiceFaultInjector:
    """Applies one :class:`FaultPlan` to one service instance.

    Mutable where the plan is frozen: it counts attempts per key (a key's
    burst heals after ``failing_attempts`` tries) and records a trace of
    every anomaly it injected, so two runs of the same plan can be
    compared fault-for-fault.
    """

    def __init__(self, plan: FaultPlan, service: str) -> None:
        self.plan = plan
        self.service = service
        self._attempts: dict[Any, int] = {}
        #: (key, attempt, kind) for every injected anomaly, in order.
        self.trace: list[tuple[Any, int, str]] = []

    def draw(self, item: Any) -> FaultDecision:
        """Account one attempt for ``item`` and decide its fate."""
        attempt = self._attempts.get(item, 0) + 1
        self._attempts[item] = attempt
        multiplier = self.plan.latency_multiplier(self.service, item)
        if multiplier != 1.0:
            self.trace.append((item, attempt, "spike"))
        error: ServiceError | None = None
        if attempt <= self.plan.failing_attempts(self.service, item):
            model = self.plan.model_for(self.service)
            retry_after = model.retry_after_seconds if model else None
            error = ServiceError(
                f"{self.service}: injected transient failure "
                f"(attempt {attempt} for {item!r})",
                retry_after=retry_after,
            )
            self.trace.append((item, attempt, "fail"))
        return FaultDecision(latency_multiplier=multiplier, error=error)


# ---------------------------------------------------------------------------
# The resilient service wrapper
# ---------------------------------------------------------------------------


class ResilientService:
    """Retries + circuit breaking around a simulated web service.

    Exposes the same surface as
    :class:`~repro.geo.service.SimulatedWebService` (``request``,
    ``request_batch``, ``request_async``, ``clock``, ``max_batch_size``,
    ``name``, ``stats``), so a :class:`~repro.engine.latency.ManagedCall`
    wraps either interchangeably. Each request method takes the calling
    plan's ``tracer`` (None: record nothing), where every backoff wait
    becomes one ``retry`` span. Semantics per path:

    - ``request``: attempts until success, retry budget exhaustion, or
      deadline; each failed attempt waits ``RetryPolicy.backoff_seconds``
      (virtual clock) before the next. A breaker short-circuit raises
      :class:`~repro.errors.CircuitOpenError` whose ``retry_after`` is the
      time to the half-open probe, so the backoff naturally waits it out.
    - ``request_batch``: per-item failures (returned in-place, the way the
      real batch geocoders reported per-item status) are retried as
      progressively smaller batches; items still failing when the budget
      runs out keep their exception entries.
    - ``request_async``: retries are *rescheduled* on the virtual clock —
      the user callback fires once, on final success or final failure.
      The first attempt's completion time is returned (a caller that
      stalls to it and finds no result falls back to a blocking retried
      request; see ``ManagedCall``).
    """

    def __init__(
        self,
        service: Any,
        policy: RetryPolicy,
        breaker: CircuitBreaker | None = None,
        seed: int = rng_mod.DEFAULT_SEED,
    ) -> None:
        self._service = service
        self.policy = policy
        self.breaker = breaker
        self._rng = rng_mod.derive(seed, f"resilience:{service.name}")
        self.resilience = ResilienceStats()

    # -- service surface -------------------------------------------------------

    @property
    def name(self) -> str:
        return self._service.name

    @property
    def clock(self) -> VirtualClock:
        return self._service.clock

    @property
    def max_batch_size(self) -> int:
        return self._service.max_batch_size

    @property
    def stats(self) -> Any:
        """The wrapped service's own counters (requests, failures, …)."""
        return self._service.stats

    @property
    def inner(self) -> Any:
        """The wrapped service."""
        return self._service

    # -- bookkeeping -----------------------------------------------------------

    def _record(self, success: bool) -> None:
        if self.breaker is None:
            return
        if success:
            self.breaker.record_success()
        else:
            self.breaker.record_failure()

    def _next_wait(
        self, attempt: int, started_at: float, error: ServiceError
    ) -> float | None:
        """Backoff before retry ``attempt``, or None to give up."""
        if attempt > self.policy.max_retries:
            self.resilience.giveups += 1
            return None
        wait = self.policy.backoff_seconds(
            attempt, self._rng, getattr(error, "retry_after", None)
        )
        deadline = self.policy.deadline_seconds
        if deadline is not None and (
            self.clock.now - started_at
        ) + wait > deadline:
            self.resilience.deadline_giveups += 1
            return None
        return wait

    # -- blocking --------------------------------------------------------------

    def request(self, item: Any, tracer: Any = None) -> Any:
        """Blocking single-item request with retries."""
        self.resilience.calls += 1
        started_at = self.clock.now
        attempt = 0
        while True:
            error: ServiceError
            try:
                if self.breaker is not None:
                    self.breaker.allow()
                value = self._service.request(item)
            except CircuitOpenError as exc:
                error = exc  # short-circuit: no request made, no failure recorded
            except ServiceError as exc:
                self._record(success=False)
                error = exc
            else:
                self._record(success=True)
                if attempt > 0:
                    self.resilience.recovered += 1
                return value
            attempt += 1
            wait = self._next_wait(attempt, started_at, error)
            if wait is None:
                raise error
            self.resilience.retries += 1
            self.resilience.backoff_seconds += wait
            before = self.clock.now
            self.clock.advance(wait)
            if tracer is not None:
                tracer.add(
                    self.name, "retry", before, self.clock.now,
                    lane="services", attempt=attempt, key=str(item),
                )

    def request_batch(
        self, items: Sequence[Any], tracer: Any = None
    ) -> list[Any]:
        """Blocking batch request; failed items retried in sub-batches."""
        self.resilience.calls += 1
        started_at = self.clock.now
        results: dict[int, Any] = {}
        pending = list(enumerate(items))
        attempt = 0
        while pending:
            batch_error: ServiceError | None = None
            try:
                if self.breaker is not None:
                    self.breaker.allow()
                values = self._service.request_batch(
                    [item for _idx, item in pending]
                )
            except CircuitOpenError as exc:
                batch_error = exc
            except ServiceError as exc:
                self._record(success=False)
                batch_error = exc
            if batch_error is None:
                self._record(success=True)
                failed: list[tuple[int, Any]] = []
                worst: ServiceError | None = None
                for (index, item), value in zip(pending, values):
                    results[index] = value
                    if isinstance(value, ServiceError):
                        failed.append((index, item))
                        worst = value
                if not failed:
                    if attempt > 0:
                        self.resilience.recovered += 1
                    break
                pending = failed
                assert worst is not None
                batch_error = worst
            attempt += 1
            wait = self._next_wait(attempt, started_at, batch_error)
            if wait is None:
                if isinstance(batch_error, CircuitOpenError) and not results:
                    raise batch_error
                for index, _item in pending:
                    results.setdefault(index, batch_error)
                break
            self.resilience.retries += 1
            self.resilience.backoff_seconds += wait
            before = self.clock.now
            self.clock.advance(wait)
            if tracer is not None:
                tracer.add(
                    self.name, "retry", before, self.clock.now,
                    lane="services", attempt=attempt, pending=len(pending),
                )
        return [results[index] for index in range(len(items))]

    # -- asynchronous ----------------------------------------------------------

    def request_async(
        self,
        item: Any,
        callback: Callable[[Any, Exception | None], None],
        tracer: Any = None,
    ) -> float:
        """Non-blocking request whose retries reschedule on the clock.

        Returns the *first* attempt's virtual completion time; retries land
        later. ``callback`` fires exactly once, with the final outcome.
        Each retry's span goes to ``tracer``, the launching plan's, even
        when another plan's stall advances the clock past the relaunch.
        """
        self.resilience.calls += 1
        started_at = self.clock.now
        attempt = 0

        def on_result(value: Any, error: Exception | None) -> None:
            nonlocal attempt
            if error is None:
                self._record(success=True)
                if attempt > 0:
                    self.resilience.recovered += 1
                callback(value, None)
                return
            if not isinstance(error, ServiceError):
                callback(None, error)
                return
            if not isinstance(error, CircuitOpenError):
                self._record(success=False)
            attempt += 1
            wait = self._next_wait(attempt, started_at, error)
            if wait is None:
                callback(None, error)
                return
            self.resilience.retries += 1
            self.resilience.backoff_seconds += wait
            if tracer is not None:
                # Async retries reschedule rather than block: the span
                # covers the scheduled backoff window.
                tracer.add(
                    self.name, "retry", self.clock.now, self.clock.now + wait,
                    lane="services", attempt=attempt, key=str(item),
                    path="async",
                )
            self.clock.call_at(self.clock.now + wait, relaunch)

        def relaunch() -> None:
            try:
                if self.breaker is not None:
                    self.breaker.allow()
            except CircuitOpenError as exc:
                on_result(None, exc)
                return
            self._service.request_async(item, on_result)

        try:
            if self.breaker is not None:
                self.breaker.allow()
        except CircuitOpenError as exc:
            # Deliver the short-circuit asynchronously so the caller's
            # in-flight accounting works the same as a real launch.
            done_at = self.clock.now
            self.clock.call_at(done_at, lambda: on_result(None, exc))
            return done_at
        return self._service.request_async(item, on_result)
