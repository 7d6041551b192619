"""Robustness under transient service failures.

The paper's web-service UDFs call real remote services, which fail. The
engine must degrade (NULLs) rather than die, and negative caching must not
pin a transient failure forever when a TTL is set.
"""

import pytest

from repro import EngineConfig
from repro.geo.service import LatencyModel


def test_queries_survive_service_failures(session_factory):
    config = EngineConfig(
        latency_mode="cached",
        service_failure_rate=0.3,
        geocode_latency=LatencyModel(0.05, sigma=0.0),
    )
    session = session_factory("soccer", config=config)
    rows = session.query(
        "SELECT latitude(loc) AS lat, loc FROM twitter "
        "WHERE text contains 'soccer' LIMIT 150;"
    ).all()
    assert len(rows) == 150
    succeeded = [r for r in rows if r["lat"] is not None]
    assert succeeded  # most calls still succeed
    assert session.geocode_service.stats.failures > 0


@pytest.mark.parametrize(
    "config",
    [
        {"latency_mode": "async", "partial_results": True},
        {"latency_mode": "cached", "service_failure_rate": 0.3},
    ],
    ids=["async-partial", "cached-failing"],
)
def test_named_entities_null_answer_is_null(session_factory, config):
    """A NULL entity answer (a partial result, a failed call) is a NULL
    cell, as for latitude — not a crash."""
    session = session_factory("soccer", config=EngineConfig(**config))
    rows = session.query(
        "SELECT text, named_entities(text) AS e FROM twitter "
        "WHERE text CONTAINS 'goal';"
    ).all()
    assert any(row["e"] is None for row in rows)
    assert any(row["e"] is not None for row in rows)
    assert all(isinstance(row["e"], (tuple, type(None))) for row in rows)


def test_failures_are_negative_cached(session_factory):
    config = EngineConfig(
        latency_mode="cached",
        service_failure_rate=0.5,
        geocode_latency=LatencyModel(0.05, sigma=0.0),
    )
    session = session_factory("soccer", config=config)
    managed = session.geocode_managed
    first = managed("Boston")
    requests_after_first = session.geocode_service.stats.requests
    second = managed("Boston")
    # Whatever the first call produced (value or failure), the second is a
    # cache hit — no extra request.
    assert session.geocode_service.stats.requests == requests_after_first
    assert second == first


def test_ttl_lets_failures_age_out():
    """With a cache TTL, a cached failure is retried after expiry."""
    from repro.clock import VirtualClock
    from repro.engine.latency import ManagedCall
    from repro.geo.service import SimulatedWebService

    clock = VirtualClock(start=0.0)
    attempts = {"n": 0}

    def flaky(key):
        attempts["n"] += 1
        if attempts["n"] == 1:
            from repro.errors import ServiceError

            raise ServiceError("first call fails")
        return (1.0, 2.0)

    service = SimulatedWebService(
        "flaky", flaky, clock=clock, latency=LatencyModel(0.1, sigma=0.0)
    )
    managed = ManagedCall(service, mode="cached", cache_ttl=60.0)
    assert managed("x") is None          # failure, negative-cached
    assert managed("x") is None          # still cached
    assert attempts["n"] == 1
    clock.advance(61.0)                   # TTL expires
    assert managed("x") == (1.0, 2.0)     # retried and healed
    assert attempts["n"] == 2


def test_async_mode_with_failures(session_factory):
    config = EngineConfig(
        latency_mode="async",
        service_failure_rate=0.25,
        geocode_latency=LatencyModel(0.05, sigma=0.0),
    )
    session = session_factory("soccer", config=config)
    rows = session.query(
        "SELECT latitude(loc) AS lat FROM twitter "
        "WHERE text contains 'soccer' LIMIT 120;"
    ).all()
    assert len(rows) == 120
    assert any(r["lat"] is not None for r in rows)


def test_retried_success_overwrites_negative_cache_entry():
    """A key negative-cached by an earlier failure must serve the real
    value once a retried call lands it — the success wins over the stale
    NULL, whatever the TTL says."""
    from repro.clock import VirtualClock
    from repro.engine.latency import ManagedCall
    from repro.engine.resilience import (
        FaultPlan,
        ResilientService,
        RetryPolicy,
        ServiceFaultModel,
    )
    from repro.geo.service import SimulatedWebService

    clock = VirtualClock(start=0.0)
    plan = FaultPlan(
        seed=7,
        services={"svc": ServiceFaultModel(failure_rate=1.0, max_burst=2)},
    )
    service = SimulatedWebService(
        "svc",
        lambda key: (1.0, 2.0),
        clock=clock,
        latency=LatencyModel(0.1, sigma=0.0),
        fault_injector=plan.injector_for("svc"),
    )
    burst = plan.failing_attempts("svc", "x")
    assert burst >= 1

    # Without retries the burst exhausts the call: NULL is negative-cached
    # (long TTL — nowhere near expiring).
    no_retry = ManagedCall(
        ResilientService(service, RetryPolicy(max_retries=0)),
        mode="cached",
        cache_ttl=3600.0,
    )
    assert no_retry("x") is None
    assert no_retry.cache.contains("x")

    # A retried async launch on the same cache rides out the rest of the
    # burst and must overwrite the stale negative entry. (Partial results:
    # the resolve launches the request and answers NULL without waiting.)
    retried = ManagedCall(
        ResilientService(
            service, RetryPolicy(max_retries=3, jitter=False)
        ),
        mode="async",
        cache_ttl=3600.0,
        partial_results=True,
    )
    assert retried.resolve(["x"]) == [None]
    retried.cache.put("x", None)  # the stale NULL, as the first call left it
    retried.drain()
    assert retried("x") == (1.0, 2.0)


def test_late_async_failure_does_not_clobber_landed_value():
    """The mirror case: an async retry chain that finally gives up must
    not overwrite a real value the consumer already resolved."""
    from repro.clock import VirtualClock
    from repro.engine.latency import ManagedCall
    from repro.engine.resilience import ResilientService, RetryPolicy
    from repro.errors import ServiceError
    from repro.geo.service import SimulatedWebService

    clock = VirtualClock(start=0.0)
    calls = {"n": 0}

    def always_fails(key):
        calls["n"] += 1
        raise ServiceError("down")

    service = SimulatedWebService(
        "svc", always_fails, clock=clock, latency=LatencyModel(0.1, sigma=0.0)
    )
    managed = ManagedCall(
        ResilientService(service, RetryPolicy(max_retries=2, jitter=False)),
        mode="async",
        partial_results=True,
    )
    assert managed.resolve(["x"]) == [None]  # launched, not waited for
    managed.cache.put("x", (9.0, 9.0))  # consumer resolved it meanwhile
    managed.drain()  # the chain exhausts its budget and fails
    assert managed("x") == (9.0, 9.0)
