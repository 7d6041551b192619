"""A plan's service calls are counted and traced on the plan's own context.

The session's :class:`~repro.engine.latency.ManagedCall` objects are
shared: one cache, one in-flight pool and one session-wide ``stats`` per
service. What each query did with them is its own: ``resolve`` under a
plan's :class:`~repro.engine.types.EvalContext` counts into that plan's
``ctx.calls`` and records its service, stall and retry spans in that
plan's tracer. These tests pin that for plain handles, for a shared
scan's fanout and tenants, and for an async retry chain that relaunches
while another plan is being pulled.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineConfig, TweeQL
from repro.engine.resilience import FaultPlan, ServiceFaultModel
from repro.twitter.workloads import soccer_match_scenario

SEED = 11

GEO_SQL = (
    "SELECT latitude(loc) AS la, longitude(loc) AS lo FROM twitter "
    "WHERE text contains 'goal';"
)
GEO_TEVEZ_SQL = "SELECT latitude(loc) AS la FROM twitter WHERE text contains 'tevez';"
ENT_SQL = "SELECT named_entities(text) AS e FROM twitter WHERE text contains 'goal';"
#: A statement whose only service call is a WHERE conjunct: in a shared
#: scan the fanout makes it.
FANOUT_SQL = (
    "SELECT text FROM twitter WHERE text contains 'tevez' AND latitude(loc) > -90.0;"
)
PLAIN_TEXT_SQL = "SELECT text FROM twitter WHERE text contains 'tevez';"

#: The per-plan call counters (``service_stats`` minus its session-wide
#: ``cache`` / ``resilience`` / ``breaker`` blocks).
COUNTERS = (
    "calls", "cache_hits", "stalls", "prefetched", "partials",
    "stall_seconds", "prefetch_seconds",
)
SECONDS = ("stall_seconds", "prefetch_seconds")


@pytest.fixture(scope="module")
def match(population):
    """A small soccer match (~6k tweets)."""
    return soccer_match_scenario(seed=SEED, population=population, intensity=0.15)


def session_for(scenario, **config):
    return TweeQL.for_scenarios(
        scenario, config=EngineConfig(**config), delivery_ratio=1.0, seed=SEED
    )


def service_spans(tracer):
    """The spans a plan's service calls recorded."""
    return tracer.spans_of("service", "stall", "retry")


def stalls(handle):
    return sum(stats["stalls"] for stats in handle.service_stats.values())


def counters(handle):
    return {
        name: {field: stats[field] for field in COUNTERS}
        for name, stats in handle.service_stats.items()
    }


def test_two_traced_handles_each_record_their_own_service_spans(match):
    """The handle planned first keeps its spans when a second one is
    planned before it runs. In cached mode every service span is one
    blocking round trip, which the plan counts as one stall."""
    session = session_for(match, latency_mode="cached", tracing=True)
    first = session.query(GEO_SQL)
    second = session.query(ENT_SQL)
    first.all()
    spans = service_spans(first.tracer)
    assert len(spans) == stalls(first) > 0
    assert {span.name for span in spans} == {"geocoder"}
    assert service_spans(second.tracer) == []

    second.all()
    assert service_spans(first.tracer) == spans
    later = service_spans(second.tracer)
    assert len(later) == stalls(second) > 0
    assert {span.name for span in later} == {"opencalais"}
    for handle in (first, second):
        handle.close()


def test_shared_group_keeps_an_earlier_traced_query_spans(match):
    """Opening a shared-scan group after a traced plain query leaves that
    query's spans alone, and each tenant records its own service spans."""
    session = session_for(match, latency_mode="cached", tracing=True)
    plain = session.query(GEO_SQL)
    group = session.shared()
    tenants = [group.query(GEO_TEVEZ_SQL), group.query(ENT_SQL)]
    plain.all()
    try:
        for tenant in tenants:
            tenant.all()
    finally:
        group.close()
    plain.close()

    assert len(service_spans(plain.tracer)) == stalls(plain) > 0
    for tenant, service in zip(tenants, ("geocoder", "opencalais")):
        spans = service_spans(tenant.tracer)
        assert len(spans) == stalls(tenant) > 0
        assert {span.name for span in spans} == {service}
        assert {span.lane for span in spans} == {"services"}
    assert service_spans(group.tracer) == []


def test_derived_stream_reader_counts_and_traces_its_upstream_calls(match):
    """A query over an ``INTO STREAM`` stream runs the stream's upstream
    plan, so the service calls that plan makes are the reader's: counted
    in its ``service_stats`` and traced in its tracer, exactly as the
    upstream statement counts them when it runs on its own."""
    upstream = (
        "SELECT latitude(loc) AS la, text FROM twitter WHERE text contains 'goal'"
    )
    alone = session_for(match, latency_mode="cached", tracing=True)
    direct = alone.query(upstream + ";")
    direct_rows = direct.all()

    session = session_for(match, latency_mode="cached", tracing=True)
    session.query(upstream + " INTO STREAM g;").close()
    reader = session.query("SELECT la FROM g;")
    rows = reader.all()

    assert [row["la"] for row in rows] == [row["la"] for row in direct_rows]
    assert counters(reader) == counters(direct)
    assert counters(reader)["geocode"]["calls"] > 0
    spans = service_spans(reader.tracer)
    assert len(spans) == stalls(reader) == len(service_spans(direct.tracer)) > 0
    assert {span.name for span in spans} == {"geocoder"}
    for handle in (direct, reader):
        handle.close()


def test_service_stats_count_only_the_handles_own_calls(match):
    """Another handle running on the session moves the session-wide
    cache block, not this handle's call counters."""
    session = session_for(match, latency_mode="cached")
    first = session.query(GEO_SQL)
    first.all()
    mine = counters(first)
    cache = first.service_stats["geocode"]["cache"]
    assert mine["geocode"]["calls"] > 0

    second = session.query(GEO_TEVEZ_SQL)
    second.all()
    assert counters(first) == mine
    assert first.service_stats["geocode"]["cache"] != cache
    assert session.geocode_managed.stats.calls == (
        mine["geocode"]["calls"] + counters(second)["geocode"]["calls"]
    )
    for handle in (first, second):
        handle.close()


def test_fanout_stats_use_the_handles_service_names(match):
    session = session_for(match, latency_mode="cached")
    group = session.shared()
    tenant = group.query(FANOUT_SQL)
    try:
        tenant.all()
    finally:
        group.close()
    fanout = group.fanout_service_stats
    assert set(fanout) == set(tenant.service_stats) == {"geocode", "entities"}
    assert fanout["geocode"].calls > 0
    assert tenant.service_stats["geocode"]["calls"] == 0


POOL = [GEO_SQL, GEO_TEVEZ_SQL, ENT_SQL, FANOUT_SQL, PLAIN_TEXT_SQL]


@given(
    plain=st.lists(st.sampled_from(POOL), max_size=2),
    shared=st.lists(st.sampled_from(POOL), min_size=1, max_size=3),
    mode=st.sampled_from(["blocking", "cached", "batched", "async"]),
    order=st.randoms(use_true_random=False),
)
@settings(max_examples=8, deadline=None)
def test_every_context_sums_to_the_session_counters(
    match, plain, shared, mode, order
):
    """Plain handles, a shared scan's fanout and its tenants, drained in
    any order: their counters add up to each session ManagedCall's own."""
    session = session_for(match, latency_mode=mode)
    handles = [session.query(sql) for sql in plain]
    group = session.shared()
    handles += [group.query(sql) for sql in shared]
    order.shuffle(handles)
    try:
        for handle in handles:
            handle.all()
    finally:
        group.close()
        for handle in handles:
            handle.close()

    for name, managed in (
        ("geocode", session.geocode_managed),
        ("entities", session.entities_managed),
    ):
        parts = [handle.service_stats[name] for handle in handles]
        parts.append(group.fanout_service_stats[name].as_dict())
        total = managed.stats.as_dict()
        for field in COUNTERS:
            summed = sum(part[field] for part in parts)
            if field in SECONDS:
                # as_dict rounds each part to 6 decimals.
                assert summed == pytest.approx(total[field], abs=1e-6 * len(parts))
            else:
                assert summed == total[field], (name, field)


@pytest.mark.chaos
def test_async_retry_chain_spans_land_on_the_launching_plan(match):
    """An async request whose retries relaunch while another plan is
    pulled records those retries in the tracer of the plan that launched
    it; the other plan, which calls no service, records none."""
    plan = FaultPlan(
        seed=101,
        services={
            "geocoder": ServiceFaultModel(
                failure_rate=0.3, max_burst=2, retry_after_seconds=0.4
            )
        },
    )
    # Partial results never stall, so the launcher's batch ends with its
    # requests still in the air; the other plan's pulls advance the clock
    # past their completions and relaunches.
    session = session_for(
        match, latency_mode="async", partial_results=True, tracing=True,
        retries=3, fault_plan=plan,
    )
    launcher = session.query(GEO_SQL)
    other = session.query(PLAIN_TEXT_SQL)
    launcher.fetch(20)
    launched = len(launcher.tracer.spans_of("retry"))
    other.all()
    relaunched = len(launcher.tracer.spans_of("retry"))
    launcher.all()
    for handle in (launcher, other):
        handle.close()

    retries = launcher.tracer.spans_of("retry")
    assert relaunched > launched, "a chain should retry during the other pull"
    assert any(span.attrs.get("path") == "async" for span in retries)
    assert len(retries) == session.geocode_resilient.resilience.retries
    assert service_spans(other.tracer) == []
