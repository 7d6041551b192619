"""Cross-tenant service-cache sharing: attribution and reconciliation.

Tenants on one session share the ManagedCall LRUs by construction; the
group's :class:`SharedServiceCache` attributes that sharing — who first
requested each key, and how many hits crossed tenant boundaries — with an
ownership map no larger than the cache. These tests pin the attribution
invariants and, critically, that the call counters *reconcile*: the
tenants' counters + the fanout's sum exactly to the session's global
ManagedCall counters, and the metrics registry reports the same numbers.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineConfig, TweeQL
from repro.clock import VirtualClock
from repro.engine.latency import ManagedCall
from repro.engine.multitenant import SharedServiceCache
from repro.geo.service import LatencyModel, SimulatedWebService

from tests.multitenant.conftest import SEED, clean, run_independent

GEO_SQL = "SELECT latitude(loc) AS la FROM twitter WHERE text contains 'goal';"
GEO_SQLS = [
    GEO_SQL,
    "SELECT latitude(loc) AS la, longitude(loc) AS lo FROM twitter "
    "WHERE text contains 'goal';",
    "SELECT longitude(loc) AS lo, text FROM twitter WHERE text contains 'goal';",
    "SELECT latitude(loc) AS la, screen_name FROM twitter "
    "WHERE text contains 'goal';",
]


def _fresh(mini_soccer):
    return TweeQL.for_scenarios(mini_soccer, delivery_ratio=1.0, seed=SEED)


@given(tenants=st.integers(min_value=2, max_value=4))
@settings(max_examples=4, deadline=None)
def test_cross_tenant_geocode_hits(mini_soccer, tenants):
    """N tenants geocoding the same substream: every key is owned by one
    tenant, so the others' lookups must show up as cross-tenant hits —
    and the attribution counters stay internally consistent."""
    session = _fresh(mini_soccer)
    group = session.shared()
    handles = [group.query(GEO_SQLS[i]) for i in range(tenants)]
    try:
        rows = [clean(h.all()) for h in handles]
    finally:
        group.close()
    for i in range(tenants):
        assert rows[i] == run_independent(mini_soccer, GEO_SQLS[i])

    stats = group.shared_cache.service_stats("geocoder")
    assert stats.requests > 0
    assert 0 < stats.hits <= stats.requests
    assert 0 < stats.cross_tenant_hits <= stats.hits
    assert 0.0 < stats.cross_tenant_hit_rate <= stats.hit_rate <= 1.0
    as_dict = group.shared_cache.as_dict()["geocoder"]
    assert as_dict["cross_tenant_hits"] == stats.cross_tenant_hits


def test_tenant_mirrors_reconcile_with_session_globals(mini_soccer):
    """sum(per-tenant counters) + the fanout's == the session ManagedCall's
    own counters — no call is double-counted or lost, even when a WHERE
    conjunct sends service traffic through the fanout context."""
    session = _fresh(mini_soccer)
    group = session.shared()
    # Tenant-side geocoding plus a fanout-side conjunct that geocodes.
    h1 = group.query(GEO_SQL)
    h2 = group.query(
        "SELECT text FROM twitter "
        "WHERE text contains 'goal' AND latitude(loc) > -90.0;"
    )
    try:
        rows1 = clean(h1.all())
        rows2 = clean(h2.all())
    finally:
        group.close()
    assert rows1 == run_independent(mini_soccer, GEO_SQL)
    assert rows2  # the conjunct keeps geocodable rows

    tenant_calls = 0
    tenant_hits = 0
    for handle in group.handles:
        mirror = handle.service_stats.get("geocode")
        if mirror is not None:
            tenant_calls += mirror["calls"]
            tenant_hits += mirror["cache_hits"]
    fanout = group.fanout_service_stats["geocode"]
    globals_ = session.geocode_managed.stats
    assert tenant_calls + fanout.calls == globals_.calls
    assert tenant_hits + fanout.cache_hits == globals_.cache_hits
    assert fanout.calls > 0  # the conjunct really ran fanout-side


def test_shared_cache_stats_match_metrics_registry(mini_soccer):
    """The regression from the satellite list: per-tenant service_stats
    and the group's cache tree agree with the metrics registry view."""
    session = _fresh(mini_soccer)
    group = session.shared()
    handles = [group.query(GEO_SQLS[0]), group.query(GEO_SQLS[1])]
    try:
        for handle in handles:
            handle.all()
    finally:
        group.close()

    tree = group.stats_dict()
    snapshot = group.metrics().snapshot()["shared"]
    assert snapshot["cache"]["geocoder"]["requests"] == (
        tree["cache"]["geocoder"]["requests"]
    )
    assert snapshot["cache"]["geocoder"]["cross_tenant_hits"] == (
        group.shared_cache.service_stats("geocoder").cross_tenant_hits
    )
    assert snapshot["group"]["rows_routed"] == group.stats.rows_routed
    # The shared-cache request count is the sum of what the tenants saw.
    tenant_requests = sum(
        handle.service_stats["geocode"]["calls"] for handle in group.handles
    )
    assert tree["cache"]["geocoder"]["requests"] == tenant_requests


def test_key_owners_are_capped_at_the_cache_capacity(mini_soccer):
    """The ownership map holds no more keys than the LRU it attributes:
    with an 8-entry geocode cache, two geocoding tenants over far more
    than 8 distinct locations leave exactly 8 owned keys."""
    session = TweeQL.for_scenarios(
        mini_soccer, config=EngineConfig(cache_capacity=8),
        delivery_ratio=1.0, seed=SEED,
    )
    group = session.shared()
    handles = [group.query(GEO_SQLS[0]), group.query(GEO_SQLS[1])]
    try:
        for handle in handles:
            handle.all()
    finally:
        group.close()
    assert session.geocode_managed.cache.stats.evictions > 0
    assert len(group.shared_cache._owners["geocoder"]) == 8


def test_key_owners_forget_the_least_recently_requested_key():
    """Past capacity the map drops the key requested longest ago, so a
    later hit on it is attributed to whoever requests it next."""
    clock = VirtualClock()
    service = SimulatedWebService(
        "svc", str, clock=clock, latency=LatencyModel(0.0, sigma=0.0)
    )
    call = ManagedCall(service, mode="cached", cache_capacity=2)
    shared = SharedServiceCache()
    shared.record(call, 0, "a", hit=False)
    shared.record(call, 0, "b", hit=False)
    shared.record(call, 1, "a", hit=True)  # refreshes "a"; owner stays 0
    shared.record(call, 1, "c", hit=False)  # evicts "b"
    assert dict(shared._owners["svc"]) == {"a": 0, "c": 1}
    shared.record(call, 1, "b", hit=False)  # "b" is tenant 1's now
    shared.record(call, 1, "b", hit=True)
    stats = shared.service_stats("svc")
    assert (stats.requests, stats.hits, stats.cross_tenant_hits) == (6, 2, 1)
