"""High-latency UDF machinery: caching, batching, async requests, all
through ``ManagedCall.resolve``'s warm and look-up phases."""

import pytest

from repro.clock import VirtualClock
from repro.engine.latency import ManagedCall
from repro.engine.types import batch_rows
from repro.errors import ServiceError
from repro.geo.service import LatencyModel, SimulatedWebService


def make_service(clock, mean=0.3, per_item=0.002):
    return SimulatedWebService(
        "echo",
        lambda key: f"value:{key}",
        clock=clock,
        latency=LatencyModel(mean, sigma=0.0, per_item_seconds=per_item),
    )


def test_blocking_pays_full_latency_every_call():
    clock = VirtualClock(start=0.0)
    managed = ManagedCall(make_service(clock), mode="blocking")
    for _ in range(5):
        assert managed("boston") == "value:boston"
    assert clock.now == pytest.approx(1.5)
    assert managed.cache is None


def test_cached_pays_once_per_key():
    clock = VirtualClock(start=0.0)
    managed = ManagedCall(make_service(clock), mode="cached")
    for _ in range(5):
        managed("boston")
    managed("tokyo")
    assert clock.now == pytest.approx(0.6)  # two round trips only
    assert managed.stats.cache_hits == 4


def test_cached_negative_caching():
    clock = VirtualClock(start=0.0)
    service = SimulatedWebService(
        "geocoder", lambda key: None, clock=clock,
        latency=LatencyModel(0.3, sigma=0.0),
    )
    managed = ManagedCall(service, mode="cached")
    assert managed("nowhere") is None
    assert managed("nowhere") is None
    assert service.stats.requests == 1  # the failure was cached


def test_negative_cache_disabled():
    clock = VirtualClock(start=0.0)
    service = SimulatedWebService(
        "geocoder", lambda key: None, clock=clock,
        latency=LatencyModel(0.3, sigma=0.0),
    )
    managed = ManagedCall(service, mode="cached", negative_cache=False)
    managed("nowhere")
    managed("nowhere")
    assert service.stats.requests == 2


def test_service_error_returns_none():
    clock = VirtualClock(start=0.0)

    def resolver(_key):
        raise ServiceError("down")

    service = SimulatedWebService(
        "down", resolver, clock=clock, latency=LatencyModel(0.1, sigma=0.0)
    )
    managed = ManagedCall(service, mode="cached")
    assert managed("x") is None


def test_batched_prefetch_amortizes():
    clock = VirtualClock(start=0.0)
    service = make_service(clock)
    managed = ManagedCall(service, mode="batched")
    keys = [f"city{i}" for i in range(10)]
    assert managed.resolve(keys) == [f"value:{key}" for key in keys]
    after_resolve = clock.now
    assert after_resolve == pytest.approx(0.3 + 9 * 0.002)
    for key in keys:
        assert managed(key) == f"value:{key}"
    assert clock.now == after_resolve  # all hits
    assert service.stats.batch_requests == 1


def test_batched_prefetch_chunks_by_service_limit():
    clock = VirtualClock(start=0.0)
    service = SimulatedWebService(
        "echo", lambda k: k, clock=clock,
        latency=LatencyModel(0.3, sigma=0.0), max_batch_size=4,
    )
    managed = ManagedCall(service, mode="batched")
    managed.resolve([f"k{i}" for i in range(10)])
    assert service.stats.batch_requests == 3


def test_prefetch_dedupes_and_skips_cached():
    clock = VirtualClock(start=0.0)
    service = make_service(clock)
    managed = ManagedCall(service, mode="batched")
    managed.resolve(["a", "a", "b"])
    assert service.stats.items == 2
    managed.resolve(["a", "b", "c"])
    assert service.stats.items == 3  # only 'c' was new


def test_async_overlaps_with_stream_time():
    clock = VirtualClock(start=0.0)
    service = make_service(clock, mean=0.3)
    # Partial results: the warm phase launches, the lookups never block.
    managed = ManagedCall(
        service, mode="async", pool_depth=8, partial_results=True
    )
    assert managed.resolve(["a", "b", "c"]) == [None, None, None]
    assert clock.now == 0.0  # nothing blocked
    # Stream processing advances the clock past the completion time.
    clock.advance(0.5)
    assert managed("a") == "value:a"
    assert managed.stats.stalls == 0  # already landed


def test_async_stalls_only_until_request_lands():
    clock = VirtualClock(start=0.0)
    managed = ManagedCall(make_service(clock, mean=0.3), mode="async")
    (value,) = managed.resolve(["a"])  # launched, then stall to t=0.3
    assert value == "value:a"
    assert clock.now == pytest.approx(0.3)
    assert managed.stats.stalls == 1
    assert managed.stats.stall_seconds == pytest.approx(0.3)


def test_async_pool_depth_bounds_in_flight():
    clock = VirtualClock(start=0.0)
    service = make_service(clock, mean=0.3)
    managed = ManagedCall(service, mode="async", pool_depth=2)
    managed.resolve([f"k{i}" for i in range(6)])
    assert service.stats.in_flight_high_water <= 2


def test_async_drain_completes_everything():
    clock = VirtualClock(start=0.0)
    managed = ManagedCall(
        make_service(clock), mode="async", pool_depth=8, partial_results=True
    )
    managed.resolve(["a", "b"])
    managed.drain()
    assert managed("a") == "value:a"
    assert managed.stats.stalls == 0


def test_prefetch_noop_for_blocking_and_cached():
    clock = VirtualClock(start=0.0)
    service = make_service(clock)
    managed = ManagedCall(service, mode="cached")
    managed.resolve(["a", "b"])
    # No warm phase: each key took its own blocking round trip.
    assert service.stats.batch_requests == 0
    assert managed.stats.prefetched == 0
    assert managed.stats.stalls == service.stats.requests == 2


def test_mode_validated():
    clock = VirtualClock(start=0.0)
    with pytest.raises(ValueError):
        ManagedCall(make_service(clock), mode="telepathic")
    with pytest.raises(ValueError):
        ManagedCall(make_service(clock), mode="async", pool_depth=0)


def test_batched_prefetch_charges_prefetch_seconds_not_stalls():
    clock = VirtualClock(start=0.0)
    managed = ManagedCall(make_service(clock), mode="batched")
    managed.resolve([f"city{i}" for i in range(10)])
    # The round trip advanced the clock, but no consumer was blocked.
    assert managed.stats.prefetch_seconds == pytest.approx(clock.now)
    assert managed.stats.stall_seconds == 0.0
    assert managed.stats.stalls == 0
    d = managed.stats.as_dict()
    assert d["prefetch_seconds"] == pytest.approx(clock.now)
    assert d["stall_seconds"] == 0.0


def test_async_pool_full_wait_still_counts_as_stall():
    clock = VirtualClock(start=0.0)
    managed = ManagedCall(make_service(clock, mean=0.3), mode="async",
                          pool_depth=2)
    managed.resolve([f"k{i}" for i in range(5)])
    # Launching 5 requests through a depth-2 pool blocks on completions.
    assert managed.stats.stalls > 0
    assert managed.stats.stall_seconds > 0.0
    assert managed.stats.prefetch_seconds == 0.0


def resolve_per_batch(rows, managed, batch_size):
    """Frame ``rows`` into batches and resolve each batch's ``loc`` column
    with one call, as a service-backed builtin does; returns the batches."""
    batches = list(batch_rows(rows, batch_size))
    for batch in batches:
        managed.resolve(batch.values("loc"))
    return batches


def test_prefetch_operator_warms_downstream():
    clock = VirtualClock(start=0.0)
    service = make_service(clock)
    managed = ManagedCall(service, mode="batched")
    rows = [{"created_at": float(i), "loc": f"city{i % 3}"} for i in range(30)]
    resolve_per_batch(rows, managed, 10)
    # Only 3 distinct keys existed; the batch path resolved them.
    assert service.stats.items == 3
    assert managed.stats.cache_hits == 30


def test_prefetch_operator_batch_of_one_degenerates_to_per_row():
    clock = VirtualClock(start=0.0)
    service = make_service(clock)
    managed = ManagedCall(service, mode="batched")
    rows = [{"created_at": float(i), "loc": f"city{i}"} for i in range(4)]
    resolve_per_batch(rows, managed, 1)
    # One batch round trip per batch → per row at batch size 1.
    assert service.stats.batch_requests == 4


def test_prefetch_operator_partial_final_batch():
    clock = VirtualClock(start=0.0)
    service = make_service(clock)
    managed = ManagedCall(service, mode="batched")
    # 7 rows through batches of 3: the final short batch still resolves.
    rows = [{"created_at": float(i), "loc": f"city{i}"} for i in range(7)]
    batches = resolve_per_batch(rows, managed, 3)
    assert [len(b) for b in batches] == [3, 3, 1]
    assert batches[-1].last
    assert service.stats.items == 7


def test_prefetch_operator_all_none_keys_skips_service():
    clock = VirtualClock(start=0.0)
    service = make_service(clock)
    managed = ManagedCall(service, mode="batched")
    assert managed.resolve([None] * 3) == [None] * 3
    assert managed.stats.calls == 0  # NULL keys are not counted
    assert service.stats.batch_requests == 0
    assert service.stats.requests == 0


def test_prefetch_operator_dedupes_within_batch():
    clock = VirtualClock(start=0.0)
    service = make_service(clock)
    managed = ManagedCall(service, mode="batched")
    assert managed.resolve(["boston"] * 8) == ["value:boston"] * 8
    # Eight copies of one key → a single-item batch request.
    assert service.stats.batch_requests == 1
    assert service.stats.items == 1


def test_cache_counts_every_lookup_once():
    """Each lookup is one counted cache probe, so misses show up and the
    hit rate is not stuck at 100%."""
    clock = VirtualClock(start=0.0)
    managed = ManagedCall(make_service(clock), mode="cached")
    for key in ("a", "a", "b", "a"):
        managed(key)
    assert managed.stats.cache_hits == managed.cache.stats.hits == 2
    assert managed.cache.stats.misses == 2
    assert managed.cache.stats.hit_rate == 0.5
