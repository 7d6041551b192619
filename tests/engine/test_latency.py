"""High-latency UDF machinery: caching, batching, async prefetch."""

import pytest

from repro.clock import VirtualClock
from repro.engine.latency import ManagedCall, PrefetchOperator
from repro.engine.types import ColumnBatch, EvalContext, batch_rows, iter_rows
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
    managed.prefetch(keys)
    after_prefetch = clock.now
    assert after_prefetch == pytest.approx(0.3 + 9 * 0.002)
    for key in keys:
        assert managed(key) == f"value:{key}"
    assert clock.now == after_prefetch  # all hits
    assert service.stats.batch_requests == 1


def test_batched_prefetch_chunks_by_service_limit():
    clock = VirtualClock(start=0.0)
    service = SimulatedWebService(
        "echo", lambda k: k, clock=clock,
        latency=LatencyModel(0.3, sigma=0.0), max_batch_size=4,
    )
    managed = ManagedCall(service, mode="batched")
    managed.prefetch([f"k{i}" for i in range(10)])
    assert service.stats.batch_requests == 3


def test_prefetch_dedupes_and_skips_cached():
    clock = VirtualClock(start=0.0)
    service = make_service(clock)
    managed = ManagedCall(service, mode="batched")
    managed.prefetch(["a", "a", "b"])
    assert service.stats.items == 2
    managed.prefetch(["a", "b", "c"])
    assert service.stats.items == 3  # only 'c' was new


def test_async_overlaps_with_stream_time():
    clock = VirtualClock(start=0.0)
    service = make_service(clock, mean=0.3)
    managed = ManagedCall(service, mode="async", pool_depth=8)
    managed.prefetch(["a", "b", "c"])
    assert clock.now == 0.0  # nothing blocked
    # Stream processing advances the clock past the completion time.
    clock.advance(0.5)
    assert managed("a") == "value:a"
    assert managed.stats.stalls == 0  # already landed


def test_async_stalls_only_until_request_lands():
    clock = VirtualClock(start=0.0)
    managed = ManagedCall(make_service(clock, mean=0.3), mode="async")
    managed.prefetch(["a"])
    value = managed("a")  # still in flight: stall to t=0.3
    assert value == "value:a"
    assert clock.now == pytest.approx(0.3)
    assert managed.stats.stalls == 1
    assert managed.stats.stall_seconds == pytest.approx(0.3)


def test_async_pool_depth_bounds_in_flight():
    clock = VirtualClock(start=0.0)
    service = make_service(clock, mean=0.3)
    managed = ManagedCall(service, mode="async", pool_depth=2)
    managed.prefetch([f"k{i}" for i in range(6)])
    assert service.stats.in_flight_high_water <= 2


def test_async_drain_completes_everything():
    clock = VirtualClock(start=0.0)
    managed = ManagedCall(make_service(clock), mode="async", pool_depth=8)
    managed.prefetch(["a", "b"])
    managed.drain()
    assert managed("a") == "value:a"
    assert managed.stats.stalls == 0


def test_prefetch_noop_for_blocking_and_cached():
    clock = VirtualClock(start=0.0)
    service = make_service(clock)
    managed = ManagedCall(service, mode="cached")
    managed.prefetch(["a", "b"])
    assert service.stats.requests == 0


def test_mode_validated():
    clock = VirtualClock(start=0.0)
    with pytest.raises(ValueError):
        ManagedCall(make_service(clock), mode="telepathic")
    with pytest.raises(ValueError):
        ManagedCall(make_service(clock), mode="async", pool_depth=0)


def test_batched_prefetch_charges_prefetch_seconds_not_stalls():
    clock = VirtualClock(start=0.0)
    managed = ManagedCall(make_service(clock), mode="batched")
    managed.prefetch([f"city{i}" for i in range(10)])
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
    managed.prefetch([f"k{i}" for i in range(5)])
    # Launching 5 requests through a depth-2 pool blocks on completions.
    assert managed.stats.stalls > 0
    assert managed.stats.stall_seconds > 0.0
    assert managed.stats.prefetch_seconds == 0.0


def prefetch_pipeline(rows, managed, batch_size):
    ctx = EvalContext(clock=managed.service.clock)
    return PrefetchOperator(
        batch_rows(rows, batch_size), [(managed, lambda row: row["loc"])], ctx
    )


def test_prefetch_operator_warms_downstream():
    clock = VirtualClock(start=0.0)
    service = make_service(clock)
    managed = ManagedCall(service, mode="batched")
    rows = [{"created_at": float(i), "loc": f"city{i % 3}"} for i in range(30)]
    out = []
    for row in iter_rows(prefetch_pipeline(rows, managed, 10)):
        out.append(managed(row["loc"]))
    assert len(out) == 30
    # Only 3 distinct keys existed; the batch path resolved them.
    assert service.stats.items == 3
    assert managed.stats.cache_hits == 30


def test_prefetch_operator_batch_of_one_degenerates_to_per_row():
    clock = VirtualClock(start=0.0)
    service = make_service(clock)
    managed = ManagedCall(service, mode="batched")
    rows = [{"created_at": float(i), "loc": f"city{i}"} for i in range(4)]
    out = list(iter_rows(prefetch_pipeline(rows, managed, 1)))
    assert len(out) == 4
    # One prefetch round trip per batch → per row at batch size 1.
    assert service.stats.batch_requests == 4


def test_prefetch_operator_partial_final_batch():
    clock = VirtualClock(start=0.0)
    service = make_service(clock)
    managed = ManagedCall(service, mode="batched")
    # 7 rows through batches of 3: the source runs dry mid-refill and the
    # final short batch still prefetches and flows downstream.
    rows = [{"created_at": float(i), "loc": f"city{i}"} for i in range(7)]
    batches = list(prefetch_pipeline(rows, managed, 3))
    assert [len(b) for b in batches] == [3, 3, 1]
    assert batches[-1].last
    assert service.stats.items == 7


def test_prefetch_operator_all_none_keys_skips_service():
    clock = VirtualClock(start=0.0)
    service = make_service(clock)
    managed = ManagedCall(service, mode="batched")
    rows = [{"created_at": float(i), "loc": None} for i in range(6)]
    out = list(iter_rows(prefetch_pipeline(rows, managed, 3)))
    assert len(out) == 6
    assert service.stats.batch_requests == 0
    assert service.stats.requests == 0


def test_prefetch_operator_dedupes_within_batch():
    clock = VirtualClock(start=0.0)
    service = make_service(clock)
    managed = ManagedCall(service, mode="batched")
    rows = [{"created_at": float(i), "loc": "boston"} for i in range(8)]
    list(iter_rows(prefetch_pipeline(rows, managed, 8)))
    # Eight copies of one key → a single-item batch request.
    assert service.stats.batch_requests == 1
    assert service.stats.items == 1


def test_prefetch_operator_skips_punctuation_rows():
    clock = VirtualClock(start=0.0)
    service = make_service(clock)
    managed = ManagedCall(service, mode="batched")
    ctx = EvalContext(clock=clock)
    batch = ColumnBatch.from_rows(
        [
            {"created_at": 0.0, "loc": "boston"},
            {"created_at": 1.0, "loc": "tokyo", "__punct__": True},
        ],
        last=True,
    )
    operator = PrefetchOperator(
        iter([batch]), [(managed, lambda row: row["loc"])], ctx
    )
    assert len(list(iter_rows(operator))) == 2
    assert service.stats.items == 1  # the punctuated row's key was skipped
