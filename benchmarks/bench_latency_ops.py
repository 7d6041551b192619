"""E5 — High-latency operators: caching, batching, async iteration.

The paper: web-service calls "optimistically take hundreds of milliseconds
apiece" and the engine responds with caching, batching, and asynchronous
iteration (WSQ/DSQ). This bench runs the same geocode-heavy query under
the four modes and reports *virtual* stall time (what a wall clock would
have measured against the real service), plus requests, batch round
trips, and cache hits.

Expected shape: blocking ≫ cached ≫ batched ≈ async in stall time; the
async pool bounds stalls by its depth; the advantage grows with the Zipf
repetition of profile locations.
"""

import pytest

from repro import EngineConfig, TweeQL
from repro.geo.service import LatencyModel

from benchmarks.conftest import SEED, print_table

SQL = (
    "SELECT latitude(loc) AS lat, longitude(loc) AS lon FROM twitter "
    "WHERE text contains 'soccer' LIMIT 400;"
)

MODES = ("blocking", "cached", "batched", "async")


def run_mode(soccer, mode, cache_capacity=10_000, pool_depth=8,
             partial_results=False):
    config = EngineConfig(
        latency_mode=mode,
        cache_capacity=cache_capacity,
        pool_depth=pool_depth,
        partial_results=partial_results,
        geocode_latency=LatencyModel(0.3, sigma=0.25),
    )
    session = TweeQL.for_scenarios(soccer, config=config, seed=SEED)
    rows = session.query(SQL).all()
    managed = session.geocode_managed
    service = session.geocode_service
    return {
        "rows": len(rows),
        "lats": [row["lat"] for row in rows],
        "stall_seconds": managed.stats.stall_seconds,
        "requests": service.stats.requests,
        "batch_requests": service.stats.batch_requests,
        "cache_hits": managed.stats.cache_hits,
        "service_busy": service.stats.virtual_seconds_busy,
        "partials": managed.stats.partials,
        "nulls": sum(1 for row in rows if row["lat"] is None),
    }


def test_latency_modes(benchmark, soccer):
    results = {}

    def run_all():
        for mode in MODES:
            results[mode] = run_mode(soccer, mode)
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    print_table(
        "E5 geocode UDF under the four latency strategies (400 tweets, "
        "~300 ms/virtual call)",
        ["mode", "stall (virtual s)", "requests", "batch RTs", "cache hits"],
        [
            (
                mode,
                f"{r['stall_seconds']:.1f}",
                r["requests"],
                r["batch_requests"],
                r["cache_hits"],
            )
            for mode, r in results.items()
        ],
    )

    # All four modes compute identical results.
    for mode in MODES[1:]:
        assert results[mode]["lats"] == results["blocking"]["lats"]

    stall = {mode: r["stall_seconds"] for mode, r in results.items()}
    # Caching removes repeated-location round trips.
    assert stall["cached"] < stall["blocking"] * 0.6
    # Batching amortizes round trips below even the cached cost.
    assert stall["batched"] < stall["cached"] * 0.25
    # Async overlaps requests with stream time: order-of-magnitude saving.
    assert stall["async"] < stall["blocking"] * 0.1


@pytest.mark.parametrize("pool_depth", [1, 4, 16])
def test_ablation_async_pool_depth(benchmark, soccer, pool_depth):
    result = benchmark.pedantic(
        lambda: run_mode(soccer, "async", pool_depth=pool_depth),
        rounds=1, iterations=1,
    )
    print(f"\nE5-ablation pool_depth={pool_depth}: "
          f"stall={result['stall_seconds']:.1f}s "
          f"requests={result['requests']}")
    assert result["rows"] == 400


@pytest.mark.parametrize("cache_capacity", [8, 64, 10_000])
def test_ablation_cache_capacity(benchmark, soccer, cache_capacity):
    result = benchmark.pedantic(
        lambda: run_mode(soccer, "cached", cache_capacity=cache_capacity),
        rounds=1, iterations=1,
    )
    print(f"\nE5-ablation cache_capacity={cache_capacity}: "
          f"stall={result['stall_seconds']:.1f}s hits={result['cache_hits']}")
    assert result["rows"] == 400


def test_partial_results_tradeoff(benchmark, soccer):
    """Ablation: Raman & Hellerstein-style partial results — zero stalls
    in exchange for NULLs on values still in flight. The paper names this
    data model as the complement of asynchronous iteration."""
    results = {}

    def run():
        results["stalling"] = run_mode(soccer, "async", pool_depth=2)
        results["partial"] = run_mode(
            soccer, "async", pool_depth=2, partial_results=True
        )
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "E5 partial-results ablation (async, pool depth 2)",
        ["variant", "stall (virtual s)", "NULL rows", "partials"],
        [
            (
                name,
                f"{r['stall_seconds']:.1f}",
                r["nulls"],
                r["partials"],
            )
            for name, r in results.items()
        ],
    )
    assert results["partial"]["stall_seconds"] < results["stalling"]["stall_seconds"]
    assert results["partial"]["nulls"] >= results["stalling"]["nulls"]


def test_pool_depth_ordering(soccer, benchmark):
    """Deeper pools stall less (until the lookahead window is the limit)."""
    stalls = {}

    def run():
        for depth in (1, 4, 16):
            stalls[depth] = run_mode(soccer, "async", pool_depth=depth)[
                "stall_seconds"
            ]
        return stalls

    benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nE5 pool-depth stalls: {stalls}")
    assert stalls[16] <= stalls[4] <= stalls[1]
