"""E12 — Multi-tenant shared scan vs N independent sessions.

The scaling argument for the shared-scan layer: a TwitInfo-style service
tracking 8 events pays for 8 full firehose connections and 8 scans when
each query runs alone, but one connection and one scan when they ride a
:class:`SharedScanGroup`. This bench runs the same 8 tenant queries both
ways over the Figure-1 match and asserts the aggregate-throughput win.

Lossless delivery is pinned so the two sides are row-for-row comparable
(the equivalence the tests prove is re-checked here before timing is
trusted).
"""

import time

import pytest

from repro import TweeQL

from benchmarks.conftest import SEED

#: Eight tenants sharing one filter prefix, with varied residual work —
#: the shape a dashboard tracking one event for eight users produces.
TENANT_SQLS = [
    "SELECT text FROM twitter WHERE text contains 'soccer';",
    "SELECT lower(text) AS t FROM twitter WHERE text contains 'soccer';",
    "SELECT length(text) AS n, text FROM twitter WHERE text contains 'soccer';",
    "SELECT screen_name, followers FROM twitter WHERE text contains 'soccer';",
    "SELECT hour(created_at) AS h, text FROM twitter "
    "WHERE text contains 'soccer';",
    "SELECT sentiment(text) AS s FROM twitter WHERE text contains 'soccer';",
    "SELECT COUNT(*) AS n FROM twitter WHERE text contains 'soccer' "
    "WINDOW 5 minutes;",
    "SELECT AVG(followers) AS f, lang FROM twitter "
    "WHERE text contains 'soccer' GROUP BY lang WINDOW 5 minutes;",
]


def _session(soccer):
    return TweeQL.for_scenarios(soccer, delivery_ratio=1.0, seed=SEED)


def _run_shared(soccer):
    session = _session(soccer)
    with session.shared() as group:
        handles = [group.query(sql) for sql in TENANT_SQLS]
        return [handle.all() for handle in handles]


def _run_independent(soccer):
    results = []
    for sql in TENANT_SQLS:
        session = _session(soccer)
        handle = session.query(sql)
        results.append(handle.all())
        handle.close()
    return results


def test_shared_scan_throughput(benchmark, soccer):
    """Trajectory entry: aggregate tuples/second with 8 shared tenants."""
    results = benchmark.pedantic(lambda: _run_shared(soccer), rounds=2, iterations=1)
    assert all(results)
    # Aggregate throughput: 8 tenants' views of the stream per wall second.
    tuples_per_second = len(TENANT_SQLS) * len(soccer) / benchmark.stats.stats.mean
    benchmark.extra_info["tenants"] = len(TENANT_SQLS)
    benchmark.extra_info["tuples_per_second"] = round(tuples_per_second)
    print(f"\nE12 shared: {len(TENANT_SQLS)} tenants x {len(soccer)} tweets → "
          f"{tuples_per_second:,.0f} tenant-tweets/s (wall)")


def test_independent_sessions_throughput(benchmark, soccer):
    """The baseline the speedup gate compares against."""
    results = benchmark.pedantic(
        lambda: _run_independent(soccer), rounds=2, iterations=1
    )
    assert all(results)
    tuples_per_second = len(TENANT_SQLS) * len(soccer) / benchmark.stats.stats.mean
    benchmark.extra_info["tenants"] = len(TENANT_SQLS)
    benchmark.extra_info["tuples_per_second"] = round(tuples_per_second)
    print(f"\nE12 independent: {len(TENANT_SQLS)} sessions x {len(soccer)} "
          f"tweets → {tuples_per_second:,.0f} tenant-tweets/s (wall)")


def test_shared_scan_speedup(soccer):
    """The >= 4x acceptance criterion: 8 tenants on one scan beat 8
    independent sessions on aggregate throughput.

    The win is *work elimination* (1 scan instead of 8, the shared filter
    evaluated once per row over whole columns), not parallelism: the
    group runs on the consumer's thread, so it holds on single-core
    hosts (6.5-7.9x measured on a 2-vCPU VM with CPython 3.11).
    Interleaved best-of-3 min timing — noise only ever slows a run down,
    so the min converges on the true cost, and alternating sides keeps a
    load spike from biasing one of them.
    """
    shared_rows = _run_shared(soccer)
    independent_rows = _run_independent(soccer)

    def strip(results):
        return [
            [
                {k: v for k, v in row.items() if not k.startswith("__")}
                for row in rows
            ]
            for rows in results
        ]

    assert strip(shared_rows) == strip(independent_rows)

    shared = independent = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _run_shared(soccer)
        shared = min(shared, time.perf_counter() - start)
        start = time.perf_counter()
        _run_independent(soccer)
        independent = min(independent, time.perf_counter() - start)

    speedup = independent / shared if shared else float("inf")
    print(f"\nE12 speedup: independent {independent:.2f}s, "
          f"shared {shared:.2f}s → {speedup:.2f}x aggregate throughput "
          f"({len(TENANT_SQLS)} tenants)")
    assert speedup >= 4.0, (
        f"expected >= 4x aggregate throughput from the shared scan, "
        f"measured {speedup:.2f}x"
    )


if __name__ == "__main__":
    pytest.main([__file__, "-q", "-s"])
