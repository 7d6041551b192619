"""E9 — Stream-processor throughput across operator mixes.

The engine must keep up with the stream it consumes ("view live streaming
results"). This bench measures tuples/second through representative
pipelines over a pre-generated firehose: filter-only, filter+project,
regex matching, windowed aggregation, grouped windowed aggregation, and
an eddy with three predicates — plus the sharded engine's workers sweep.

E9d writes ``BENCH_throughput.json`` into the ``$BENCH_OUTPUT`` directory
(a directory in every bench that reads it; default: the repo root):
rows/second for every batch-size × workers point over a static in-memory
source, the batch-size-1 ÷ batch-size-256 rows/s ratio of that same run
(one-row batches run scalar stages; the ratio keeps their cost visible),
plus the headline vectorized-vs-scalar speedups at batch 256: a
comparison-only filter chain (asserted ≥ 1.5x everywhere) and a
function-heavy projection (whole-column UDF calls, asserted ≥ 1.8x), and
the source side: the regex statement over the live twitter source against
the same statement over the same tweets' pre-built rows, lossless and at
the default 0.98 delivery ratio (asserted ≤ 1.0x both).
"""

import contextlib
import json
import os
import pathlib
import platform
import sys
import time

import pytest

from repro import EngineConfig, TweeQL
from repro.engine import planner

from benchmarks.conftest import SEED

PIPELINES = {
    "filter-only": (
        "SELECT text FROM twitter WHERE text contains 'soccer';",
        None,
    ),
    "filter-project-udf": (
        "SELECT lower(text) AS t, length(text) AS n, hour(created_at) AS h "
        "FROM twitter WHERE text contains 'soccer';",
        None,
    ),
    "regex-match": (
        "SELECT text FROM twitter WHERE text matches 'g[oa]+l';",
        None,
    ),
    "windowed-count": (
        "SELECT COUNT(*) AS n FROM twitter WHERE text contains 'soccer' "
        "WINDOW 1 minutes;",
        None,
    ),
    "grouped-avg": (
        "SELECT AVG(followers) AS f, lang FROM twitter "
        "WHERE text contains 'soccer' GROUP BY lang WINDOW 5 minutes;",
        None,
    ),
    "eddy-3-predicates": (
        "SELECT text FROM twitter WHERE text contains 'soccer' "
        "AND followers >= 0 AND length(text) > 10 AND lang = 'en';",
        EngineConfig(use_eddy=True),
    ),
}


@pytest.mark.parametrize("name", list(PIPELINES))
def test_pipeline_throughput(benchmark, soccer, name):
    sql, config = PIPELINES[name]

    def run():
        session = TweeQL.for_scenarios(soccer, config=config, seed=SEED)
        handle = session.query(sql)
        rows = handle.all()
        return rows

    rows = benchmark.pedantic(run, rounds=2, iterations=1)
    assert rows
    # The whole firehose flows through the connection's predicate even when
    # the API filter delivers only a fraction, so throughput is measured
    # against the stream size.
    tuples_per_second = len(soccer) / benchmark.stats.stats.mean
    print(f"\nE9 {name}: {len(soccer)} stream tweets → "
          f"{tuples_per_second:,.0f} tweets/s (wall)")
    # The engine must beat the simulated firehose's real-time rate by far.
    assert tuples_per_second > 10_000


def _parallelism_available() -> bool:
    """True only where shard threads can actually run concurrently.

    On a single-core box — or under the GIL — the sharded engine pays
    coordination overhead with no compute to overlap, so the speedup
    assertion would test the hardware, not the engine.
    """
    cores = os.cpu_count() or 1
    gil_enabled = getattr(sys, "_is_gil_enabled", lambda: True)()
    return cores >= 2 and not gil_enabled


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_sharded_throughput_sweep(benchmark, soccer, workers):
    """E9b — the grouped-window pipeline across worker counts.

    Records tuples/second at each worker count; asserts the >= 1.5x
    speedup at 4 workers only when the host can express parallelism.
    """
    sql = (
        "SELECT AVG(followers) AS f, lang FROM twitter "
        "WHERE text contains 'soccer' GROUP BY lang WINDOW 5 minutes;"
    )

    def run():
        session = TweeQL.for_scenarios(
            soccer, config=EngineConfig(workers=workers), seed=SEED
        )
        handle = session.query(sql)
        rows = handle.all()
        if workers > 1:
            explain = handle.explain()
            assert "Exchange" in explain and "Merge" in explain
        return rows

    rows = benchmark.pedantic(run, rounds=2, iterations=1)
    assert rows
    tuples_per_second = len(soccer) / benchmark.stats.stats.mean
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["tuples_per_second"] = round(tuples_per_second)
    print(f"\nE9b workers={workers}: {len(soccer)} stream tweets → "
          f"{tuples_per_second:,.0f} tweets/s (wall)")


def test_sharded_speedup(soccer):
    """The >= 1.5x acceptance criterion, gated on usable parallelism."""
    import time

    sql = (
        "SELECT AVG(followers) AS f, lang FROM twitter "
        "WHERE text contains 'soccer' GROUP BY lang WINDOW 5 minutes;"
    )

    def timed(workers: int) -> float:
        session = TweeQL.for_scenarios(
            soccer, config=EngineConfig(workers=workers), seed=SEED
        )
        start = time.perf_counter()
        session.query(sql).all()
        return time.perf_counter() - start

    serial = timed(1)
    sharded = timed(4)
    speedup = serial / sharded if sharded else float("inf")
    print(f"\nE9b speedup: serial {serial:.2f}s, 4 workers {sharded:.2f}s "
          f"→ {speedup:.2f}x (cores={os.cpu_count()}, "
          f"parallelism_available={_parallelism_available()})")
    if _parallelism_available():
        assert speedup >= 1.5, (
            f"expected >= 1.5x at 4 workers, measured {speedup:.2f}x"
        )


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("batch_size", [1, 64, 256, 1024])
def test_batch_size_sweep(benchmark, soccer, batch_size, workers):
    """E9c — the select+project pipeline across batch sizes and workers.

    batch_size=1 is the legacy row-at-a-time engine; larger batches
    amortize per-pull dispatch across the pipeline. Records rows/sec so
    the batching speedup lands in the bench trajectory.

    The predicate is deliberately NOT API-eligible (``length(text)`` is
    a function call): with ``contains`` the simulated API filter would
    drop ~99% of the firehose before the engine, and the bench would
    measure the stream simulator instead of operator dispatch.
    """
    sql = (
        "SELECT lower(text) AS t, length(text) AS n, hour(created_at) AS h "
        "FROM twitter WHERE length(text) > 10;"
    )

    def run():
        session = TweeQL.for_scenarios(
            soccer,
            config=EngineConfig(batch_size=batch_size, workers=workers),
            seed=SEED,
        )
        handle = session.query(sql)
        rows = handle.all()
        assert f"Batch: {batch_size} row" in handle.explain()
        return rows

    rows = benchmark.pedantic(run, rounds=2, iterations=1)
    assert rows
    tuples_per_second = len(soccer) / benchmark.stats.stats.mean
    benchmark.extra_info["batch_size"] = batch_size
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["tuples_per_second"] = round(tuples_per_second)
    print(f"\nE9c batch={batch_size} workers={workers}: "
          f"{len(soccer)} stream tweets → "
          f"{tuples_per_second:,.0f} tweets/s (wall)")


def test_batch_speedup(soccer):
    """The >= 1.3x batching acceptance criterion (single worker).

    Unlike the sharded speedup this needs no parallelism gate: batching
    amortizes interpreter dispatch on one thread, so the win survives
    the GIL and single-core hosts. Same non-API-eligible predicate as
    the sweep, for the same reason; the projection is plain columns so
    the measurement is dominated by the dispatch batching amortizes,
    not by per-row UDF evaluation (which costs the same either way).
    """
    import time

    sql = (
        "SELECT text, screen_name, followers FROM twitter "
        "WHERE length(text) > 10;"
    )

    def timed(batch_size: int) -> tuple[float, list]:
        session = TweeQL.for_scenarios(
            soccer, config=EngineConfig(batch_size=batch_size), seed=SEED
        )
        start = time.perf_counter()
        rows = session.query(sql).all()
        return time.perf_counter() - start, rows

    # Interleaved best-of-5: noise (CI neighbours, GC) only ever makes a
    # run slower, so the min of several runs converges on the true cost,
    # and alternating configs keeps a load spike from biasing one side.
    row_at_a_time = batched = float("inf")
    baseline_rows = batched_rows = None
    for _ in range(5):
        t, rows = timed(1)
        row_at_a_time, baseline_rows = min(row_at_a_time, t), rows
        t, rows = timed(256)
        batched, batched_rows = min(batched, t), rows
    assert batched_rows == baseline_rows
    speedup = row_at_a_time / batched if batched else float("inf")
    print(f"\nE9c speedup: batch=1 {row_at_a_time:.2f}s, "
          f"batch=256 {batched:.2f}s → {speedup:.2f}x")
    assert speedup >= 1.3, (
        f"expected >= 1.3x at batch_size=256, measured {speedup:.2f}x"
    )


# ---------------------------------------------------------------------------
# E9d — vectorized execution and sharding (BENCH_throughput.json)
# ---------------------------------------------------------------------------

#: A deterministic in-memory source: no stream simulator, no API filter,
#: so the measurements isolate operator dispatch (the thing whole-column
#: evaluation changes).
_STATIC_N = 60_000
_STATIC_SCHEMA = (
    "tweet_id", "text", "loc", "created_at", "lang", "followers"
)
_STATIC_ROWS = [
    {
        "tweet_id": i,
        "created_at": 1_307_000_000.0 + 0.5 * i,
        "text": ("goal scored " if i % 5 else "nothing ") + f"t{i}",
        "lang": ("en", "es", "pt")[i % 3],
        "followers": (37 * i) % 5000,
        "loc": "London",
    }
    for i in range(_STATIC_N)
]

#: Filter-heavy: seven vectorizable conjuncts over two integer columns,
#: selective enough that output handling stays a small fraction of the
#: work. This is the shape the vectorized path is built for.
_FILTER_HEAVY_SQL = (
    "SELECT tweet_id FROM s WHERE followers > 100 AND followers < 4900 "
    "AND tweet_id > 1000 AND tweet_id < 59000 AND followers <> 2500 "
    "AND tweet_id <> 30000 AND followers > 4000;"
)

#: Function-heavy: a call in the filter and two in the select list, all
#: mapped over whole columns instead of evaluated through per-row closures.
_UDF_HEAVY_SQL = (
    "SELECT lower(text) AS t, length(text) AS n FROM s "
    "WHERE length(text) > 10 AND followers > 100;"
)


def _static_session(**config_kwargs):
    session = TweeQL(config=EngineConfig(**config_kwargs))
    session.register_source(
        "s", lambda: iter(_STATIC_ROWS), _STATIC_SCHEMA
    )
    return session


@contextlib.contextmanager
def _scalar_only_planner():
    """Plans built inside attach no vector evaluator and no fused
    projector: every stage runs its scalar closure over ``batch.rows``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(planner, "compile_vector_expr", lambda *a, **k: None)
        patch.setattr(planner, "build_fused_projector", lambda pairs: None)
        yield


def _timed_run(session, sql, reps=3):
    """Best-of-N wall time for draining one query (min beats noise)."""
    best = float("inf")
    rows = None
    for _ in range(reps):
        start = time.perf_counter()
        handle = session.query(sql)
        rows = handle.all()
        best = min(best, time.perf_counter() - start)
        handle.close()
    return best, rows


@pytest.fixture(scope="module")
def throughput_report():
    """Collects E9d measurements; written as BENCH_throughput.json."""
    report = {
        "host": {
            "cores": os.cpu_count() or 1,
            "python": platform.python_version(),
            "gil_enabled": getattr(sys, "_is_gil_enabled", lambda: True)(),
        },
        "rows": _STATIC_N,
        "throughput": [],
    }
    yield report
    repo_root = pathlib.Path(__file__).resolve().parent.parent
    path = (
        pathlib.Path(os.environ.get("BENCH_OUTPUT", repo_root))
        / "BENCH_throughput.json"
    )
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\nE9d wrote {path}")


def test_throughput_matrix(throughput_report):
    """E9d — rows/second per batch-size × workers."""
    sql = (
        "SELECT text, followers FROM s "
        "WHERE followers > 500 AND text CONTAINS 'goal';"
    )
    expected = None
    for workers in (1, 4):
        for batch_size in (1, 64, 256, 1024):
            session = _static_session(batch_size=batch_size, workers=workers)
            seconds, rows = _timed_run(session, sql, reps=2)
            if expected is None:
                expected = rows
            assert rows == expected, (workers, batch_size)
            throughput_report["throughput"].append({
                "workers": workers,
                "batch_size": batch_size,
                "seconds": round(seconds, 4),
                "rows_per_second": round(_STATIC_N / seconds),
            })
    fastest = max(
        throughput_report["throughput"], key=lambda p: p["rows_per_second"]
    )
    print(f"\nE9d fastest point: {fastest}")
    # Ratio of the same run: what one row per batch (scalar stages; the
    # only shape ``now()`` queries get) costs against the default size.
    serial = {
        p["batch_size"]: p["rows_per_second"]
        for p in throughput_report["throughput"]
        if p["workers"] == 1
    }
    ratio = serial[1] / serial[256]
    throughput_report["batch1_vs_batch256"] = {
        "sql": sql,
        "workers": 1,
        "batch1_rows_per_second": serial[1],
        "batch256_rows_per_second": serial[256],
        "ratio": round(ratio, 3),
    }
    print(f"E9d batch 1 runs at {ratio:.2f}x the batch-256 rate")
    # ~0.20 measured; sending one-row batches through the vector path
    # instead reads ~0.09.
    assert ratio >= 0.12, (
        f"batch_size=1 fell to {ratio:.2f}x of batch_size=256 "
        "(one-row batches must stay on the scalar stages)"
    )


def test_vectorized_speedup(throughput_report):
    """The ≥ 1.5x vectorized-over-scalar acceptance criterion.

    Batch 256 both sides, same planner, same operators, same
    per-conjunct filter stages; the scalar side is planned while
    ``compile_vector_expr`` / ``build_fused_projector`` return None — the
    fallback every non-vectorizable expression runs. Asserted
    unconditionally: vectorization amortizes interpreter dispatch, so
    the win does not depend on cores or the GIL.
    """
    speedup = _vectorized_vs_scalar(
        throughput_report, "vectorized", _FILTER_HEAVY_SQL, "[vectorized 7/7]"
    )
    assert speedup >= 1.5, (
        f"expected >= 1.5x vectorized at batch 256, measured {speedup:.2f}x"
    )


def test_vectorized_udf_speedup(throughput_report):
    """The ≥ 1.8x whole-column-function acceptance criterion.

    Same method as :func:`test_vectorized_speedup`, over a projection
    whose filter and select list call functions: the scalar side pays a
    closure, an argument generator and the NULL-propagating wrapper per
    call per row; the vector side maps the raw function over the column.
    """
    speedup = _vectorized_vs_scalar(
        throughput_report, "vectorized_udf", _UDF_HEAVY_SQL, "[vectorized 2/2]"
    )
    assert speedup >= 1.8, (
        f"expected >= 1.8x vectorized UDF calls at batch 256, "
        f"measured {speedup:.2f}x"
    )


def _vectorized_vs_scalar(report, key, sql, explain_note):
    """Time ``sql`` at batch 256 on the default and the scalar-only plan
    (equal rows asserted), record both under ``report[key]`` and return
    the scalar ÷ columnar speedup."""
    session = _static_session(batch_size=256)
    assert explain_note in session.explain(sql)
    with _scalar_only_planner():
        assert "[vectorized" not in session.explain(sql)
    # Interleaved best-of-5 (noise only ever slows a run down). Plans are
    # built inside _timed_run, so the patch decides which one runs.
    scalar_s = columnar_s = float("inf")
    scalar_rows = columnar_rows = None
    for _ in range(5):
        with _scalar_only_planner():
            t, rows = _timed_run(session, sql, reps=1)
        scalar_s, scalar_rows = min(scalar_s, t), rows
        t, rows = _timed_run(session, sql, reps=1)
        columnar_s, columnar_rows = min(columnar_s, t), rows
    assert columnar_rows == scalar_rows
    speedup = scalar_s / columnar_s if columnar_s else float("inf")
    report[key] = {
        "sql": sql,
        "batch_size": 256,
        "scalar_seconds": round(scalar_s, 4),
        "columnar_seconds": round(columnar_s, 4),
        "speedup": round(speedup, 2),
        "asserted": True,
    }
    print(f"\nE9d {key}: scalar {scalar_s*1000:.1f}ms, "
          f"columnar {columnar_s*1000:.1f}ms → {speedup:.2f}x")
    return speedup


#: The benchmark's regex statement: a column filter, then a field-only
#: projection that reads row dicts for the survivors.
_REGEX_SQL = (
    "SELECT text, screen_name FROM {source} "
    "WHERE text matches 'g[oa]+l' AND lang = 'en';"
)


@pytest.mark.parametrize("delivery_ratio", [1.0, 0.98])
def test_tweet_source_not_slower_than_prebuilt_rows(
    soccer, throughput_report, delivery_ratio
):
    """The ≤ 1.0x source-side criterion: scanning the live twitter source
    (stream chunks, tweet-backed batches) costs no more than scanning the
    same tweets' ``to_row()`` dicts built ahead of time and registered as
    an in-memory source.

    Same session for both, interleaved best-of-5 (as in
    :func:`test_batch_speedup`). Run lossless, where both sides see every
    tweet and equal rows are asserted, and at the sessions' default
    delivery ratio, where the stream draws per match and delivers a
    subsequence of the pre-built rows' answer.
    """
    rows = [tweet.to_row() for tweet in soccer.tweets]
    session = TweeQL.for_scenarios(
        soccer, delivery_ratio=delivery_ratio, seed=SEED
    )
    session.register_source(
        "mem",
        lambda: iter(rows),
        tuple(k for k in rows[0] if not k.startswith("__")),
    )
    twitter_s = prebuilt_s = float("inf")
    twitter_rows = prebuilt_rows = None
    for _ in range(5):
        t, twitter_rows = _timed_run(
            session, _REGEX_SQL.format(source="twitter"), reps=1
        )
        twitter_s = min(twitter_s, t)
        t, prebuilt_rows = _timed_run(
            session, _REGEX_SQL.format(source="mem"), reps=1
        )
        prebuilt_s = min(prebuilt_s, t)
    assert twitter_rows
    if delivery_ratio == 1.0:
        assert twitter_rows == prebuilt_rows
    else:
        remaining = iter(prebuilt_rows)
        assert all(row in remaining for row in twitter_rows)  # subsequence
        assert len(twitter_rows) < len(prebuilt_rows)
    ratio = twitter_s / prebuilt_s
    key = "tweet_source_vs_prebuilt_rows"
    if delivery_ratio < 1.0:
        key += f"@{delivery_ratio:g}"
    throughput_report[key] = {
        "sql": _REGEX_SQL.format(source="twitter"),
        "delivery_ratio": delivery_ratio,
        "tweets": len(soccer.tweets),
        "twitter_seconds": round(twitter_s, 4),
        "prebuilt_rows_seconds": round(prebuilt_s, 4),
        "ratio": round(ratio, 3),
        "asserted": True,
    }
    print(f"\nE9d tweet source (delivery {delivery_ratio:g}) "
          f"{twitter_s*1000:.1f}ms, pre-built rows "
          f"{prebuilt_s*1000:.1f}ms → {ratio:.2f}x")
    assert ratio <= 1.0, (
        f"the twitter source took {ratio:.2f}x the pre-built-rows scan"
    )


def test_parse_plan_execute_smoke(benchmark, chatter):
    """Fixed small pipeline for regression tracking."""
    def run():
        session = TweeQL.for_scenarios(chatter, seed=SEED)
        return session.query(
            "SELECT COUNT(*) AS n FROM twitter WINDOW 10 minutes;"
        ).all()

    rows = benchmark.pedantic(run, rounds=3, iterations=1)
    assert rows
