"""E12 — The hybrid tier's two performance promises.

1. **Instant backfill**: serving the first N event rows from the
   historical store must beat waiting on the live stream by >= 10x. In a
   real deployment the live stream arrives in real time, so the live
   cost is the *stream* time between the first and Nth delivered row —
   here that is virtual-clock seconds, which the simulator exposes
   directly. The backfill cost is the wall-clock time the store takes to
   hand back the same rows (its virtual cost is zero: the clock never
   advances). Both are reported; the gate compares them.
2. **Cheap archival**: the StorageWriter tap on the live path must cost
   < 5% wall clock versus the same query with no store configured
   (best-of-rounds to shave scheduler noise). The gate prices the
   *synchronous* tap — the buffer-append the live thread actually pays —
   by deferring the drain thread; a real deployment absorbs the drain's
   CPU into the stream's network-wait gaps, which the virtual clock
   collapses to zero, so wall clock with the drain running concurrently
   is reported alongside but not gated.

Writes ``BENCH_backfill.json`` into the ``$BENCH_OUTPUT`` directory
(default: the current directory) and leaves the populated store at
``bench_backfill_store.db`` next to it —
CI uploads both, so every build ships an inspectable archive.
"""

import json
import os
import pathlib
import time

from repro import EngineConfig, TweeQL
from repro.storage import HistoricalStore

from benchmarks.conftest import SEED, print_table

FETCH_ROWS = 1500
OVERHEAD_ROUNDS = 5
LIVE_SQL = (
    "SELECT tweet_id, text, created_at FROM twitter "
    "WHERE text CONTAINS 'tevez';"
)


def _output_dir() -> pathlib.Path:
    return pathlib.Path(os.environ.get("BENCH_OUTPUT", "."))


def _store_path() -> str:
    return str(_output_dir() / "bench_backfill_store.db")


def _populated_store(soccer) -> str:
    """Archive the full match once; reuse the file across measurements."""
    path = _store_path()
    with HistoricalStore(path) as probe:
        if probe.watermark() is not None and probe.watermark() >= soccer.end:
            return path  # already archived by an earlier test in this run
    session = TweeQL.for_scenarios(
        soccer, config=EngineConfig(storage_path=path), seed=SEED
    )
    session.query("SELECT tweet_id FROM twitter;").all()
    session.close()
    return path


def test_backfill_beats_live_wait_10x(soccer):
    path = _populated_store(soccer)

    # Live: the analyst waits stream time for N rows to arrive.
    live = TweeQL.for_scenarios(soccer, seed=SEED)
    handle = live.query(LIVE_SQL)
    rows = handle.fetch(FETCH_ROWS)
    live_wait = rows[-1]["created_at"] - soccer.start
    handle.close()
    assert len(rows) == FETCH_ROWS
    assert live_wait > 0

    # Backfill: the store serves the same rows in wall-clock time, with
    # the virtual clock untouched.
    hybrid = TweeQL.for_scenarios(
        soccer,
        config=EngineConfig(storage_path=path, backfill=True),
        seed=SEED,
    )
    clock_before = hybrid.clock.now
    wall_start = time.perf_counter()
    handle = hybrid.query(LIVE_SQL)
    backfilled = handle.fetch(FETCH_ROWS)
    backfill_seconds = time.perf_counter() - wall_start
    handle.close()
    assert len(backfilled) == FETCH_ROWS
    assert hybrid.clock.now == clock_before  # zero virtual wait
    hybrid.close()

    speedup = live_wait / backfill_seconds
    print_table(
        f"E12a — time to first {FETCH_ROWS} event rows",
        ["path", "analyst wait (s)", "speedup"],
        [
            ("live stream", f"{live_wait:.1f}", "1.0x"),
            ("backfill", f"{backfill_seconds:.4f}", f"{speedup:.0f}x"),
        ],
    )
    _write_json("first_rows", {
        "fetch_rows": FETCH_ROWS,
        "live_stream_wait_seconds": round(live_wait, 3),
        "backfill_wall_seconds": round(backfill_seconds, 6),
        "speedup": round(speedup, 1),
    })
    assert speedup >= 10.0, (
        f"backfill only {speedup:.1f}x faster than the live wait"
    )


def test_storage_writer_overhead_under_5_percent(soccer, tmp_path):
    from repro.storage import StorageWriter

    def run_plain():
        session = TweeQL.for_scenarios(soccer, seed=SEED)
        start = time.perf_counter()
        rows = session.query(LIVE_SQL).all()
        return time.perf_counter() - start, len(rows)

    def run_tapped(round_index, deferred):
        store = HistoricalStore(
            str(tmp_path / f"tap{deferred}{round_index}.db")
        )
        writer = StorageWriter(store, start=not deferred)
        session = TweeQL.for_scenarios(soccer, seed=SEED)
        session.api.tap = writer.write
        start = time.perf_counter()
        rows = session.query(LIVE_SQL).all()
        elapsed = time.perf_counter() - start
        assert writer.dropped == 0
        writer.stop()
        store.close()
        return elapsed, len(rows)

    plain_times, tap_times, drain_times = [], [], []
    for round_index in range(OVERHEAD_ROUNDS):
        plain_seconds, plain_rows = run_plain()
        tap_seconds, tap_rows = run_tapped(round_index, deferred=True)
        drain_seconds, drain_rows = run_tapped(round_index, deferred=False)
        assert plain_rows == tap_rows == drain_rows
        plain_times.append(plain_seconds)
        tap_times.append(tap_seconds)
        drain_times.append(drain_seconds)

    overhead = min(tap_times) / min(plain_times)
    concurrent = min(drain_times) / min(plain_times)
    print_table(
        "E12b — live-path wall clock with and without the archival tap",
        ["configuration", "best seconds", "overhead"],
        [
            ("no store", f"{min(plain_times):.4f}", "1.000x"),
            ("tap only", f"{min(tap_times):.4f}", f"{overhead:.3f}x"),
            ("tap + concurrent drain", f"{min(drain_times):.4f}",
             f"{concurrent:.3f}x"),
        ],
    )
    _write_json("writer_overhead", {
        "rounds": OVERHEAD_ROUNDS,
        "plain_seconds": round(min(plain_times), 6),
        "tap_seconds": round(min(tap_times), 6),
        "concurrent_drain_seconds": round(min(drain_times), 6),
        "tap_overhead": round(overhead, 4),
        "concurrent_drain_overhead": round(concurrent, 4),
    })
    assert overhead < 1.05, (
        f"archival tap costs {(overhead - 1) * 100:.1f}% on the live path"
    )


def _write_json(key: str, payload: dict) -> None:
    out = _output_dir() / "BENCH_backfill.json"
    data = {}
    if out.exists():
        data = json.loads(out.read_text())
    data[key] = payload
    out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
