"""The historical tier: an indexed, partitioned tweet archive.

TwitInfo "saves the event and begins logging tweets matching the query" —
which leaves a freshly created event empty until the live stream catches
up. :class:`HistoricalStore` closes that gap: the firehose is written
*behind* the live path by a background :class:`StorageWriter`, and the
planner splits a windowed query into backfill-from-storage + live-tail
(see ``repro.engine.planner``), so event creation over a populated store
renders its timeline instantly.

The index set follows the multi-terabyte geo-tweet database work (Dobos
et al.) and the SQLite-persistence shape of ``twitter-to-sqlite``:

- btree on ``created_at`` (inherited from :class:`SqliteTweetLog`) — the
  backfill range scan;
- FTS5 on ``text``, ``rowid = tweet_id`` — keyword search over history
  (:meth:`search_text`);
- R-tree on coordinates, ``id = tweet_id`` — bounding-box search
  (:meth:`search_box`);
- an hour-grain ``partition`` column — pruning and per-partition stats
  (:meth:`partitions`).

FTS5 and the R-tree module are *compile-time* SQLite options; both are
feature-detected at open and degrade to scan-based fallbacks when the
linked SQLite lacks them (``fts_enabled`` / ``rtree_enabled`` report
what the store got). The file runs in WAL mode so the single writer
thread never blocks concurrent backfill readers.

The store also persists metrics-registry snapshots per virtual-time
window (:meth:`record_metrics` / :meth:`metrics_series`), so the
dashboard can chart engine health over an event's life next to the
event's own timeline.
"""

from __future__ import annotations

import json
import queue
import sqlite3
import threading
from collections.abc import Iterator
from numbers import Number
from typing import Any

from repro.errors import StorageError
from repro.storage.tweetlog import SqliteTweetLog
from repro.twitter.models import Tweet

__all__ = ["HistoricalStore", "StorageWriter"]

#: ``rowid`` is the tweet id, so replacing a tweet's text is a keyed
#: delete + insert and a search joins back to ``tweets`` on the rowid.
_FTS_DDL = "CREATE VIRTUAL TABLE IF NOT EXISTS tweets_fts USING fts5(text)"
#: A geotag is the degenerate box ``(id, lat, lat, lon, lon)``.
_GEO_INSERT = "INSERT INTO tweets_geo VALUES (?1, ?2, ?2, ?3, ?3)"


class HistoricalStore(SqliteTweetLog):
    """Partitioned, fully indexed SQLite archive of the firehose.

    Everything :class:`SqliteTweetLog` offers (append/extend/scan/count/
    counts_by_bucket/meta, thread-safe, batched commits) plus full-text
    and spatial search, time partitions, a backfill watermark, and
    metrics-snapshot persistence.

    Args:
        path: SQLite file (or ``":memory:"`` for tests).
        partition_seconds: width of one time partition (default 1 hour).
        commit_every: single-row appends per batched commit.
    """

    _COLUMNS = SqliteTweetLog._COLUMNS + ", partition"

    _HIST_SCHEMA = """
        CREATE TABLE IF NOT EXISTS metrics (
            window_start REAL NOT NULL,
            window_end   REAL NOT NULL,
            label        TEXT NOT NULL,
            name         TEXT NOT NULL,
            value        REAL NOT NULL,
            PRIMARY KEY (label, window_start, name)
        );
        CREATE INDEX IF NOT EXISTS idx_metrics_window
            ON metrics (label, window_start);
    """

    def __init__(
        self,
        path: str = ":memory:",
        partition_seconds: float = 3600.0,
        commit_every: int = 64,
    ) -> None:
        if partition_seconds <= 0:
            raise StorageError("partition_seconds must be positive")
        super().__init__(path, commit_every=commit_every)
        self.partition_seconds = partition_seconds
        with self._lock:
            # WAL lets the backfill reader proceed while the writer
            # thread commits (a no-op on :memory: databases).
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.executescript(self._HIST_SCHEMA)
            self._ensure_partition_column()
            self.fts_enabled = self._try_virtual_table(_FTS_DDL)
            self.rtree_enabled = self._try_virtual_table(
                "CREATE VIRTUAL TABLE IF NOT EXISTS tweets_geo "
                "USING rtree(id, min_lat, max_lat, min_lon, max_lon)"
            )
            self._reconcile_indexes()
            self._conn.commit()

    # -- schema helpers ----------------------------------------------------

    def _ensure_partition_column(self) -> None:
        columns = {
            row[1]
            for row in self._conn.execute("PRAGMA table_info(tweets)")
        }
        if "partition" not in columns:
            self._conn.execute(
                "ALTER TABLE tweets ADD COLUMN partition INTEGER NOT NULL "
                "DEFAULT 0"
            )
            # Backfill partitions for rows written by a plain
            # SqliteTweetLog before the store was upgraded.
            self._conn.execute(
                "UPDATE tweets SET partition = "
                "CAST(created_at / ? AS INTEGER)",
                (self.partition_seconds,),
            )
        self._conn.execute(
            "CREATE INDEX IF NOT EXISTS idx_tweets_partition_time "
            "ON tweets (partition, created_at)"
        )

    def _try_virtual_table(self, ddl: str) -> bool:
        """Create a virtual table; False when the module isn't compiled in."""
        try:
            self._conn.execute(ddl)
            return True
        except sqlite3.OperationalError:
            return False

    def _reconcile_indexes(self) -> None:
        """Rebuild both indexes from ``tweets``, once per file and layout.

        A plain :class:`SqliteTweetLog` file has rows no index covers, and
        older stores keyed ``tweets_fts`` by an automatic rowid. The write
        path skips identical rows, so it would never repair either;
        ``meta`` records the layout the indexes were last rebuilt for.
        """
        layout = {"version": 2, "fts": self.fts_enabled, "rtree": self.rtree_enabled}
        if self.get_meta("indexes") == layout:
            return
        if self.fts_enabled:
            self._conn.execute("DROP TABLE tweets_fts")
            self._conn.execute(_FTS_DDL)
            self._conn.execute(
                "INSERT INTO tweets_fts (rowid, text) SELECT tweet_id, text FROM tweets"
            )
        if self.rtree_enabled:
            self._conn.execute("DELETE FROM tweets_geo")
            rows = self._conn.execute("SELECT tweet_id, payload FROM tweets")
            geotags = ((tweet_id, json.loads(p).get("geo")) for tweet_id, p in rows)
            self._conn.executemany(
                _GEO_INSERT, ((tweet_id, *geo) for tweet_id, geo in geotags if geo)
            )
        self.set_meta("indexes", layout)

    # -- writes ------------------------------------------------------------

    def _row(self, tweet: Tweet) -> tuple:
        partition = int(tweet.created_at // self.partition_seconds)
        return (*super()._row(tweet), partition)

    def _index(self, changed: list[tuple[tuple, Tweet]], replaced: list) -> None:
        # Both indexes are keyed by tweet id: dropping a replaced row's
        # old entry is a rowid lookup, never a scan.
        if self.fts_enabled:
            self._conn.executemany("DELETE FROM tweets_fts WHERE rowid = ?", replaced)
            self._conn.executemany(
                "INSERT INTO tweets_fts (rowid, text) VALUES (?, ?)",
                [(row[0], row[3]) for row, _ in changed],
            )
        if self.rtree_enabled:
            self._conn.executemany("DELETE FROM tweets_geo WHERE id = ?", replaced)
            self._conn.executemany(
                _GEO_INSERT,
                [(t.tweet_id, *t.geo) for _, t in changed if t.geo is not None],
            )

    # -- backfill support --------------------------------------------------

    def watermark(self) -> float | None:
        """Largest ``created_at`` in the store, or None when empty.

        The planner's backfill/live split point: history answers strictly
        up to (and including) the watermark, the live tail takes over
        after it.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT MAX(created_at) FROM tweets"
            ).fetchone()
        return None if row[0] is None else float(row[0])

    def partitions(self) -> list[tuple[float, int]]:
        """(partition_start, row_count) per non-empty partition, in order."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT partition, COUNT(*) FROM tweets "
                "GROUP BY partition ORDER BY partition"
            ).fetchall()
        return [
            (float(p) * self.partition_seconds, int(n)) for p, n in rows
        ]

    # -- search ------------------------------------------------------------

    def search_text(
        self,
        needle: str,
        start: float | None = None,
        end: float | None = None,
    ) -> Iterator[Tweet]:
        """Tweets whose text contains ``needle``, in scan order.

        Uses the FTS5 index when available; otherwise falls back to a
        case-insensitive substring match over the time-range scan (same
        results, linear cost).
        """
        if self.fts_enabled:
            where, params = self._time_clauses(start, end)
            with self._lock:
                cursor = self._conn.execute(
                    "SELECT t.tweet_id, t.created_at, t.user_id, t.text, "
                    "t.payload FROM tweets_fts f "
                    "JOIN tweets t ON t.tweet_id = f.rowid "
                    f"WHERE tweets_fts MATCH ? AND {where} "
                    "ORDER BY t.created_at, t.tweet_id",
                    [self._fts_query(needle), *params],
                )
                rows = cursor.fetchall()
            for row in rows:
                yield self._row_to_tweet(row)
            return
        lowered = needle.lower()
        for tweet in self.scan(start, end):
            if lowered in tweet.text.lower():
                yield tweet

    @staticmethod
    def _fts_query(needle: str) -> str:
        """Quote a user string into a literal FTS5 phrase query."""
        escaped = needle.replace('"', '""')
        return f'"{escaped}"'

    def search_box(
        self,
        min_lat: float,
        max_lat: float,
        min_lon: float,
        max_lon: float,
        start: float | None = None,
        end: float | None = None,
    ) -> Iterator[Tweet]:
        """Geotagged tweets inside the bounding box, in scan order.

        Uses the R-tree index when available; otherwise filters the
        time-range scan in Python (same results).
        """
        if self.rtree_enabled:
            where, params = self._time_clauses(start, end)
            with self._lock:
                cursor = self._conn.execute(
                    "SELECT t.tweet_id, t.created_at, t.user_id, t.text, "
                    "t.payload FROM tweets_geo g "
                    "JOIN tweets t ON t.tweet_id = g.id "
                    "WHERE g.min_lat >= ? AND g.max_lat <= ? "
                    "AND g.min_lon >= ? AND g.max_lon <= ? "
                    f"AND {where} ORDER BY t.created_at, t.tweet_id",
                    [min_lat, max_lat, min_lon, max_lon, *params],
                )
                rows = cursor.fetchall()
            for row in rows:
                yield self._row_to_tweet(row)
            return
        for tweet in self.scan(start, end):
            if tweet.geo is None:
                continue
            lat, lon = tweet.geo
            if min_lat <= lat <= max_lat and min_lon <= lon <= max_lon:
                yield tweet

    # -- engine-health history ---------------------------------------------

    def record_metrics(
        self,
        window_start: float,
        window_end: float,
        values: dict[str, Any],
        label: str = "",
    ) -> int:
        """Persist one metrics-registry snapshot for a virtual-time window.

        ``values`` is a flat ``name -> value`` mapping (the registry's
        ``flat()``); non-numeric values are skipped. Re-recording the same
        ``(label, window_start, name)`` replaces the old sample. Returns
        the number of samples written.
        """
        rows = [
            (window_start, window_end, label, name, float(value))
            for name, value in sorted(values.items())
            if isinstance(value, Number) and not isinstance(value, bool)
        ]
        with self._lock:
            self._conn.executemany(
                "INSERT OR REPLACE INTO metrics "
                "(window_start, window_end, label, name, value) "
                "VALUES (?, ?, ?, ?, ?)",
                rows,
            )
            self._conn.commit()
        return len(rows)

    def metrics_series(
        self, label: str | None = None, name: str | None = None
    ) -> list[dict[str, Any]]:
        """Stored snapshots, ordered by window then metric name.

        Each element is ``{"window_start", "window_end", "label", "name",
        "value"}``; filter by ``label`` (event name) and/or ``name``
        (metric name).
        """
        clauses, params = ["1=1"], []
        if label is not None:
            clauses.append("label = ?")
            params.append(label)
        if name is not None:
            clauses.append("name = ?")
            params.append(name)
        with self._lock:
            rows = self._conn.execute(
                "SELECT window_start, window_end, label, name, value "
                f"FROM metrics WHERE {' AND '.join(clauses)} "
                "ORDER BY label, window_start, name",
                params,
            ).fetchall()
        return [
            {
                "window_start": float(ws),
                "window_end": float(we),
                "label": lb,
                "name": nm,
                "value": float(v),
            }
            for ws, we, lb, nm, v in rows
        ]


#: Queue sentinels (tuples never collide with Tweet payloads).
_FLUSH = "flush"
_STOP = "stop"


class StorageWriter:
    """Background writer that archives delivered tweets off the hot path.

    The live path calls :meth:`write`, which is deliberately as close to
    free as the GIL allows: a plain ``list.append`` into a producer-side
    chunk, with one queue handoff per ``batch_size`` tweets. The single
    writer thread inserts chunks without committing per chunk — SQLite
    commits ride the store's own ``commit_every`` threshold, plus an
    explicit commit at every :meth:`flush`/:meth:`stop` barrier. A
    bounded queue caps memory: when the archive cannot keep up, chunks
    are dropped from the *archive* (counted in ``dropped``), never from
    the live query. A store error fails the writer, not the process: it
    is kept in ``error`` and raised by the next :meth:`flush`/:meth:`stop`.

    The writer keeps no wall-clock timers — chunk boundaries and the
    explicit barriers are the only flush points, so behavior is
    deterministic for a given delivery order. ``write`` assumes one
    producer thread at a time (the stream connection's iterator);
    archival is best-effort, so a racing second producer can at worst
    misplace a tweet at a chunk boundary, never corrupt the store.
    """

    def __init__(
        self,
        store: SqliteTweetLog,
        batch_size: int = 256,
        capacity: int = 65536,
        start: bool = True,
    ) -> None:
        if batch_size < 1:
            raise StorageError("batch_size must be positive")
        self._store = store
        self._batch_size = batch_size
        self._chunk: list[Tweet] = []
        self._queue: queue.Queue = queue.Queue(maxsize=capacity)
        self.written = 0
        self.flushes = 0
        #: The exception that failed the drain, once one has; from then on
        #: every chunk is shed and ``flush``/``stop`` raise.
        self.error: Exception | None = None
        # ``dropped`` has one counter per thread that sheds: the producer
        # (queue full) and the drain (store failed).
        self._refused = 0
        self._lost = 0
        self._stopped = False
        self._started = False
        self._thread = threading.Thread(
            target=self._run, name="tweeql-storage-writer", daemon=True
        )
        if start:
            self.start()

    def start(self) -> None:
        """Start the drain thread (``start=False`` defers it so writes
        only buffer — benchmarks use this to price the tap alone)."""
        if not self._started:
            self._started = True
            self._thread.start()

    def write(self, tweet: Tweet) -> bool:
        """Buffer one tweet for archival; False when its chunk was shed."""
        chunk = self._chunk
        chunk.append(tweet)
        if len(chunk) < self._batch_size:
            return True
        self._chunk = []
        try:
            self._queue.put_nowait(chunk)
            return True
        except queue.Full:
            self._refused += len(chunk)
            return False

    def _hand_off_partial_chunk(self) -> None:
        chunk, self._chunk = self._chunk, []
        if chunk:
            self._queue.put(chunk)

    def flush(self, timeout: float = 30.0) -> None:
        """Block until everything written so far is committed.

        Raises :class:`StorageError` when the drain failed or did not get
        there within ``timeout`` seconds.
        """
        if self._stopped:
            return
        self.start()  # a deferred-start writer drains at the barrier
        self._hand_off_partial_chunk()
        done = threading.Event()
        self._queue.put((_FLUSH, done))
        if not done.wait(timeout):
            raise StorageError(f"storage writer flush timed out ({timeout}s)")
        self._raise_if_failed()

    def stop(self, timeout: float = 30.0) -> None:
        """Flush and terminate the writer thread (idempotent).

        Raises :class:`StorageError` when the drain failed, or when the
        thread is still draining after ``timeout`` seconds — the store
        must then stay open; call again to keep waiting.
        """
        if not self._stopped:
            self.start()  # a deferred-start writer drains at the barrier
            self._stopped = True
            self._hand_off_partial_chunk()
            self._queue.put((_STOP, None))
        self._thread.join(timeout)
        if self.alive:
            raise StorageError(f"storage writer still draining ({timeout}s)")
        self._raise_if_failed()

    @property
    def alive(self) -> bool:
        """Whether the drain thread is running (and may touch the store)."""
        return self._thread.is_alive()

    @property
    def dropped(self) -> int:
        """Tweets shed from the archive: queue overflow or a failed store."""
        return self._refused + self._lost

    def _raise_if_failed(self) -> None:
        if self.error is not None:
            raise StorageError(
                f"storage writer failed: {self.error}"
            ) from self.error

    def metrics(self) -> dict[str, int]:
        """Counters for the metrics registry (``storage.*``)."""
        return {
            "written": self.written,
            "unchanged": getattr(self._store, "unchanged", 0),
            "dropped": self.dropped,
            "flushes": self.flushes,
            "pending": self._queue.qsize() * self._batch_size
            + len(self._chunk),
        }

    # -- writer thread -----------------------------------------------------

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            command, event = item if isinstance(item, tuple) else (None, None)
            if self.error is None:  # once failed, never touch the store again
                try:
                    if command is None:
                        self._store.extend(item, commit=False)
                        self.written += len(item)
                    else:
                        self._store.commit()
                        self.flushes += 1
                except Exception as exc:
                    # The thread outlives the failure so that barriers are
                    # released and later chunks are counted, not stranded.
                    self.error = exc
            if self.error is not None and command is None:
                self._lost += len(item)
            if event is not None:
                event.set()
            if command == _STOP:
                return
