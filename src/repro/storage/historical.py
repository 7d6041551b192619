"""The historical tier: a time-indexed tweet archive.

TwitInfo "saves the event and begins logging tweets matching the query" —
which leaves a freshly created event empty until the live stream catches
up. :class:`HistoricalStore` closes that gap: the firehose is written
*behind* the live path by a background :class:`StorageWriter`, and the
planner splits a windowed query into backfill-from-storage + live-tail
(see ``repro.engine.planner``), so event creation over a populated store
renders its timeline instantly.

The store keeps what the backfill reads: the ``tweets`` table and its
``created_at`` B-tree (inherited from :class:`SqliteTweetLog`), which
serve the range scan ``scan(start, cut)``, plus :meth:`watermark`, the
split point. There is no text index: the streaming API's ``track`` rule
is a case-insensitive substring match, which a token index cannot
answer, so :meth:`search_text` filters the time-range scan with that
rule. The file runs in WAL mode so the single writer thread never blocks
concurrent backfill readers.

The store also persists metrics-registry snapshots per virtual-time
window (:meth:`record_metrics` / :meth:`metrics_series`), so the
dashboard can chart engine health over an event's life next to the
event's own timeline.
"""

from __future__ import annotations

import queue
import threading
from collections.abc import Iterator
from numbers import Number
from typing import Any

from repro.errors import StorageError
from repro.storage.tweetlog import SqliteTweetLog
from repro.twitter.models import Tweet, track_rule

__all__ = ["HistoricalStore", "StorageWriter"]


class HistoricalStore(SqliteTweetLog):
    """Time-indexed SQLite archive of the firehose.

    Everything :class:`SqliteTweetLog` offers (append/extend/scan/count/
    counts_by_bucket/meta, thread-safe, batched commits) plus a backfill
    watermark, keyword search over history, and metrics-snapshot
    persistence.

    Args:
        path: SQLite file (or ``":memory:"`` for tests).
        commit_every: single-row appends per batched commit.
    """

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

    def __init__(self, path: str = ":memory:", commit_every: int = 64) -> None:
        super().__init__(path, commit_every=commit_every)
        with self._lock:
            # WAL lets the backfill reader proceed while the writer
            # thread commits (a no-op on :memory: databases).
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.executescript(self._HIST_SCHEMA)
            self._conn.commit()

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

    def search_text(
        self,
        needle: str,
        start: float | None = None,
        end: float | None = None,
    ) -> Iterator[Tweet]:
        """Tweets in ``[start, end)`` whose text contains ``needle`` under
        the API's ``track`` rule (casefolded substring), in scan order."""
        return filter(track_rule((needle,)), self.scan(start, end))

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
