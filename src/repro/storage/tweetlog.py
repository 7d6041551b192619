"""Tweet and result logging.

TwitInfo "saves the event and begins logging tweets matching the query";
TweeQL's ``INTO table`` clause tees query results into a table. Two
backends share one interface:

- :class:`MemoryTweetLog` — a sorted in-memory log, the default for
  experiments;
- :class:`SqliteTweetLog` — a SQLite-backed log for persistence across
  processes (SQLite ships with CPython, so this stays dependency-free).

Both support append, time-range scans, and counting by time bucket (the
timeline's primitive).

:class:`TableSink` is the lightweight row container behind ``INTO``.
"""

from __future__ import annotations

import bisect
import json
import operator
import sqlite3
import threading
from collections.abc import Iterator, Sequence
from itertools import chain, islice
from typing import Any

from repro.errors import StorageError
from repro.twitter.models import Tweet, User


#: A tweet's place in a :class:`MemoryTweetLog`, and its time alone.
_order = operator.attrgetter("created_at", "tweet_id")
_created = operator.attrgetter("created_at")


class MemoryTweetLog:
    """Append-mostly in-memory tweet log ordered by ``(created_at, tweet_id)``.

    Appends that arrive in timestamp order are O(1); out-of-order appends
    use insertion to keep scans correct (streams are near-ordered, so this
    stays cheap). Ties on ``created_at`` break on ``tweet_id`` — the same
    total order :class:`SqliteTweetLog` scans in (``ORDER BY created_at,
    tweet_id``), so the two backends are row-for-row interchangeable even
    when many tweets share a timestamp.
    """

    def __init__(self) -> None:
        self._tweets: list[Tweet] = []

    def append(self, tweet: Tweet) -> None:
        """Add one tweet, keeping ``(created_at, tweet_id)`` order."""
        tweets = self._tweets
        if not tweets or _order(tweet) >= _order(tweets[-1]):
            tweets.append(tweet)
            return
        bisect.insort_right(tweets, tweet, key=_order)

    def extend(self, tweets: Sequence[Tweet], commit: bool = True) -> None:
        """Add tweets as :meth:`append` would, one by one. A batch that is
        already in order and starts at or after the log's end (a stream's
        usual batch) is appended whole."""
        keys = list(map(_order, tweets))
        if (
            keys
            and (not self._tweets or keys[0] >= _order(self._tweets[-1]))
            and all(map(operator.le, keys, islice(keys, 1, None)))
        ):
            self._tweets.extend(tweets)
            return
        for tweet in tweets:
            self.append(tweet)

    def __len__(self) -> int:
        return len(self._tweets)

    def _range(self, start: float | None, end: float | None) -> tuple[int, int]:
        tweets = self._tweets
        lo = 0 if start is None else bisect.bisect_left(tweets, start, key=_created)
        hi = (
            len(tweets)
            if end is None
            else bisect.bisect_left(tweets, end, key=_created)
        )
        # An inverted window (end <= start) is empty, as in SQL, never a
        # negative slice.
        return lo, max(lo, hi)

    def scan(self, start: float | None = None, end: float | None = None) -> Iterator[Tweet]:
        """Tweets with ``start <= created_at < end``, in time order."""
        lo, hi = self._range(start, end)
        return iter(self._tweets[lo:hi])

    def count(self, start: float | None = None, end: float | None = None) -> int:
        """Number of tweets in the half-open time range."""
        lo, hi = self._range(start, end)
        return hi - lo

    def counts_by_bucket(
        self, start: float, end: float, bucket_seconds: float
    ) -> list[tuple[float, int]]:
        """(bucket_start, count) pairs covering [start, end)."""
        if bucket_seconds <= 0:
            raise StorageError("bucket_seconds must be positive")
        buckets: list[tuple[float, int]] = []
        t = start
        while t < end:
            buckets.append((t, self.count(t, min(t + bucket_seconds, end))))
            t += bucket_seconds
        return buckets


class SqliteTweetLog:
    """SQLite-backed tweet log with the same interface.

    Stores the queryable columns natively and the rest of the record (the
    author's profile and the geotag) as JSON, so a reloaded log
    reconstructs complete :class:`Tweet` objects.

    The connection is opened with ``check_same_thread=False`` and every
    statement runs under an internal lock, so the background
    :class:`~repro.storage.historical.StorageWriter` thread and the
    engine's readers can share one log safely.

    Durability: :meth:`append` batches its commit — the transaction is
    flushed every ``commit_every`` single-row appends and always on
    :meth:`close`; :meth:`extend` and :meth:`set_meta` commit immediately.
    A crashed process therefore loses at most ``commit_every - 1`` trailing
    single-row appends, never an :meth:`extend` batch.
    """

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS tweets (
            tweet_id   INTEGER PRIMARY KEY,
            created_at REAL NOT NULL,
            user_id    INTEGER NOT NULL,
            text       TEXT NOT NULL,
            payload    TEXT NOT NULL
        );
        CREATE INDEX IF NOT EXISTS idx_tweets_time ON tweets (created_at);
        CREATE TABLE IF NOT EXISTS meta (
            key   TEXT PRIMARY KEY,
            value TEXT NOT NULL
        );
    """

    #: Stored columns, in the order :meth:`_row` builds them.
    _COLUMNS = "tweet_id, created_at, user_id, text, payload"

    #: Rows fetched per lock acquisition while scanning (keeps long scans
    #: from starving concurrent writers).
    _SCAN_CHUNK = 512

    #: Decoded payloads a scan keeps for reuse before it starts afresh.
    _DECODED_MAX = 8192

    #: Most ids in one stored-rows probe (SQLite's bound-variable limit
    #: was 999 before 3.32).
    _PROBE = 500

    def __init__(self, path: str = ":memory:", commit_every: int = 64) -> None:
        if commit_every < 1:
            raise StorageError("commit_every must be positive")
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._lock = threading.RLock()
        self._commit_every = commit_every
        self._pending = 0
        self._closed = False
        #: Re-archived tweets skipped because the store already held them.
        self.unchanged = 0
        self._conn.executescript(self._SCHEMA)

    def close(self) -> None:
        """Commit any batched appends and close the connection."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._pending:
                self._conn.commit()
                self._pending = 0
            self._conn.close()

    def __enter__(self) -> "SqliteTweetLog":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def commit(self) -> None:
        """Force-flush the append batch (durability barrier)."""
        with self._lock:
            self._conn.commit()
            self._pending = 0

    def append(self, tweet: Tweet) -> None:
        self._write((tweet,), commit=False)

    def extend(self, tweets: Sequence[Tweet], commit: bool = True) -> None:
        """Bulk append. ``commit=False`` leaves durability to the
        ``commit_every`` threshold and later :meth:`commit`/:meth:`close`
        barriers — the storage writer's hot path."""
        self._write(tweets, commit)

    def _row(self, tweet: Tweet) -> tuple:
        """The tweet's stored row, in ``_COLUMNS`` order."""
        payload = json.dumps(
            {
                "user": {
                    "screen_name": tweet.user.screen_name,
                    "location": tweet.user.location,
                    "home": tweet.user.home,
                    "geo_enabled": tweet.user.geo_enabled,
                    "followers": tweet.user.followers,
                    "lang": tweet.user.lang,
                },
                "geo": tweet.geo,
            }
        )
        return (
            tweet.tweet_id,
            tweet.created_at,
            tweet.user.user_id,
            tweet.text,
            payload,
        )

    def _write(self, tweets: Sequence[Tweet], commit: bool) -> None:
        """The one write path: upsert a chunk under a single lock hold.

        Rows (payload JSON included) are built before the lock is taken.
        The chunk goes in pieces that end where sequential appends would
        have hit ``commit_every``, so the commit points are the same
        however tweets were grouped into calls. Per piece, one
        primary-key probe reads the rows the store already holds: a
        tweet the store already holds (:meth:`_holds`) is skipped and
        counted in ``unchanged``; a fresh or differing row is written,
        the last occurrence of a repeated id winning as sequential
        ``INSERT OR REPLACE`` would.
        """
        rows = [self._row(tweet) for tweet in tweets]
        marks = ", ".join("?" * len(self._COLUMNS.split(",")))
        try:
            with self._lock:
                done = 0
                while done < len(rows):
                    room = min(self._commit_every - self._pending, self._PROBE)
                    piece = rows[done : done + room]
                    latest = {row[0]: row for row in piece}
                    stored = {
                        row[0]: row
                        for row in self._conn.execute(
                            f"SELECT {self._COLUMNS} FROM tweets WHERE "
                            f"tweet_id IN ({', '.join('?' * len(latest))})",
                            list(latest),
                        )
                    }
                    changed = [
                        row for row in latest.values()
                        if not self._holds(stored.get(row[0]), row)
                    ]
                    self.unchanged += len(latest) - len(changed)
                    if changed:
                        self._conn.executemany(
                            f"INSERT OR REPLACE INTO tweets ({self._COLUMNS}) "
                            f"VALUES ({marks})",
                            changed,
                        )
                    done += len(piece)
                    self._pending += len(piece)
                    if self._pending >= self._commit_every:
                        self.commit()
                if commit:
                    self.commit()
        except sqlite3.Error as exc:
            raise StorageError(f"sqlite append failed: {exc}") from exc

    @classmethod
    def _holds(cls, stored: tuple | None, row: tuple) -> bool:
        """Whether ``stored`` already holds ``row``'s tweet: byte for byte,
        or in an earlier payload shape that decodes to the same tweet."""
        return stored is not None and (
            stored == row or cls._row_to_tweet(stored) == cls._row_to_tweet(row)
        )

    def __len__(self) -> int:
        with self._lock:
            row = self._conn.execute("SELECT COUNT(*) FROM tweets").fetchone()
        return int(row[0])

    @classmethod
    def _row_to_tweet(cls, row: tuple) -> Tweet:
        tweet_id, created_at, user_id, text, payload = row
        user, geo = cls._decode_payload(user_id, payload)
        return Tweet(
            tweet_id=tweet_id,
            created_at=created_at,
            user=user,
            text=text,
            geo=geo,
        )

    @staticmethod
    def _decode_payload(
        user_id: int, payload_json: str
    ) -> tuple[User, tuple[float, float] | None]:
        """A stored row's author and geotag."""
        payload = json.loads(payload_json)
        user_data = payload["user"]
        # Earlier payloads also carry ``user_id`` (the native column is
        # authoritative) and ``ground_truth``; decoding ignores both.
        user = User(
            user_id=int(user_id),
            screen_name=user_data["screen_name"],
            location=user_data["location"],
            home=tuple(user_data["home"]) if user_data["home"] else None,
            geo_enabled=user_data["geo_enabled"],
            followers=user_data["followers"],
            lang=user_data["lang"],
        )
        return user, tuple(payload["geo"]) if payload.get("geo") else None

    def set_meta(self, key: str, value: Any) -> None:
        """Store a JSON-serializable metadata value (event definitions…)."""
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                (key, json.dumps(value)),
            )
            self._conn.commit()
            self._pending = 0

    def get_meta(self, key: str, default: Any = None) -> Any:
        """Fetch a metadata value stored by :meth:`set_meta`."""
        with self._lock:
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = ?", (key,)
            ).fetchone()
        return default if row is None else json.loads(row[0])

    @staticmethod
    def _time_clauses(
        start: float | None, end: float | None
    ) -> tuple[str, list[float]]:
        clauses, params = ["1=1"], []
        if start is not None:
            clauses.append("created_at >= ?")
            params.append(start)
        if end is not None:
            clauses.append("created_at < ?")
            params.append(end)
        return " AND ".join(clauses), params

    def scan(self, start: float | None = None, end: float | None = None) -> Iterator[Tweet]:
        """Tweets with ``start <= created_at < end``, in time order."""
        return chain.from_iterable(self.scan_chunks(start, end))

    def scan_chunks(
        self, start: float | None = None, end: float | None = None
    ) -> Iterator[list[Tweet]]:
        """:meth:`scan`'s tweets, one decoded list per fetch.

        Each distinct ``(user_id, payload)`` is decoded once per scan and
        equal authors are one ``User``: an event's archive repeats its
        authors, and most payloads are an author without a geotag.
        """
        where, params = self._time_clauses(start, end)
        with self._lock:
            cursor = self._conn.execute(
                f"SELECT {self._COLUMNS} FROM tweets WHERE {where} "
                "ORDER BY created_at, tweet_id",
                params,
            )
        decoded: dict[tuple[int, str], tuple[User, Any]] = {}
        users: dict[User, User] = {}
        while True:
            with self._lock:
                rows = cursor.fetchmany(self._SCAN_CHUNK)
            if not rows:
                return
            if len(decoded) > self._DECODED_MAX:
                decoded.clear()  # a geotag-heavy scan repeats few payloads
                users.clear()
            tweets = []
            for tweet_id, created_at, user_id, text, payload in rows:
                key = (user_id, payload)
                author = decoded.get(key)
                if author is None:
                    user, geo = self._decode_payload(user_id, payload)
                    author = decoded[key] = (users.setdefault(user, user), geo)
                tweets.append(Tweet(tweet_id, created_at, author[0], text, author[1]))
            yield tweets

    def count(self, start: float | None = None, end: float | None = None) -> int:
        where, params = self._time_clauses(start, end)
        with self._lock:
            row = self._conn.execute(
                f"SELECT COUNT(*) FROM tweets WHERE {where}", params
            ).fetchone()
        return int(row[0])

    def counts_by_bucket(
        self, start: float, end: float, bucket_seconds: float
    ) -> list[tuple[float, int]]:
        """(bucket_start, count) pairs covering [start, end)."""
        if bucket_seconds <= 0:
            raise StorageError("bucket_seconds must be positive")
        with self._lock:
            cursor = self._conn.execute(
                "SELECT CAST((created_at - ?) / ? AS INTEGER) AS bucket, "
                "COUNT(*) "
                "FROM tweets WHERE created_at >= ? AND created_at < ? "
                "GROUP BY bucket",
                (start, bucket_seconds, start, end),
            )
            counts = dict(cursor.fetchall())
        buckets: list[tuple[float, int]] = []
        index = 0
        t = start
        while t < end:
            buckets.append((t, int(counts.get(index, 0))))
            index += 1
            t += bucket_seconds
        return buckets


class TableSink:
    """Named result table fed by a query's ``INTO`` clause."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.rows: list[dict[str, Any]] = []

    def append(self, row: dict[str, Any]) -> None:
        self.rows.append(dict(row))

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.rows)

    def to_csv(self, path: str) -> int:
        """Write the table to a CSV file; returns the row count.

        Columns are the union of row keys (insertion-ordered), minus
        internal ``__``-prefixed fields.
        """
        import csv

        columns: dict[str, None] = {}
        for row in self.rows:
            for key in row:
                if not key.startswith("__"):
                    columns[key] = None
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.DictWriter(
                f, fieldnames=list(columns), extrasaction="ignore"
            )
            writer.writeheader()
            for row in self.rows:
                writer.writerow(row)
        return len(self.rows)
