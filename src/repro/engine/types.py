"""Core engine types: rows, batches, schemas, and the evaluation context.

Rows are plain dicts (field name → value); a schema is an ordered tuple of
field names. ``None`` is SQL NULL and propagates through expressions per
three-valued logic (see :mod:`repro.engine.expressions`).

Operators exchange rows in :class:`ColumnBatch` units — the engine's one
batch type: a payload plus a batch sequence stamp and an end-of-stream
marker. Batch size is a pure performance knob
(``EngineConfig.batch_size``): results are row-for-row identical at every
size, including the one-row batches ``now()`` queries are pinned to.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import Any

from repro.clock import VirtualClock
from repro.twitter.models import TWEET_COLUMNS

Row = dict[str, Any]
Schema = tuple[str, ...]

#: Default rows per batch. Large enough to amortize per-batch interpreter
#: overhead (and to give batched/async service calls a useful key window),
#: small enough that windowed emission latency stays negligible.
DEFAULT_BATCH_SIZE = 256


class _Missing:
    """Sentinel for a field absent from a row (distinct from SQL NULL)."""

    __slots__ = ()
    _instance: "_Missing | None" = None

    def __new__(cls) -> "_Missing":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "MISSING"

    def __reduce__(self) -> tuple[Any, tuple[Any, ...]]:
        # Copying and pickling must preserve singleton identity.
        return (_Missing, ())


#: Column cell marking "this row has no such key". ``None`` cells are SQL
#: NULL; ``MISSING`` cells disappear again in :meth:`ColumnBatch.to_rows`.
MISSING = _Missing()


class ColumnBatch:
    """The unit of batch-at-a-time data flow.

    The payload is one value array per field (``columns``). Cells are
    real values, ``None`` (SQL NULL), or :data:`MISSING` (the row had no
    such key — rows in one batch need not share a schema). A batch may be
    empty: operators must tolerate an empty final batch (pure punctuation).

    ``seq`` is the emitting operator's batch sequence stamp, strictly
    increasing per producer (a diagnostic the sanitizer checks). ``last``
    is end-of-stream punctuation: every producer terminates its output
    with exactly one ``last`` batch (possibly empty), so downstream
    operators can flush buffered state on it.

    Columns materialize *lazily* from a backing list (``_lazy`` True),
    one column the first time an accessor asks for it, so a field the
    query never touches costs nothing:

    - :meth:`from_rows` keeps a row list and transposes a column out of
      the dicts. A selective filter compresses row references (one
      pointer copy per survivor) instead of re-gathering every column,
      and row-oriented consumers read the same list back through
      ``rows``.
    - :meth:`from_tweets` keeps the ``twitter`` source's list of
      :class:`~repro.twitter.models.Tweet` and reads a column off the
      tweets through :data:`~repro.twitter.models.TWEET_COLUMNS`; which
      fields exist is known from that table without looking at a tweet.
      Filters keep the batch tweet-backed, and ``rows`` builds
      ``Tweet.to_row()`` dicts only when a row consumer (scalar stages,
      INTO sinks, CSV, the shared-scan router) asks, once.

    Fully-columnar batches (``_lazy`` False, e.g. projection output)
    behave identically through the same accessors.
    """

    __slots__ = (
        "columns", "length", "seq", "last", "_rows", "_tweets", "_lazy",
        "_absent",
    )

    def __init__(
        self,
        columns: dict[str, list[Any]],
        length: int,
        seq: int = 0,
        last: bool = False,
    ) -> None:
        self.columns = columns
        self.length = length
        self.seq = seq
        self.last = last
        self._rows: list[Row] | None = None
        self._tweets: list[Any] | None = None
        self._lazy = False
        # Fields a probe found on no row. ``field`` and ``values`` ask
        # for columns a row source may not carry (``__tweet__``, a missing
        # ``created_at``); caching the negative — and handing it down to
        # compress/take children, whose rows are a subset — turns O(rows)
        # probes per operator into one probe per source batch. Row dicts
        # are never mutated in place once batched, so the cache cannot go
        # stale.
        self._absent: set[str] | None = None

    # -- bridges --------------------------------------------------------------

    @classmethod
    def from_rows(
        cls, rows: list[Row], seq: int = 0, last: bool = False
    ) -> "ColumnBatch":
        """Wrap a row list; columns transpose lazily on first access."""
        # Slots set directly: every producer comes through here, once per
        # row at batch size 1, and __init__ would assign five of them twice.
        batch = cls.__new__(cls)
        batch.columns = {}
        batch.length = len(rows)
        batch.seq = seq
        batch.last = last
        batch._rows = rows
        batch._tweets = None
        batch._lazy = True
        batch._absent = None
        return batch

    @classmethod
    def from_tweets(
        cls, tweets: list[Any], seq: int = 0, last: bool = False
    ) -> "ColumnBatch":
        """Wrap a list of tweets; columns are read off them on first
        access and row dicts are built only if ``rows`` is asked for."""
        batch = cls.__new__(cls)
        batch.columns = {}
        batch.length = len(tweets)
        batch.seq = seq
        batch.last = last
        batch._rows = None
        batch._tweets = tweets
        batch._lazy = True
        batch._absent = None
        return batch

    def _keep_tweets(
        self, tweets: list[Any], last: bool | None = None
    ) -> "ColumnBatch":
        """A tweet-backed batch over some of this batch's tweets."""
        return ColumnBatch.from_tweets(
            tweets, self.seq, self.last if last is None else last
        )

    def subset(self, rows: list[Row], last: bool | None = None) -> "ColumnBatch":
        """A rows-backed batch over some of this batch's rows, in order.

        Keeps ``seq`` (and ``last`` unless overridden) and inherits the
        negative-probe cache: a subset cannot carry a field the whole
        batch did not.
        """
        out = ColumnBatch.from_rows(
            rows, self.seq, self.last if last is None else last
        )
        if self._absent:
            out._absent = set(self._absent)
        return out

    def _materialize(self, name: str) -> list[Any]:
        """Read one column out of the backing list (cached). On a
        tweet-backed batch ``name`` must be a ``TWEET_COLUMNS`` key."""
        if self._tweets is not None:
            col = list(map(TWEET_COLUMNS[name], self._tweets))
        else:
            assert self._rows is not None
            col = [row.get(name, MISSING) for row in self._rows]
        self.columns[name] = col
        return col

    def _materialize_all(self) -> None:
        """Complete the transpose (equality and repr need every column)."""
        if not self._lazy:
            return
        if self._tweets is not None:
            keys = dict.fromkeys(TWEET_COLUMNS)
        else:
            assert self._rows is not None
            keys = {}
            for row in self._rows:
                for key in row:
                    keys[key] = None
        for key in keys:
            if key not in self.columns:
                self._materialize(key)
        self._lazy = False

    def to_rows(self) -> list[Row]:
        """Materialize per-row dicts (MISSING cells are omitted)."""
        if self._tweets is not None:
            return [tweet.to_row() for tweet in self._tweets]
        if self._lazy:
            assert self._rows is not None
            return self._rows
        n = self.length
        columns = self.columns
        if not columns:
            return [{} for _ in range(n)]
        if not any(MISSING in col for col in columns.values()):
            # Dense batch (the usual case): one C-level zip per row beats
            # a Python cell-by-cell loop by a wide margin.
            names = tuple(columns)
            return [dict(zip(names, vals)) for vals in zip(*columns.values())]
        rows: list[Row] = [{} for _ in range(n)]
        for key, col in columns.items():
            for i in range(n):
                value = col[i]
                if value is not MISSING:
                    rows[i][key] = value
        return rows

    @property
    def rows(self) -> list[Row]:
        """Row-dict view (the backing list itself on rows-backed batches;
        materialized once and cached otherwise)."""
        if self._rows is None:
            self._rows = self.to_rows()
        return self._rows

    @property
    def has_rows(self) -> bool:
        """True when ``rows`` costs nothing: the batch is rows-backed, or
        its row dicts were already built."""
        return self._rows is not None

    def row(self, index: int) -> Row:
        """One row as a dict, without building the batch's other rows."""
        if self._rows is not None:
            return self._rows[index]
        if self._tweets is not None:
            return self._tweets[index].to_row()
        return {
            name: col[index]
            for name, col in self.columns.items()
            if col[index] is not MISSING
        }

    # -- columnar accessors ----------------------------------------------------

    def field(self, name: str) -> list[Any] | None:
        """The raw column (MISSING cells intact); None when no row has it."""
        col = self.columns.get(name)
        if col is None:
            if not self._lazy:
                return None
            if self._tweets is not None:
                if not self.has_field(name):
                    return None
                return self._materialize(name)
            absent = self._absent
            if absent is not None and name in absent:
                return None
            assert self._rows is not None
            # Probe before transposing: on homogeneous batches this exits
            # at the first row, and absent fields cost one pass, not two.
            if not any(name in row for row in self._rows):
                if absent is None:
                    absent = self._absent = set()
                absent.add(name)
                return None
            col = self._materialize(name)
            return col
        if all(v is MISSING for v in col):
            return None
        return col

    def has_field(self, name: str) -> bool:
        """True when any row in the batch carries this field."""
        if self._tweets is not None:
            # Every tweet carries every column of the table, and no other.
            return self.length > 0 and name in TWEET_COLUMNS
        return self.field(name) is not None

    def values(self, name: str) -> list[Any]:
        """The column as ``row.get(name)`` would see it (MISSING → None)."""
        col = self.columns.get(name)
        if self._tweets is not None:
            # Tweet columns have no MISSING cells.
            if col is not None:
                return col
            if name in TWEET_COLUMNS:
                return self._materialize(name)
            return [None] * self.length
        if col is None and self._lazy:
            absent = self._absent
            if absent is not None and name in absent:
                return [None] * self.length
            col = self._materialize(name)
        if col is None:
            return [None] * self.length
        # `in` runs the C identity-first scan — far cheaper than a genexpr.
        if MISSING in col:
            return [None if v is MISSING else v for v in col]
        return col

    # -- structural ops --------------------------------------------------------

    def compress(self, verdicts: list[Any]) -> "ColumnBatch":
        """Surviving-rows batch from a verdict column (truthy keeps).

        The filter hot path: lazy batches copy one row (or tweet)
        reference per survivor — already-read columns are dropped and
        re-materialize from the survivors on demand, which is cheaper
        than gathering every cached column through an index list.
        """
        if self._lazy and self._tweets is not None:
            tweets = list(itertools.compress(self._tweets, verdicts))
            if len(tweets) == self.length:
                return self
            return self._keep_tweets(tweets)
        if self._lazy:
            assert self._rows is not None
            kept = [
                row
                for row, v in zip(self._rows, verdicts)
                if v is not None and v
            ]
            return self if len(kept) == self.length else self.subset(kept)
        keep = [i for i, v in enumerate(verdicts) if v is not None and v]
        return self.take(keep)

    def take(self, indexes: list[int]) -> "ColumnBatch":
        """A new batch keeping only the given row positions, in order."""
        if len(indexes) == self.length:
            return self
        if self._lazy and self._tweets is not None:
            tweets = self._tweets
            return self._keep_tweets([tweets[i] for i in indexes])
        if self._lazy:
            assert self._rows is not None
            rows = self._rows
            return self.subset([rows[i] for i in indexes])
        columns = {
            key: [col[i] for i in indexes]
            for key, col in self.columns.items()
        }
        return ColumnBatch(columns, len(indexes), seq=self.seq, last=self.last)

    def head(self, n: int) -> "ColumnBatch":
        """The first ``n`` rows as a terminal batch (LIMIT truncation)."""
        if self._lazy and self._tweets is not None:
            return self._keep_tweets(self._tweets[:n], last=True)
        if self._lazy:
            assert self._rows is not None
            return self.subset(self._rows[:n], last=True)
        columns = {key: col[:n] for key, col in self.columns.items()}
        return ColumnBatch(columns, min(n, self.length), seq=self.seq, last=True)

    # -- protocol --------------------------------------------------------------

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def _normalized(self) -> dict[str, list[Any]]:
        # A column of all-MISSING cells is indistinguishable from an
        # absent column once bridged through rows; equality ignores it.
        self._materialize_all()
        return {
            key: col
            for key, col in self.columns.items()
            if any(v is not MISSING for v in col)
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnBatch):
            return NotImplemented
        return (
            self.seq == other.seq
            and self.last == other.last
            and self.length == other.length
            and self._normalized() == other._normalized()
        )

    def __repr__(self) -> str:
        self._materialize_all()
        return (
            f"ColumnBatch(length={self.length}, "
            f"fields={list(self.columns)}, seq={self.seq}, last={self.last})"
        )


def batch_rows(
    rows: Iterable[Row], batch_size: int = DEFAULT_BATCH_SIZE
) -> Iterator[ColumnBatch]:
    """Chunk a row iterable into batches; the final batch is marked last.

    Always yields at least one batch (empty + last for an empty input), so
    consumers can rely on seeing the punctuation. Also the join's output
    adapter: its row-at-a-time merge re-enters the batch pipeline here.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    pending: list[Row] = []
    seq = 0
    for row in rows:
        pending.append(row)
        if len(pending) >= batch_size:
            yield ColumnBatch.from_rows(pending, seq)
            seq += 1
            pending = []
    yield ColumnBatch.from_rows(pending, seq, last=True)


def iter_rows(batches: Iterable[ColumnBatch]) -> Iterator[Row]:
    """Flatten a batch stream back into rows (executor / test boundary)."""
    for batch in batches:
        yield from batch.rows
        if batch.last:
            return


@dataclass
class QueryStats:
    """Counters collected while a query runs."""

    rows_scanned: int = 0
    rows_after_filter: int = 0
    rows_emitted: int = 0
    predicate_evaluations: int = 0
    windows_closed: int = 0
    groups_emitted: int = 0
    #: Batches emitted by the source scan.
    batches: int = 0

    def as_dict(self) -> dict[str, int]:
        """Snapshot for reports and tests."""
        return {
            "rows_scanned": self.rows_scanned,
            "rows_after_filter": self.rows_after_filter,
            "rows_emitted": self.rows_emitted,
            "predicate_evaluations": self.predicate_evaluations,
            "windows_closed": self.windows_closed,
            "groups_emitted": self.groups_emitted,
            "batches": self.batches,
        }


@dataclass
class EvalContext:
    """Everything expression evaluation may need at runtime.

    One context exists per running query. Stateful UDF instances hang off
    ``state`` keyed by call-site id, so two ``meandev(...)`` calls in one
    query do not share state while repeated invocations at one site do.
    """

    clock: VirtualClock
    stats: QueryStats = field(default_factory=QueryStats)
    state: dict[int, Any] = field(default_factory=dict)
    #: Current stream time (timestamp of the last tweet seen). Windows and
    #: temporal functions read this rather than the wall clock.
    stream_time: float = 0.0
    #: Arbitrary services injected by the session (geocoder, classifier…).
    services: dict[str, Any] = field(default_factory=dict)
    #: Span recorder (:class:`repro.obs.trace.Tracer`) when the session
    #: enabled tracing; None keeps the hot path entirely untouched.
    tracer: Any = None
    #: The lane label this context's spans carry ("main" for a plan of its
    #: own, "fanout" / "tenant-N" for a shared scan's stages).
    lane: str = "main"

    def advance_to(self, batch: ColumnBatch) -> None:
        """Move stream time up to the newest ``created_at`` in ``batch``.

        Every scan calls this over a whole batch before releasing it, so
        the batch's rows are all "seen" by the time downstream operators
        evaluate them.
        """
        stamps = batch.values("created_at")
        try:
            newest = max(stamps, default=None)
        except TypeError:  # NULL cells: no time to advance to
            newest = max((t for t in stamps if t is not None), default=None)
        if newest is not None and newest > self.stream_time:
            self.stream_time = newest

    def service(self, name: str) -> Any:
        """Fetch a named service; raises KeyError with a clear message."""
        try:
            return self.services[name]
        except KeyError:
            raise KeyError(
                f"query requires service {name!r}, which the session did not "
                "provide"
            ) from None
