"""Streaming physical operators (batch-at-a-time).

Every operator consumes and produces
:class:`~repro.engine.types.ColumnBatch` streams pulled by the executor.
The pipeline for a typical TweeQL query looks like::

    Scan → Filter (local predicates) → Project            (scalar queries)
    Scan → Filter → WindowedAggregate [→ Having/Order/Limit]  (aggregates)
    Scan + Scan → WindowedJoin → …                        (two-stream joins)

The scan is the batcher: it frames the source's chunks into
``batch_size``-row batches — tweet-backed for the ``twitter`` source,
rows-backed for row sources — and the predicate/projection loops then run
per batch, amortizing interpreter and call overhead across rows. Batch
size never changes results — each operator processes the rows of a batch
in stream order and emits its output in the same order a
one-row-per-batch run would.

Filter, project and aggregate stages each run the whole-column (vector)
evaluator the planner gave them; a stage without one runs the scalar
closure over ``batch.rows``. Not every expression vectorizes (stateful
calls, a user UDF marked high-latency, ``now()``), and the scalar closure
is the reference the vector form is tested against.

Stream time advances with the tweets the scan yields; windowed operators
close windows when stream time passes their end, so results are emitted as
soon as the data allows — there is no wall-clock anywhere. Every producer
ends its output with exactly one ``last=True`` batch (possibly empty), the
end-of-stream punctuation downstream operators flush on.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator
from itertools import islice
from typing import Any, Protocol

from repro.engine.expressions import (
    Broadcast,
    Evaluator,
    VectorEvaluator,
    expand_column,
    key_column,
)
from repro.engine.types import (
    DEFAULT_BATCH_SIZE,
    MISSING,
    ColumnBatch,
    EvalContext,
    Row,
    batch_rows,
    has_missing,
    iter_rows,
)
from repro.sql.ast import WindowSpec
from repro.engine.windows import windows_containing

#: What operators consume and produce.
Batches = Iterable[ColumnBatch]


class ScanSource(Protocol):
    """What a scan reads: ``chunks(size)`` yields lists of ``size`` items,
    then one shorter list (possibly empty) that ends the stream, and
    ``batch(chunk, last)`` wraps one list as a ColumnBatch."""

    def batch(self, chunk: list[Any], last: bool) -> ColumnBatch: ...

    def chunks(self, size: int) -> Iterator[list[Any]]: ...


def frame(items: Iterable[Any], size: int) -> Iterator[list[Any]]:
    """``items`` as a :class:`ScanSource` frames them: lists of ``size``,
    then one shorter list (possibly empty)."""
    items = iter(items)
    while True:
        chunk = list(islice(items, size))
        yield chunk
        if len(chunk) < size:
            return


class RowSource:
    """A row iterable as a scan source (registered sources, derived
    streams): :func:`frame` frames it, ``from_rows`` wraps each frame."""

    batch = staticmethod(ColumnBatch.from_rows)

    def __init__(self, rows: Iterable[Row]) -> None:
        self._rows = rows

    def chunks(self, size: int) -> Iterator[list[Row]]:
        return frame(self._rows, size)


class ScanOperator:
    """Source adapter: frames a :class:`ScanSource` into batches of
    ``batch_size``, advancing stream time.

    Items must carry a ``created_at`` timestamp (the ``twitter`` source
    guarantees it). The twitter source delivers lists of tweets, which
    become tweet-backed batches; row sources become rows-backed ones.
    Stream time advances over the whole batch before it is released — the
    batch's rows are all "seen" by the time downstream operators evaluate
    them, exactly as if each row had been pulled individually.
    """

    def __init__(
        self,
        source: ScanSource,
        ctx: EvalContext,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self._source = source
        self._ctx = ctx
        self._batch_size = batch_size

    def __iter__(self) -> Iterator[ColumnBatch]:
        ctx = self._ctx
        stats = ctx.stats
        size = self._batch_size
        wrap = self._source.batch
        for chunk in self._source.chunks(size):
            last = len(chunk) < size
            batch = wrap(chunk, last)
            if chunk:
                stats.rows_scanned += len(chunk)
                stats.batches += 1
                ctx.advance_to(batch)
            yield batch
            if last:
                return


#: Input rows a :class:`FilterOperator` reads between re-rankings of its
#: movable conjuncts; the re-rank waits for the next batch boundary.
RERANK_ROWS = 1024


class Conjunct:
    """One WHERE conjunct as the filter stage runs it.

    ``cost`` is its static cost class; ``movable`` marks a conjunct that
    cannot raise and calls nothing, so evaluating it earlier or later
    changes no answer. ``evaluations`` and ``passes`` count the rows it
    saw and kept since the filter last re-ranked.
    """

    __slots__ = (
        "name", "predicate", "vector", "cost", "movable",
        "evaluations", "passes",
    )

    def __init__(
        self,
        name: str,
        predicate: Evaluator,
        vector: VectorEvaluator | None = None,
        cost: int = 1,
        movable: bool = False,
    ) -> None:
        self.name = name
        self.predicate = predicate
        self.vector = vector
        self.cost = cost
        self.movable = movable
        self.evaluations = 0
        self.passes = 0

    @property
    def rank(self) -> float:
        """Cost class per row dropped since the last re-rank: ``cost /
        (1 − pass rate)``, the order that minimizes the expected cost of
        a conjunction of independent tests. Lower runs earlier; a
        conjunct that dropped no row it saw (or saw none) ranks last."""
        dropped = self.evaluations - self.passes
        if not dropped:
            return math.inf
        return self.cost * self.evaluations / dropped

    def apply(self, batch: ColumnBatch, ctx: EvalContext) -> ColumnBatch:
        """The rows of ``batch`` where the conjunct is exactly TRUE."""
        vector = self.vector
        if vector is not None:
            verdicts = vector(batch, ctx)
            if isinstance(verdicts, Broadcast):
                value = verdicts.value
                return batch if value is not None and value else batch.take([])
            return batch.compress(verdicts)
        predicate = self.predicate
        kept: list[Row] = []
        append = kept.append
        for row in batch.rows:
            verdict = predicate(row, ctx)
            if verdict is not None and verdict:
                append(row)
        return batch if len(kept) == batch.length else batch.subset(kept)


class FilterOperator:
    """Applies a WHERE conjunction; keeps rows where every conjunct is
    exactly TRUE (NULL, like FALSE, drops the row — SQL WHERE semantics).

    Conjuncts run in the filter's current order over a shrinking batch:
    each sees the rows its predecessors kept, whole-column when it has a
    vector form, row by row otherwise, and each adds the rows it saw to
    ``predicate_evaluations`` and the rows it kept to
    ``rows_after_filter`` — the counters a chain of one stage per
    conjunct keeps.

    The order starts as written. At the first batch boundary after each
    :data:`RERANK_ROWS` input rows the movable conjuncts are stable-sorted
    by :attr:`Conjunct.rank` (cost class per row dropped), Eddies-style,
    so a conjunct whose selectivity drifts loses or gains the front spot.
    Only row counts feed the rank — no clock — so the order is a function
    of the input and the batch size. A conjunct that is not movable (a
    call, which may raise, hold per-row state or pay a service round
    trip) keeps its written place and splits the conjunction: movable
    ones reorder only within the runs between such barriers, so every
    non-movable conjunct sees exactly the rows, in the order, that the
    written plan gives it.
    """

    def __init__(
        self, child: Batches, conjuncts: list[Conjunct], ctx: EvalContext
    ) -> None:
        self._child = child
        self.conjuncts = list(conjuncts)
        self._ctx = ctx

    def _rerank(self) -> None:
        order = self.conjuncts
        start = 0
        for end in range(len(order) + 1):
            if end == len(order) or not order[end].movable:
                order[start:end] = sorted(
                    order[start:end], key=lambda c: c.rank
                )
                start = end + 1
        for conjunct in order:
            conjunct.evaluations = conjunct.passes = 0

    def __iter__(self) -> Iterator[ColumnBatch]:
        ctx = self._ctx
        stats = ctx.stats
        since_rerank = 0
        for batch in self._child:
            out = batch
            for conjunct in self.conjuncts:
                seen = out.length
                out = conjunct.apply(out, ctx)
                conjunct.evaluations += seen
                conjunct.passes += out.length
                stats.predicate_evaluations += seen
                stats.rows_after_filter += out.length
                if not (out.length or batch.last):
                    break
            since_rerank += batch.length
            if since_rerank >= RERANK_ROWS:
                self._rerank()
                since_rerank = 0
            if out.length or batch.last:
                yield out
            if batch.last:
                return


class ProjectOperator:
    """Evaluates the select list for non-aggregated queries.

    ``items`` maps output column name → evaluator. ``passthrough_time``
    keeps ``created_at`` on the output row (TwitInfo consumers need it) when
    the projection didn't select it explicitly. With ``identity`` (the
    select list is the ``twitter`` schema in order: ``SELECT *`` over
    ``twitter``) a tweet-backed batch passes through unchanged, since its
    row view, ``Tweet.to_row()``, is already the projected row. Otherwise
    an all-field select list runs the planner's ``fused`` row constructor;
    items with a vector form evaluate whole columns; a select list with
    neither builds its rows with the scalar closures.
    """

    def __init__(
        self,
        child: Batches,
        items: list[tuple[str, Evaluator]],
        ctx: EvalContext,
        passthrough_time: bool = True,
        vector_items: list[VectorEvaluator | None] | None = None,
        fused: Callable[[ColumnBatch], list[Row]] | None = None,
        identity: bool = False,
    ) -> None:
        self._child = child
        self._items = items
        self._ctx = ctx
        self._passthrough_time = passthrough_time
        # Building per-item columns only pays when some item has a
        # whole-column form; an all-scalar select list builds rows directly.
        self._vector_items = (
            vector_items if vector_items and any(vector_items) else None
        )
        self._fused = fused
        self._identity = identity

    def __iter__(self) -> Iterator[ColumnBatch]:
        stats = self._ctx.stats
        vector_items = self._vector_items
        fused = self._fused
        identity = self._identity
        for batch in self._child:
            if batch.length or batch.last:
                out = None
                if identity and batch.tweets is not None:
                    out = batch
                elif fused is not None:
                    out = self._project_fused(batch)
                if out is None and vector_items is not None:
                    out = self._project_columns(batch, vector_items)
                if out is None:
                    out = self._project_rows(batch)
                stats.rows_emitted += batch.length
                yield out
            if batch.last:
                return

    def _project_fused(self, batch: ColumnBatch) -> ColumnBatch | None:
        """All-field select list: one generated dict display per row, then
        re-attach a homogeneous ``__tweet__`` column (None on a ragged
        one: the general path handles that)."""
        tweets = batch.field("__tweet__")
        if tweets is not None and has_missing(tweets):
            return None
        assert self._fused is not None
        projected = self._fused(batch)
        if tweets is not None:
            for out, tweet in zip(projected, tweets):
                out["__tweet__"] = tweet
        return ColumnBatch.from_rows(projected, batch.last)

    def _project_columns(
        self, batch: ColumnBatch, vector_items: list[VectorEvaluator | None]
    ) -> ColumnBatch:
        """One output column per item: whole-column where the item has a
        vector form, the scalar closure mapped over the rows where not."""
        ctx = self._ctx
        n = batch.length
        out_cols: dict[str, list[Any]] = {}
        for (name, evaluate), vec in zip(self._items, vector_items):
            if vec is not None:
                out_cols[name] = expand_column(vec(batch, ctx), n)
            else:
                out_cols[name] = [evaluate(row, ctx) for row in batch.rows]
        if self._passthrough_time and "created_at" not in out_cols:
            out_cols["created_at"] = batch.values("created_at")
        tweets = batch.field("__tweet__")
        if tweets is not None:
            out_cols["__tweet__"] = tweets
        return ColumnBatch(out_cols, n, last=batch.last)

    def _project_rows(self, batch: ColumnBatch) -> ColumnBatch:
        """The scalar select list, row by row."""
        ctx = self._ctx
        items = self._items
        passthrough_time = self._passthrough_time
        projected: list[Row] = []
        append = projected.append
        for row in batch.rows:
            out: Row = {}
            for name, evaluate in items:
                out[name] = evaluate(row, ctx)
            if passthrough_time and "created_at" not in out:
                out["created_at"] = row.get("created_at")
            if "__tweet__" in row:
                out["__tweet__"] = row["__tweet__"]
            append(out)
        return ColumnBatch.from_rows(projected, batch.last)


class _GroupState:
    """Accumulators and a representative row for one (window, group)."""

    __slots__ = ("accumulators", "representative", "count")

    def __init__(self, accumulators: list[Any], representative: Row) -> None:
        self.accumulators = accumulators
        self.representative = representative
        self.count = 0


class WindowedAggregateOperator:
    """GROUP BY + aggregates over tumbling/sliding windows.

    A row's window coordinate is its ``created_at`` for time windows and
    its global ordinal for tweet-count windows (``WINDOW n TWEETS``, the
    alternative §2 weighs and finds wanting for uneven groups — see
    benchmark E4); a window closes when a row's coordinate reaches its end.

    Args:
        child: input batch stream (rows time-ordered).
        window: the window specification.
        group_evals: compiled grouping-key expressions ([] → one global
            group per window).
        agg_factories: per aggregate call site, a zero-arg factory returning
            a fresh accumulator, plus the compiled argument evaluator (None
            for COUNT(*)) and whether NULLs are skipped.
        output_items: output column name → post-aggregation evaluator. The
            post-evaluator runs over an environment row that contains the
            representative input row's fields plus ``__agg<i>`` results.
        having: optional post-aggregation predicate.
        order_by: optional [(evaluator, descending)] applied per window.
        limit: optional per-window row cap (after ordering).
        vector_group_evals: whole-column forms of *every* grouping key, or
            None (keys then evaluate once per row).
        vector_agg_args: per aggregate call site, the argument's
            whole-column form or None.

    Output rows carry ``window_start`` and ``window_end``, plus
    ``created_at`` set to the window end (emission time). A count window
    stamps its first and last rows' timestamps instead (so downstream time
    filtering still works) and adds ``window_rows``, its row count. Windows
    closed by a batch's rows are emitted with that batch, in exactly the
    order a one-row-per-batch run interleaves them.
    """

    def __init__(
        self,
        child: Batches,
        window: WindowSpec,
        group_evals: list[Evaluator],
        agg_factories: list[tuple[Any, Evaluator | None, bool]],
        output_items: list[tuple[str, Evaluator]],
        ctx: EvalContext,
        having: Evaluator | None = None,
        order_by: list[tuple[Evaluator, bool]] | None = None,
        limit: int | None = None,
        vector_group_evals: list[VectorEvaluator] | None = None,
        vector_agg_args: list[VectorEvaluator | None] | None = None,
    ) -> None:
        self._child = child
        self._window = window
        self._group_evals = group_evals
        self._agg_factories = agg_factories
        self._output_items = output_items
        self._ctx = ctx
        self._having = having
        self._order_by = order_by or []
        self._limit = limit
        self._vector_group_evals = vector_group_evals
        self._vector_agg_args = (
            vector_agg_args
            if vector_agg_args and any(vector_agg_args)
            else None
        )
        # Every key and every aggregate argument has a column form: a
        # batch on the vector path needs no row dicts, only one per new
        # group (its representative).
        self._columns_only = self._vector_group_evals is not None and all(
            arg_eval is None or vec is not None
            for (_factory, arg_eval, _skip), vec in zip(
                agg_factories, vector_agg_args or [None] * len(agg_factories)
            )
        )
        # (window_start, window_end) → {group_key: _GroupState}
        self._open: dict[tuple[float, float], dict[tuple, _GroupState]] = {}
        # Count windows only: (start, end) → [first timestamp, last
        # timestamp, rows], what they emit in place of their bounds.
        self._extents: dict[tuple[float, float], list[Any]] | None = (
            {} if window.count_based else None
        )

    def __iter__(self) -> Iterator[ColumnBatch]:
        ctx = self._ctx
        window = self._window
        group_evals = self._group_evals
        agg_factories = self._agg_factories
        open_windows = self._open
        extents = self._extents
        vector_groups = self._vector_group_evals
        vector_args = self._vector_agg_args or [None] * len(agg_factories)
        # Earliest end among the open windows: no row before it can close
        # anything, so the open set is scanned only when a row reaches it.
        next_close = float("inf")
        ordinal = 0
        for batch in self._child:
            emitted: list[Row] = []
            n = batch.length
            rows = None if self._columns_only else batch.rows
            # Keys and arguments are evaluated once per row, a batch at a
            # time, however many windows each row enters. A None column is
            # COUNT(*), which adds 1.
            if vector_groups is not None:
                key_col = key_column(vector_groups, batch, ctx)
            else:
                key_col = [
                    tuple(evaluate(row, ctx) for evaluate in group_evals)
                    for row in rows
                ]
            arg_cols = [
                None if arg_eval is None
                else expand_column(vec(batch, ctx), n) if vec is not None
                else [arg_eval(row, ctx) for row in rows]
                for (_factory, arg_eval, _skip), vec in zip(
                    agg_factories, vector_args
                )
            ]
            stamps = batch.field("created_at") or [MISSING] * n
            if extents is None:
                coordinates: Iterable[Any] = stamps
            else:
                coordinates = range(ordinal, ordinal + n)
                ordinal += n
                self._extend(extents, coordinates, stamps)
            for i, coordinate in enumerate(coordinates):
                if coordinate is MISSING:
                    coordinate = ctx.stream_time
                # Close every window that ended at or before this row.
                if coordinate >= next_close:
                    next_close = self._close_due(coordinate, emitted)
                key = key_col[i]
                for bounds in windows_containing(coordinate, window):
                    groups = open_windows.get(bounds)
                    if groups is None:
                        groups = open_windows[bounds] = {}
                        if bounds[1] < next_close:
                            next_close = bounds[1]
                    state = groups.get(key)
                    if state is None:
                        state = _GroupState(
                            [factory() for factory, _arg, _skip in agg_factories],
                            # A columns-only batch builds one row per group.
                            representative=(
                                batch.row(i) if rows is None else rows[i]
                            ),
                        )
                        groups[key] = state
                    state.count += 1
                    for accumulator, column, (_factory, _arg, skip_nulls) in zip(
                        state.accumulators, arg_cols, agg_factories
                    ):
                        if column is None:
                            accumulator.add(1)
                            continue
                        value = column[i]
                        if value is None and skip_nulls:
                            continue
                        accumulator.add(value)
            if emitted:
                yield ColumnBatch.from_rows(emitted)
            if batch.last:
                break
        # End of stream: flush everything still open.
        tail: list[Row] = []
        self._close_due(float("inf"), tail)
        yield ColumnBatch.from_rows(tail, last=True)

    def _extend(
        self,
        extents: dict[tuple[float, float], list[Any]],
        coordinates: range,
        stamps: list[Any],
    ) -> None:
        """Count windows: fold a batch's timestamps into the [first, last,
        rows] record of each window its rows enter. No row reaches a window
        that closed before it, so one pass per batch equals one per row."""
        for coordinate, timestamp in zip(coordinates, stamps):
            if timestamp is MISSING:
                timestamp = self._ctx.stream_time
            for bounds in windows_containing(coordinate, self._window):
                extent = extents.get(bounds)
                if extent is None:
                    extents[bounds] = [timestamp, timestamp, 1]
                else:
                    extent[1] = max(extent[1], timestamp)
                    extent[2] += 1

    def _close_due(self, coordinate: float, emitted: list[Row]) -> float:
        """Emit, in (start, end) order, every open window that ended at or
        before ``coordinate``; returns the earliest end still open (inf
        when none is)."""
        due = sorted(
            bounds for bounds in self._open if bounds[1] <= coordinate
        )
        for bounds in due:
            groups = self._open.pop(bounds)
            self._ctx.stats.windows_closed += 1
            if self._extents is None:
                start, end = bounds
                columns = {"window_start": start, "window_end": end}
            else:
                start, end, count = self._extents.pop(bounds)
                columns = {"window_start": start, "window_end": end,
                           "window_rows": count}
            columns["created_at"] = end
            self._emit_window(groups, columns, emitted)
        return min((end for _start, end in self._open), default=float("inf"))

    def _emit_window(
        self,
        groups: dict[tuple, _GroupState],
        columns: Row,
        emitted: list[Row],
    ) -> None:
        """One output row per group that passes HAVING, each ending with
        the window's ``columns``; ordered and limited per window."""
        window_rows: list[Row] = []
        for state in groups.values():
            env = dict(state.representative)
            for index, accumulator in enumerate(state.accumulators):
                env[f"__agg{index}"] = accumulator.result()
            if self._having is not None:
                verdict = self._having(env, self._ctx)
                if verdict is None or not verdict:
                    continue
            out: Row = {}
            for name, evaluate in self._output_items:
                out[name] = evaluate(env, self._ctx)
            out.update(columns)
            window_rows.append(out)
            self._ctx.stats.groups_emitted += 1
        for evaluate, descending in reversed(self._order_by):
            window_rows.sort(
                key=lambda r, e=evaluate: _sort_key(e(r, self._ctx)),
                reverse=descending,
            )
        if self._limit is not None:
            window_rows = window_rows[: self._limit]
        self._ctx.stats.rows_emitted += len(window_rows)
        emitted.extend(window_rows)


def _sort_key(value: Any) -> tuple[int, Any]:
    """NULLs sort first; mixed types won't raise."""
    if value is None:
        return (0, 0)
    if isinstance(value, (int, float, bool)):
        return (1, value)
    return (2, str(value))


class WindowedJoinOperator:
    """Symmetric hash join between two time-ordered streams.

    Rows join when their timestamps lie within ``window.size_seconds`` of
    each other and their join keys are equal. The operator merges the two
    inputs by timestamp (pulling the side that is behind), keeps per-side
    hash tables keyed by join key, and evicts entries older than the window
    — the standard streaming band join.

    The join itself is row-at-a-time (the two-sided merge needs per-row
    control over which input advances); inputs are flattened and the output
    re-batched.

    Output rows are the left row's fields plus the right row's, with right
    fields renamed ``<prefix><name>`` on collision.
    """

    def __init__(
        self,
        left: Batches,
        right: Iterable[Row],
        left_key: Evaluator,
        right_key: Evaluator,
        window: WindowSpec,
        ctx: EvalContext,
        right_prefix: str = "r_",
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        self._left = left
        self._right = right
        self._left_key = left_key
        self._right_key = right_key
        self._window = window
        self._ctx = ctx
        self._right_prefix = right_prefix
        self._batch_size = batch_size

    def __iter__(self) -> Iterator[ColumnBatch]:
        return batch_rows(self._join_rows(), self._batch_size)

    def _join_rows(self) -> Iterator[Row]:
        size = self._window.size_seconds
        left_table: dict[Any, list[Row]] = {}
        right_table: dict[Any, list[Row]] = {}
        left = iter_rows(self._left)
        right = iter(self._right)
        left_row = next(left, None)
        right_row = next(right, None)
        while left_row is not None or right_row is not None:
            take_left = right_row is None or (
                left_row is not None
                and left_row.get("created_at", 0.0)
                <= right_row.get("created_at", 0.0)
            )
            if take_left:
                row, advance = left_row, "left"
            else:
                row, advance = right_row, "right"
            assert row is not None
            now = row.get("created_at", 0.0)
            _evict(left_table, now - size)
            _evict(right_table, now - size)
            if advance == "left":
                key = self._left_key(row, self._ctx)
                if key is not None:
                    for match in right_table.get(key, ()):
                        yield self._merge(row, match)
                    left_table.setdefault(key, []).append(row)
                left_row = next(left, None)
            else:
                key = self._right_key(row, self._ctx)
                if key is not None:
                    for match in left_table.get(key, ()):
                        yield self._merge(match, row)
                    right_table.setdefault(key, []).append(row)
                right_row = next(right, None)

    def _merge(self, left: Row, right: Row) -> Row:
        out = dict(left)
        for name, value in right.items():
            if name in out and name != "created_at":
                out[f"{self._right_prefix}{name}"] = value
            elif name == "created_at":
                out["created_at"] = max(
                    out.get("created_at", 0.0), value or 0.0
                )
            else:
                out[name] = value
        self._ctx.stats.rows_emitted += 1
        return out


def _evict(table: dict[Any, list[Row]], horizon: float) -> None:
    """Drop buffered rows older than ``horizon`` from a join hash table."""
    dead_keys = []
    for key, rows in table.items():
        rows[:] = [r for r in rows if r.get("created_at", 0.0) >= horizon]
        if not rows:
            dead_keys.append(key)
    for key in dead_keys:
        del table[key]


class LookupJoinOperator:
    """Stream-table (dimension) join.

    The right side is a finite table without timestamps — a lookup
    dimension such as team → home city. Its rows are drained into a hash
    table once, on first pull; every stream row then joins against all
    matching table rows. Unmatched stream rows are dropped (inner-join
    semantics); pass ``left_outer=True`` to keep them with NULL-extended
    table columns.
    """

    def __init__(
        self,
        stream: Batches,
        table_rows: Iterable[Row],
        stream_key: Evaluator,
        table_key: Evaluator,
        table_schema: tuple[str, ...],
        ctx: EvalContext,
        right_prefix: str = "r_",
        left_outer: bool = False,
    ) -> None:
        self._stream = stream
        self._table_rows = table_rows
        self._stream_key = stream_key
        self._table_key = table_key
        self._table_schema = table_schema
        self._ctx = ctx
        self._right_prefix = right_prefix
        self._left_outer = left_outer

    def __iter__(self) -> Iterator[ColumnBatch]:
        table: dict[Any, list[Row]] = {}
        for row in self._table_rows:
            key = self._table_key(row, self._ctx)
            if key is not None:
                table.setdefault(key, []).append(row)
        null_extension = {name: None for name in self._table_schema}
        for batch in self._stream:
            joined: list[Row] = []
            for row in batch.rows:
                key = self._stream_key(row, self._ctx)
                matches = table.get(key, ()) if key is not None else ()
                if matches:
                    for match in matches:
                        joined.append(self._merge(row, match))
                elif self._left_outer:
                    joined.append(self._merge(row, null_extension))
            if joined or batch.last:
                yield ColumnBatch.from_rows(joined, batch.last)
            if batch.last:
                return

    def _merge(self, left: Row, right: Row) -> Row:
        out = dict(left)
        for name, value in right.items():
            if name == "created_at":
                continue
            if name in out:
                out[f"{self._right_prefix}{name}"] = value
            else:
                out[name] = value
        self._ctx.stats.rows_emitted += 1
        return out


class LimitOperator:
    """Stops the pipeline after ``limit`` rows, truncating mid-batch."""

    def __init__(self, child: Batches, limit: int) -> None:
        self._child = child
        self._limit = limit

    def __iter__(self) -> Iterator[ColumnBatch]:
        remaining = self._limit
        if remaining <= 0:
            yield ColumnBatch.from_rows([], last=True)
            return
        for batch in self._child:
            size = len(batch)
            if size >= remaining:
                yield batch.head(remaining)
                return
            remaining -= size
            yield batch
            if batch.last:
                return
        # Child ended without a last batch (defensive): punctuate anyway.
        yield ColumnBatch.from_rows([], last=True)


class IntoOperator:
    """Tees result rows into a storage table while passing them through."""

    def __init__(self, child: Batches, sink: Any) -> None:
        self._child = child
        self._sink = sink

    def __iter__(self) -> Iterator[ColumnBatch]:
        append = self._sink.append
        for batch in self._child:
            for row in batch.rows:
                append(row)
            yield batch
            if batch.last:
                return
