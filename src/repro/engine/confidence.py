"""CONTROL-style confidence-triggered aggregate emission.

The paper ("Uneven Aggregate Groups"): a fixed 3-hour window oversamples
Tokyo and undersamples Cape Town; a fixed tweet-count window can aggregate
stale tweets. "Instead, we use a construct for windowing that measures
confidence in the aggregated result … Once a bucket falls within a certain
confidence interval for an aggregate, its record is emitted by the grouping
operator."

:class:`ConfidenceAggregateOperator` implements that construct: each group
accumulates until the half-width of the confidence interval of its AVG
drops below a target, then emits and resets. A freshness bound (``max_age``)
forces emission of slow groups so sparse regions still report, and a
minimum count avoids emitting on trivially small samples.

Emitted rows carry the diagnostic columns ``n``, ``ci_halfwidth``, and
``emit_reason`` (``confidence`` / ``age`` / ``eos``) so experiments can
audit why each record fired.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.engine.aggregates import AvgAggregate
from repro.engine.expressions import (
    Evaluator,
    VectorEvaluator,
    expand_column,
    key_column,
)
from repro.engine.types import ColumnBatch, EvalContext, Row


@dataclass(frozen=True)
class ConfidencePolicy:
    """Emission policy for confidence-triggered grouping.

    Attributes:
        ci_halfwidth: emit once the CI half-width of the mean is at or
            below this value (in units of the aggregated quantity).
        z: normal critical value for the confidence level (1.96 ≈ 95%).
        max_age_seconds: force-emit a group this long after its first tweet
            even if the CI target was not reached (freshness bound); None
            disables the bound.
        min_count: never emit on fewer than this many values (the CI
            estimate is meaningless at tiny n).
    """

    ci_halfwidth: float = 0.1
    z: float = 1.96
    max_age_seconds: float | None = 3 * 3600.0
    min_count: int = 5

    def __post_init__(self) -> None:
        if self.ci_halfwidth <= 0:
            raise ValueError("ci_halfwidth must be positive")
        if self.min_count < 2:
            raise ValueError("min_count must be at least 2")


class _ConfidenceGroup:
    __slots__ = ("aggregate", "representative", "first_time", "last_time")

    def __init__(self, representative: Row, now: float) -> None:
        self.aggregate = AvgAggregate()
        self.representative = representative
        self.first_time = now
        self.last_time = now


class ConfidenceAggregateOperator:
    """AVG-per-group emission driven by statistical confidence, not time.

    Args:
        child: time-ordered input batch stream.
        group_evals: compiled grouping-key expressions.
        value_eval: compiled expression whose mean is being estimated
            (e.g. ``sentiment(text)``).
        output_items: output column name → post-aggregation evaluator over
            an environment row with ``__agg0`` holding the group mean.
        policy: the emission policy.
        vector_group_evals / vector_value_eval: whole-column forms of
            every key (or None) and of the value (or None), evaluated once
            per batch as in
            :class:`~repro.engine.operators.WindowedAggregateOperator`.

    One aggregate call is supported per query in this mode — the paper's
    construct is specifically about a single windowed AVG; richer mixes
    still use fixed windows.
    """

    def __init__(
        self,
        child: Iterable[ColumnBatch],
        group_evals: list[Evaluator],
        value_eval: Evaluator,
        output_items: list[tuple[str, Evaluator]],
        ctx: EvalContext,
        policy: ConfidencePolicy | None = None,
        vector_group_evals: list[VectorEvaluator] | None = None,
        vector_value_eval: VectorEvaluator | None = None,
    ) -> None:
        self._child = child
        self._group_evals = group_evals
        self._value_eval = value_eval
        self._vector_group_evals = vector_group_evals
        self._vector_value_eval = vector_value_eval
        self._output_items = output_items
        self._ctx = ctx
        self._policy = policy or ConfidencePolicy()
        self._groups: dict[tuple, _ConfidenceGroup] = {}

    def __iter__(self) -> Iterator[ColumnBatch]:
        policy = self._policy
        ctx = self._ctx
        vector_groups = self._vector_group_evals
        vector_value = self._vector_value_eval
        tail_seq = 0
        for batch in self._child:
            tail_seq = batch.seq + 1
            emitted: list[Row] = []
            keys = (
                None if vector_groups is None
                else key_column(vector_groups, batch, ctx)
            )
            values = (
                None if vector_value is None
                else expand_column(vector_value(batch, ctx), batch.length)
            )
            for i, row in enumerate(batch.rows):
                now = row.get("created_at", ctx.stream_time)

                # Freshness bound: age out slow groups before processing.
                if policy.max_age_seconds is not None:
                    self._flush_aged(now, emitted)

                key = (
                    keys[i] if keys is not None
                    else tuple(e(row, ctx) for e in self._group_evals)
                )
                value = (
                    values[i] if values is not None
                    else self._value_eval(row, ctx)
                )
                if value is None:
                    continue
                group = self._groups.get(key)
                if group is None:
                    group = _ConfidenceGroup(row, now)
                    self._groups[key] = group
                group.aggregate.add(value)
                group.last_time = now

                if group.aggregate.n >= policy.min_count:
                    half = group.aggregate.confidence_interval(policy.z)
                    if half is not None and half <= policy.ci_halfwidth:
                        emitted.append(self._emit(key, group, "confidence"))
            if emitted:
                yield ColumnBatch.from_rows(emitted, batch.seq)
            if batch.last:
                break

        tail: list[Row] = []
        for key in sorted(self._groups, key=_key_order):
            tail.append(self._emit(key, self._groups[key], "eos", pop=False))
        self._groups.clear()
        # Tail seq stays strictly above the last input batch's.
        yield ColumnBatch.from_rows(tail, tail_seq, last=True)

    def _flush_aged(self, now: float, emitted: list[Row]) -> None:
        assert self._policy.max_age_seconds is not None
        horizon = now - self._policy.max_age_seconds
        aged = [
            key
            for key, group in self._groups.items()
            if group.first_time <= horizon and group.aggregate.n >= 2
        ]
        for key in aged:
            emitted.append(self._emit(key, self._groups[key], "age"))

    def _emit(
        self,
        key: tuple,
        group: _ConfidenceGroup,
        reason: str,
        pop: bool = True,
    ) -> Row:
        env = dict(group.representative)
        env["__agg0"] = group.aggregate.result()
        out: Row = {}
        for name, evaluate in self._output_items:
            out[name] = evaluate(env, self._ctx)
        half = group.aggregate.confidence_interval(self._policy.z)
        out["n"] = group.aggregate.n
        out["ci_halfwidth"] = (
            round(half, 6) if half is not None else None
        )
        out["emit_reason"] = reason
        out["group_started"] = group.first_time
        out["created_at"] = group.last_time
        if pop:
            del self._groups[key]
        self._ctx.stats.groups_emitted += 1
        self._ctx.stats.rows_emitted += 1
        return out


def _key_order(key: tuple) -> tuple:
    """Deterministic ordering for end-of-stream flushes with mixed types."""
    return tuple(
        (0, k) if isinstance(k, (int, float, bool)) and not isinstance(k, bool)
        else (1, str(k))
        for k in key
    )


def normal_halfwidth(variance: float, n: int, z: float = 1.96) -> float:
    """CI half-width of a mean: z * sqrt(var / n). Exposed for benchmarks."""
    if n <= 0:
        raise ValueError("n must be positive")
    return z * math.sqrt(max(0.0, variance) / n)
