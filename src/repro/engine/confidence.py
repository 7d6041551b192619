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
from repro.engine.expressions import Evaluator
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
    ) -> None:
        self._child = child
        self._group_evals = group_evals
        self._value_eval = value_eval
        self._output_items = output_items
        self._ctx = ctx
        self._policy = policy or ConfidencePolicy()
        self._groups: dict[tuple, _ConfidenceGroup] = {}

    def __iter__(self) -> Iterator[ColumnBatch]:
        policy = self._policy
        tail_seq = 0
        for batch in self._child:
            tail_seq = batch.seq + 1
            emitted: list[Row] = []
            for row in batch.rows:
                now = row.get("created_at", self._ctx.stream_time)
                # Under sharded execution rows carry a global sequence
                # number and time-only punctuation arrives for rows routed
                # to other shards; both keep age-based flushes firing at
                # exactly the triggers the serial operator would have seen.
                trigger = row.get("__seq__")

                # Freshness bound: age out slow groups before processing.
                if policy.max_age_seconds is not None:
                    self._flush_aged(now, trigger, emitted)

                if "__punct__" in row:
                    continue

                key = tuple(e(row, self._ctx) for e in self._group_evals)
                value = self._value_eval(row, self._ctx)
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
                        emitted.append(
                            self._emit(
                                key, group, "confidence",
                                order=self._order_tag(trigger, 1, group),
                            )
                        )
            if emitted:
                yield ColumnBatch.from_rows(emitted, batch.seq)
            if batch.last:
                break

        tail: list[Row] = []
        for key in sorted(self._groups, key=_key_order):
            group = self._groups[key]
            order = (
                (math.inf, 2, _key_order(key))
                if "__seq__" in group.representative
                else None
            )
            tail.append(self._emit(key, group, "eos", pop=False, order=order))
        self._groups.clear()
        # Tail seq stays strictly above the last input batch's.
        yield ColumnBatch.from_rows(tail, tail_seq, last=True)

    def _order_tag(
        self, trigger: int | None, phase: int, group: _ConfidenceGroup
    ) -> tuple | None:
        """Merge-order tag for sharded execution; None when serial.

        Tags sort by (triggering row, phase, group first-seen row): the
        serial operator flushes aged groups before processing the trigger
        row's own group (phase 0 < 1), and emits multiple aged groups in
        creation order.
        """
        if trigger is None:
            return None
        return (trigger, phase, group.representative.get("__seq__", -1))

    def _flush_aged(
        self, now: float, trigger: int | None, emitted: list[Row]
    ) -> None:
        assert self._policy.max_age_seconds is not None
        horizon = now - self._policy.max_age_seconds
        aged = [
            key
            for key, group in self._groups.items()
            if group.first_time <= horizon and group.aggregate.n >= 2
        ]
        for key in aged:
            group = self._groups[key]
            emitted.append(
                self._emit(
                    key, group, "age", order=self._order_tag(trigger, 0, group)
                )
            )

    def _emit(
        self,
        key: tuple,
        group: _ConfidenceGroup,
        reason: str,
        pop: bool = True,
        order: tuple | None = None,
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
        if order is not None:
            out["__order__"] = order
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
