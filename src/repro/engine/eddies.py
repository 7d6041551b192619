"""Eddies-style adaptive predicate reordering.

The paper: "We are also exploring Eddies-style dynamic operator reordering
to adjust to changes in operator selectivity over time." This module makes
that exploration concrete with the classic lottery-scheduling eddy of Avnur
& Hellerstein (SIGMOD 2000), specialized to conjunctive filter pipelines —
the common shape of TweeQL WHERE clauses once the API filter is peeled off.

Each local predicate keeps exponentially decayed estimates of its pass rate
and evaluation cost. Tuples are routed through predicates in ascending
``rank = (pass_rate) * normalized_cost`` — i.e. cheap, highly selective
predicates run first — and the ordering re-sorts continuously as the
estimates drift, so a predicate that stops filtering (a keyword going
quiet, a region waking up) loses its front spot within a half-life of
arrivals.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator

from repro.engine.expressions import Evaluator
from repro.engine.types import ColumnBatch, EvalContext, Row


#: Tuples an eddy routes between re-rankings of its predicates (the one
#: value every plan uses; ablated in benchmarks/bench_eddies.py).
RESORT_EVERY = 64


class AdaptivePredicate:
    """One routable predicate with decayed pass-rate and cost estimates."""

    def __init__(
        self,
        name: str,
        evaluate: Evaluator,
        decay: float = 0.995,
        cost_hint: float = 1.0,
    ) -> None:
        self.name = name
        self._evaluate = evaluate
        self._decay = decay
        #: Decayed counters (start optimistic: everything passes, unit cost).
        self._pass_estimate = 0.5
        self._cost_estimate = cost_hint
        self.evaluations = 0
        self.passes = 0

    @property
    def pass_rate(self) -> float:
        """Current decayed estimate of P(tuple passes)."""
        return self._pass_estimate

    @property
    def cost(self) -> float:
        """Current decayed per-evaluation cost estimate (seconds)."""
        return self._cost_estimate

    @property
    def rank(self) -> float:
        """Routing rank; lower runs earlier.

        ``pass_rate * cost`` ranks by the classic ``cost / (1 - pass_rate)``
        criterion's cheap monotone proxy: predicates that are cheap and
        rarely pass come first. (For equal costs both orderings agree.)
        """
        return self._pass_estimate * self._cost_estimate

    def test(self, row: Row, ctx: EvalContext) -> bool:
        """Evaluate on a row, updating the running estimates."""
        started = time.perf_counter()
        verdict = self._evaluate(row, ctx)
        elapsed = time.perf_counter() - started
        passed = verdict is not None and bool(verdict)
        self.evaluations += 1
        if passed:
            self.passes += 1
        decay = self._decay
        self._pass_estimate = decay * self._pass_estimate + (1 - decay) * (
            1.0 if passed else 0.0
        )
        self._cost_estimate = decay * self._cost_estimate + (1 - decay) * elapsed
        ctx.stats.predicate_evaluations += 1
        return passed


class EddyOperator:
    """Routes each tuple through predicates in adaptive rank order.

    Re-sorting happens every ``resort_every`` tuples (sorting per tuple
    would dominate the cost the eddy is trying to save).
    """

    def __init__(
        self,
        child: Iterable[ColumnBatch],
        predicates: list[AdaptivePredicate],
        ctx: EvalContext,
        resort_every: int = RESORT_EVERY,
    ) -> None:
        if resort_every <= 0:
            raise ValueError("resort_every must be positive")
        self._child = child
        self._predicates = list(predicates)
        self._ctx = ctx
        self._resort_every = resort_every

    @property
    def current_order(self) -> list[str]:
        """Predicate names in the order tuples currently visit them."""
        return [p.name for p in self._predicates]

    def __iter__(self) -> Iterator[ColumnBatch]:
        ctx = self._ctx
        stats = ctx.stats
        predicates = self._predicates
        resort_every = self._resort_every
        since_resort = 0
        for batch in self._child:
            kept: list[Row] = []
            append = kept.append
            for row in batch.rows:
                if "__punct__" in row:
                    # Sharded-execution punctuation: pass through untested.
                    append(row)
                    continue
                since_resort += 1
                if since_resort >= resort_every:
                    predicates.sort(key=lambda p: p.rank)
                    since_resort = 0
                passed_all = True
                for predicate in predicates:
                    if not predicate.test(row, ctx):
                        passed_all = False
                        break
                if passed_all:
                    stats.rows_after_filter += 1
                    append(row)
            if kept or batch.last:
                yield batch.subset(kept)
            if batch.last:
                return


class StaticConjunction:
    """Fixed-order conjunction baseline (what a non-adaptive plan does)."""

    def __init__(
        self,
        child: Iterable[ColumnBatch],
        predicates: list[AdaptivePredicate],
        ctx: EvalContext,
    ) -> None:
        self._child = child
        self._predicates = predicates
        self._ctx = ctx

    def __iter__(self) -> Iterator[ColumnBatch]:
        ctx = self._ctx
        predicates = self._predicates
        for batch in self._child:
            kept = [
                row
                for row in batch.rows
                if all(p.test(row, ctx) for p in predicates)
            ]
            ctx.stats.rows_after_filter += len(kept)
            if kept or batch.last:
                yield batch.subset(kept)
            if batch.last:
                return
