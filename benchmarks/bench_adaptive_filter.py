"""E3 — Eddies-style adaptive conjunct ordering under selectivity drift.

The paper explores "Eddies-style dynamic operator reordering to adjust to
changes in operator selectivity over time". Workload: a registered
source whose dominant topic flips mid-stream, so the cheapest conjunct
order flips too, queried as ``WHERE a = 1 AND b = 1`` at 256 rows per
batch. Plans are compared by total predicate evaluations (the executor
work the ordering controls), read from ``handle.stats``:

- the adaptive filter, in each written order;
- each static order (the same query with re-ranking switched off by
  raising ``RERANK_ROWS`` above the input size);
- the per-phase oracle: each half of the stream run alone in its better
  static order (a lower bound for any one order per phase).

Expected shape: every static order is bad on one phase; the adaptive
filter tracks the oracle within a small adaptation overhead (gate:
≤ 1.15x), and its count repeats exactly run to run. The gate reads
counts only, so it holds under ``--benchmark-disable``.
"""

import pytest

from repro import EngineConfig, TweeQL
from repro.engine import operators

from benchmarks.conftest import print_table

N = 40_000
BATCH = 256
AB = "SELECT created_at FROM topics WHERE a = 1 AND b = 1;"
BA = "SELECT created_at FROM topics WHERE b = 1 AND a = 1;"


def make_rows(start=0, stop=N):
    """Phase 0: topic b dominates (a is rare); phase 1: topic a does."""
    rows = []
    for i in range(start, stop):
        phase = 0 if i < N // 2 else 1
        rows.append(
            {
                "created_at": float(i),
                "a": int(i % 10 == 0) if phase == 0 else int(i % 2 == 0),
                "b": int(i % 2 == 0) if phase == 0 else int(i % 10 == 0),
            }
        )
    return rows


def run_query(sql, rows, static=False):
    """``(predicate_evaluations, rows out)`` of ``sql`` over ``rows``;
    ``static`` switches re-ranking off, keeping the written order."""
    with pytest.MonkeyPatch.context() as patch:
        if static:
            patch.setattr(operators, "RERANK_ROWS", len(rows) + 1)
        session = TweeQL(config=EngineConfig(batch_size=BATCH))
        session.register_source(
            "topics", lambda: iter([dict(r) for r in rows]),
            ("created_at", "a", "b"),
        )
        handle = session.query(sql)
        out = len(handle.all())
        evaluations = handle.stats.predicate_evaluations
        handle.close()
    return evaluations, out


def oracle_evaluations():
    """Each phase in its better static order."""
    return sum(
        min(run_query(sql, phase, static=True)[0] for sql in (AB, BA))
        for phase in (make_rows(0, N // 2), make_rows(N // 2, N))
    )


def test_adaptive_vs_static_orders(benchmark):
    rows = make_rows()

    def run_all():
        return {
            "adaptive a→b": run_query(AB, rows),
            "adaptive b→a": run_query(BA, rows),
            "static a→b": run_query(AB, rows, static=True),
            "static b→a": run_query(BA, rows, static=True),
        }

    plans = benchmark.pedantic(run_all, rounds=1, iterations=1)
    oracle = oracle_evaluations()

    print_table(
        "E3 predicate evaluations over a drifting stream "
        f"({N} rows, 2 conjuncts, flip at {N // 2}, {BATCH} rows/batch, "
        f"re-rank every {operators.RERANK_ROWS} rows)",
        ["plan", "evaluations", "vs oracle", "results"],
        [
            (name, evals, f"{evals / oracle:.3f}x", out)
            for name, (evals, out) in plans.items()
        ] + [("oracle", oracle, "1.000x", plans["static a→b"][1])],
    )
    # Same answers everywhere.
    assert len({out for _evals, out in plans.values()}) == 1
    for written in ("a→b", "b→a"):
        adaptive = plans[f"adaptive {written}"][0]
        # The adaptive filter beats both static orders (each wastes a
        # whole phase) and sits close to the oracle.
        assert adaptive < plans["static a→b"][0]
        assert adaptive < plans["static b→a"][0]
        assert adaptive <= oracle * 1.15
    # Integer counts, no clock: the order, and so the count, repeats.
    assert run_query(AB, rows) == plans["adaptive a→b"]


@pytest.mark.parametrize("rerank_rows", [256, 1024, 4096])
def test_ablation_rerank_interval(benchmark, rerank_rows):
    """Ablation: how often the filter re-ranks barely matters until the
    interval approaches the phase length."""
    rows = make_rows()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(operators, "RERANK_ROWS", rerank_rows)
        evals, _out = benchmark.pedantic(
            run_query, (AB, rows), rounds=1, iterations=1
        )
    oracle = oracle_evaluations()
    print(f"\nE3-ablation RERANK_ROWS={rerank_rows}: "
          f"{evals} evals ({evals / oracle:.3f}x oracle)")
    assert evals < oracle * 1.3
