"""Routing accounting: the per-batch conjunct memo counts like a per-row one.

The fanout evaluates each tenant's WHERE conjuncts over whole columns,
remembering per batch which (row, conjunct) verdicts are already known.
That must visit exactly the pairs a row-at-a-time memo would, so the
group's ``predicate_evaluations`` and ``evaluations_shared`` are checked
against a plain-Python per-row reference at several batch sizes — with a
tenant that has no WHERE at all and one whose geocoding conjunct has no
vector form (the scalar fallback) in every drawn tenant set.

Tenants with a LIMIT are left out: when they stop receiving rows depends
on when their consumer pulls (``test_fanout_chaos.py`` covers them).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineConfig, TweeQL
from repro.engine.planner import split_conjuncts
from repro.sql import parse

from tests.multitenant.conftest import QUERY_POOL, SEED, run_shared

NO_WHERE = "SELECT text FROM twitter;"
HIGH_LATENCY = (
    "SELECT text FROM twitter WHERE text contains 'goal' "
    "AND latitude(loc) > -90.0;"
)
FILTERED = [sql for sql in QUERY_POOL if "WHERE" in sql and "LIMIT" not in sql]


def conjunct_keys(sql):
    return [c.to_sql() for c in split_conjuncts(parse(sql).where)]


def per_row_memo(stream, tenants, passes):
    """The reference: every row, every tenant in order, one memo per row."""
    evaluations = shared = 0
    for tweet_id in stream:
        memo = {}
        for keys in tenants:
            for key in keys:
                if key in memo:
                    shared += 1
                else:
                    memo[key] = tweet_id in passes[key]
                    evaluations += 1
                if not memo[key]:
                    break
    return evaluations, shared


@pytest.fixture(scope="module")
def ids_where(mini_soccer):
    """Tweet ids (in stream order) passing a WHERE clause, run alone."""
    cache = {}

    def ids(where):
        if where not in cache:
            session = TweeQL.for_scenarios(
                mini_soccer, delivery_ratio=1.0, seed=SEED
            )
            sql = "SELECT tweet_id FROM twitter" + (
                f" WHERE {where};" if where else ";"
            )
            cache[where] = [row["tweet_id"] for row in session.query(sql).all()]
        return cache[where]

    return ids


@given(
    picks=st.lists(st.sampled_from(FILTERED), unique=True, max_size=4),
    seed=st.integers(min_value=0, max_value=2**16),
    batch_size=st.sampled_from([1, 7, 256]),
)
@settings(max_examples=10, deadline=None)
def test_memo_accounting_matches_per_row_reference(
    mini_soccer, ids_where, picks, seed, batch_size
):
    sqls = picks + [NO_WHERE, HIGH_LATENCY]
    random.Random(seed).shuffle(sqls)
    _rows, group = run_shared(
        mini_soccer, sqls, config=EngineConfig(batch_size=batch_size)
    )

    tenants = [conjunct_keys(sql) for sql in sqls]
    passes = {key: set(ids_where(key)) for keys in tenants for key in keys}
    evaluations, shared = per_row_memo(ids_where(None), tenants, passes)
    assert group.stats_dict()["fanout"]["predicate_evaluations"] == evaluations
    assert group.stats.evaluations_shared == shared
