"""ColumnBatch: the columnar payload and its row bridges.

The load-bearing property is the round trip — ``from_rows(to_rows(b))``
must reproduce a batch exactly (ragged schemas, NULL vs MISSING, empty
punctuation batches included), because every row-oriented consumer (INTO
sinks, the exchange partitioner, CSV export) reads through ``.rows`` and
every columnar producer writes through ``from_rows``. The vectorized
expression layer is then checked cell-for-cell against the scalar
compiler on deliberately nasty values (None, mixed types, zero
divisors).
"""

from __future__ import annotations

import pickle

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import VirtualClock
from repro.engine.expressions import (
    Broadcast,
    compile_expr,
    compile_vector_expr,
    expand_column,
)
from repro.engine.functions import default_registry
from repro.engine.types import MISSING, ColumnBatch, EvalContext
from repro.sql import parse


def parse_expression(fragment):
    """Parse a standalone expression via a WHERE-clause wrapper."""
    return parse(f"SELECT text FROM t WHERE {fragment};").where

FIELDS = ("text", "followers", "lang", "loc")

cell_values = st.one_of(
    st.none(),
    st.integers(min_value=-5, max_value=2000),
    st.sampled_from(("goal", "", "Goal!", "obama rain", "12")),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
)


@st.composite
def row_lists(draw):
    """Row dicts with per-row key subsets (ragged schemas included)."""
    n = draw(st.integers(min_value=0, max_value=12))
    rows = []
    for _ in range(n):
        keys = draw(
            st.lists(st.sampled_from(FIELDS), unique=True, max_size=len(FIELDS))
        )
        rows.append({key: draw(cell_values) for key in keys})
    return rows


@settings(max_examples=200, deadline=None)
@given(rows=row_lists(), seq=st.integers(0, 9), last=st.booleans())
def test_row_round_trip_is_exact(rows, seq, last):
    batch = ColumnBatch.from_rows([dict(r) for r in rows], seq=seq, last=last)
    assert batch.to_rows() == rows
    assert batch.rows == rows  # cached bridge agrees with the eager one
    assert len(batch) == len(rows)
    assert list(batch) == rows


@settings(max_examples=200, deadline=None)
@given(rows=row_lists(), seq=st.integers(0, 9), last=st.booleans())
def test_from_rows_to_rows_round_trip_batch_equality(rows, seq, last):
    batch = ColumnBatch.from_rows([dict(r) for r in rows], seq=seq, last=last)
    again = ColumnBatch.from_rows(batch.to_rows(), seq=seq, last=last)
    assert again == batch


@settings(max_examples=100, deadline=None)
@given(rows=row_lists())
def test_values_matches_row_get(rows):
    batch = ColumnBatch.from_rows([dict(r) for r in rows])
    for name in FIELDS:
        assert batch.values(name) == [row.get(name) for row in rows]


@settings(max_examples=100, deadline=None)
@given(rows=row_lists(), data=st.data())
def test_take_matches_row_slicing(rows, data):
    batch = ColumnBatch.from_rows([dict(r) for r in rows])
    indexes = data.draw(
        st.lists(
            st.integers(0, max(len(rows) - 1, 0)),
            max_size=len(rows),
            unique=True,
        ).map(sorted)
        if rows
        else st.just([])
    )
    taken = batch.take(indexes)
    assert taken.to_rows() == [rows[i] for i in indexes]
    assert taken.seq == batch.seq
    assert taken.last == batch.last


def test_empty_punctuation_batch():
    batch = ColumnBatch.from_rows([], seq=3, last=True)
    assert len(batch) == 0
    assert batch.rows == []
    assert batch.last
    assert batch.seq == 3
    assert batch.values("text") == []


def test_head_truncates_and_terminates():
    rows = [{"a": i} for i in range(10)]
    batch = ColumnBatch.from_rows(rows, seq=2)
    head = batch.head(4)
    assert head.to_rows() == rows[:4]
    assert head.last  # LIMIT truncation punctuates the stream
    assert head.seq == 2


def test_missing_is_distinct_from_null():
    rows = [{"a": 1, "b": None}, {"a": 2}]
    batch = ColumnBatch.from_rows(rows)
    assert batch.field("b") == [None, MISSING]
    assert batch.field("zzz") is None
    assert batch.values("b") == [None, None]
    assert batch.to_rows() == rows  # MISSING vanishes, NULL survives


def test_missing_sentinel_survives_pickling():
    # Process-backend transport pickles row payloads; identity checks
    # (`v is MISSING`) must keep working on the other side.
    assert pickle.loads(pickle.dumps(MISSING)) is MISSING


def test_take_identity_shortcut_preserves_batch():
    batch = ColumnBatch.from_rows([{"a": 1}, {"a": 2}])
    assert batch.take([0, 1]) is batch


# ---------------------------------------------------------------------------
# Vectorized expressions vs the scalar compiler
# ---------------------------------------------------------------------------

#: Expressions with hostile value mixes: NULL propagation, three-valued
#: AND/OR, TypeError-absorbing comparisons, zero divisors, regex/LIKE.
VECTOR_EXPRS = (
    "followers > 500",
    "followers >= 0 AND lang = 'en'",
    "text CONTAINS 'goal' OR followers < 10",
    "NOT (lang = 'es')",
    "followers IS NULL",
    "loc IS NOT NULL",
    "lang IN ('en', 'pt')",
    "text LIKE '%goal%'",
    "text MATCHES 'g.al'",
    "followers + 1 > 100",
    "followers / 0 IS NULL",
    "-followers < 0",
    "length(text) > 3",  # UDF: vector compiler must decline (None)
)

ROWS = [
    {"text": "goal!", "followers": 900, "lang": "en", "loc": "NYC"},
    {"text": "no match", "followers": None, "lang": "es", "loc": None},
    {"text": None, "followers": 0, "lang": "pt", "loc": ""},
    {"text": "Goal goal", "followers": 10, "lang": None, "loc": "London"},
    {"followers": 501, "lang": "en"},  # ragged: text/loc MISSING
]

SCHEMA = ("text", "followers", "lang", "loc")


@pytest.mark.parametrize("sql", VECTOR_EXPRS)
def test_vector_evaluator_matches_scalar(sql):
    registry = default_registry()
    ctx = EvalContext(clock=VirtualClock())
    expr = parse_expression(sql)
    scalar = compile_expr(expr, registry, SCHEMA, ctx)
    vector = compile_vector_expr(expr, registry, SCHEMA, ctx)
    if "length(" in sql:
        assert vector is None  # UDFs stay on the scalar path
        return
    assert vector is not None, sql
    batch = ColumnBatch.from_rows([dict(r) for r in ROWS])
    result = expand_column(vector(batch, ctx), len(batch))
    expected = [scalar(row, ctx) for row in batch.rows]
    assert result == expected, sql


def test_vector_and_does_not_mask_scalar_type_errors():
    """Scalar AND short-circuits: a False left arm skips a raising right
    arm. The vector compiler must refuse to combine arms that can raise
    (arithmetic is not "total"), or results would diverge."""
    registry = default_registry()
    ctx = EvalContext(clock=VirtualClock())
    expr = parse_expression("followers > 10000 AND text + 1 > 0")
    vector = compile_vector_expr(expr, registry, SCHEMA, ctx)
    if vector is None:
        return  # declining entirely is also sound
    batch = ColumnBatch.from_rows([dict(r) for r in ROWS])
    scalar = compile_expr(expr, registry, SCHEMA, ctx)
    for i, row in enumerate(batch.rows):
        try:
            expected = scalar(row, ctx)
        except TypeError:
            with pytest.raises(TypeError):
                expand_column(vector(batch, ctx), len(batch))
            return
        assert expand_column(vector(batch, ctx), len(batch))[i] == expected


def test_broadcast_expands_to_length():
    assert expand_column(Broadcast(True), 3) == [True, True, True]
    assert expand_column([1, 2], 2) == [1, 2]
