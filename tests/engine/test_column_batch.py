"""ColumnBatch: the columnar payload and its row bridges.

The load-bearing property is the round trip — ``from_rows(to_rows(b))``
must reproduce a batch exactly (ragged schemas, NULL vs MISSING, empty
punctuation batches included), because every row-oriented consumer (INTO
sinks, the exchange partitioner, CSV export) reads through ``.rows`` and
every columnar producer writes through ``from_rows``. The vectorized
expression layer is then checked cell-for-cell against the scalar
compiler on deliberately nasty values (None, mixed types, zero
divisors), function calls included: every vectorizable builtin must give
the scalar closure's column or raise its exception, and every call whose
order is observable must decline.
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
from repro.engine.latency import ManagedCall
from repro.engine.types import MISSING, ColumnBatch, EvalContext
from repro.geo.service import LatencyModel, SimulatedWebService
from repro.sql import ast, parse


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
def row_lists(draw, cells=cell_values):
    """Row dicts with per-row key subsets (ragged schemas included)."""
    n = draw(st.integers(min_value=0, max_value=12))
    rows = []
    for _ in range(n):
        keys = draw(
            st.lists(st.sampled_from(FIELDS), unique=True, max_size=len(FIELDS))
        )
        rows.append({key: draw(cells) for key in keys})
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
#: AND/OR, TypeError-absorbing comparisons, zero divisors, regex/LIKE —
#: and function calls (NULL and missing arguments, ``sqrt`` of a negative,
#: a zero divisor inside an argument, nested, variadic, literal-bound).
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
    "length(text) > 3",
    "lower(text)",
    "length(lower(text)) + 1",
    "upper(NULL)",
    "sqrt(followers)",
    "sqrt(followers - 100)",
    "sqrt(text)",
    "round(followers / 7, 1)",
    "round(100 / followers)",
    "round(followers, NULL)",
    "abs(-followers)",
    "floor(followers / 3) % 2 = 0",
    "substr(text, 2, 3)",
    "substr(text, followers)",
    "replace(text, 'goal', lang)",
    "replace(text, 'goal', NULL)",
    "concat(text, lang, '!')",
    "concat('#', followers)",
    "coalesce(loc, lang, 'nowhere')",
    "if(followers > 10, text, lang)",
    "hashtags(concat('#', lang, ' ', text))",
    "first_url(concat('see http://t.co/', lang, '.'))",
    "extract(text, '(g.al)')",
    "extract(text, lang, 0)",
    "point(followers, 2)",
    "hour(followers * 3600)",
    "format_time(followers)",
    "sentiment(text) >= 0",
    "sentiment_score(text)",
)

ROWS = [
    {"text": "goal!", "followers": 900, "lang": "en", "loc": "NYC"},
    {"text": "no match", "followers": None, "lang": "es", "loc": None},
    {"text": None, "followers": 0, "lang": "pt", "loc": ""},
    {"text": "Goal goal", "followers": 10, "lang": None, "loc": "London"},
    {"followers": 501, "lang": "en"},  # ragged: text/loc MISSING
]

SCHEMA = ("text", "followers", "lang", "loc")


#: Clock-free stand-ins for the session's classifier services.
SERVICES = {
    "sentiment": lambda text: len(text) % 3 - 1,
    "sentiment_score": lambda text: (len(text) % 7 - 3) / 3,
}


def managed_stand_in(name, resolver, clock):
    """A cached managed call over an instant service; it answers NULL
    for keys containing ``"no"``."""
    service = SimulatedWebService(
        name,
        lambda key: None if "no" in key else resolver(key),
        clock=clock,
        latency=LatencyModel(0.0, sigma=0.0),
    )
    return ManagedCall(service, mode="cached")


def make_ctx():
    clock = VirtualClock()
    services = dict(SERVICES)
    services["geocode"] = managed_stand_in(
        "geocoder", lambda loc: (len(loc), -len(loc)), clock
    )
    services["entities"] = managed_stand_in(
        "opencalais", lambda text: text.split()[:2], clock
    )
    return EvalContext(clock=clock, services=services)


def outcome(thunk):
    """``("ok", value)`` or ``("raised", exception type)``."""
    try:
        return "ok", thunk()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return "raised", type(exc)


def assert_vector_matches_scalar(expr, rows, registry=None, aliases=None):
    """The vector form exists and yields the scalar closure's column, or
    both raise the same exception type. ``aliases`` maps a select alias
    to its SQL."""
    registry = registry or default_registry()
    ctx = make_ctx()
    aliases = {
        name: parse_expression(sql) for name, sql in (aliases or {}).items()
    }
    scalar = compile_expr(expr, registry, SCHEMA, ctx, aliases={
        name: compile_expr(alias, registry, SCHEMA, ctx)
        for name, alias in aliases.items()
    })
    vector = compile_vector_expr(expr, registry, SCHEMA, ctx, aliases=aliases)
    assert vector is not None, expr.to_sql()
    batch = ColumnBatch.from_rows([dict(r) for r in rows])
    got = outcome(lambda: expand_column(vector(batch, ctx), len(batch)))
    want = outcome(lambda: [scalar(row, ctx) for row in batch.rows])
    assert got == want, expr.to_sql()


@pytest.mark.parametrize("sql", VECTOR_EXPRS)
def test_vector_evaluator_matches_scalar(sql):
    assert_vector_matches_scalar(parse_expression(sql), ROWS)


def vectorizable_calls():
    """``(name, min arity, max arity)`` of every builtin that must have a
    vector form: not stateful, takes an argument."""
    registry = default_registry()
    calls = []
    for name in registry.names():
        spec = registry.lookup(name)
        if spec.stateful or not spec.arg_types:
            continue
        declared = len(spec.arg_types)
        low = declared if spec.min_args is None else spec.min_args
        high = declared + 2 if spec.variadic else declared
        calls.append((name, max(low, 1), high))
    return calls


argument_cells = st.one_of(
    st.none(),
    st.integers(min_value=-5, max_value=2000),
    st.sampled_from((0, 0.0, -1.5, 2.25, 1_307_000_000.5)),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.sampled_from(
        ("goal", "", "Goal! #win", "ÉCOLE ñandú", "日本 http://t.co/x.", "12")
    ),
)

call_arguments = st.one_of(
    st.sampled_from(FIELDS).map(ast.FieldRef),
    argument_cells.map(ast.Literal),
)


@pytest.mark.parametrize("name,low,high", vectorizable_calls())
# An example takes milliseconds; a builtin whose cost grows with an
# argument's value must fail here, not stall the suite.
@settings(max_examples=60, deadline=1000)
@given(data=st.data())
def test_vector_call_matches_scalar(name, low, high, data):
    """Every vectorizable builtin, over NULLs, missing keys, negatives,
    zero, empty and non-ASCII strings, with literals in argument slots."""
    args = data.draw(st.lists(call_arguments, min_size=low, max_size=high))
    rows = data.draw(row_lists(argument_cells))
    assert_vector_matches_scalar(ast.FuncCall(name, tuple(args)), rows)


def test_every_builtin_is_vectorizable_or_a_pinned_decline():
    vectorizable = {name for name, _low, _high in vectorizable_calls()}
    assert set(default_registry().names()) - vectorizable == {"meandev", "now"}


class Running:
    """A user stateful UDF: running sum of its argument."""

    def __init__(self):
        self.total = 0

    def __call__(self, _ctx, value):
        self.total += value or 0
        return self.total


@pytest.mark.parametrize(
    "sql",
    [
        "meandev(followers)",
        "now()",
        "running(followers) > 3",
        # t: a name outside the schema with no aliased expression handed
        # to the vector compiler; only the scalar path can resolve it.
        "length(t) > 3",
        # A user high-latency UDF: no column form, one call per row.
        "slow(loc) > 40",
        "count(text)",
        # Scalar OR skips the right arm on a TRUE left one; a call can raise.
        "followers > 10 OR length(text) > 3",
        "sqrt(followers) > 3 AND lang = 'en'",
    ],
)
def test_vector_compiler_declines(sql):
    """Calls whose order or per-row state is observable stay scalar."""
    registry = default_registry()
    registry.register("running", Running, stateful=True)
    registry.register("slow", lambda _ctx, loc: 41, high_latency=True)
    ctx = make_ctx()
    vector = compile_vector_expr(parse_expression(sql), registry, SCHEMA, ctx)
    assert vector is None


@pytest.mark.parametrize(
    "sql",
    [
        "latitude(loc) > 40",
        "named_entities(text)",
        "length(named_entities(text))",
        "length(t) > 3",  # t: a select alias
    ],
)
def test_vector_compiler_compiles_service_calls_and_aliases(sql):
    """Web-service builtins resolve a whole key column (NULL answers
    included), and a select alias compiles its expression."""
    assert_vector_matches_scalar(
        parse_expression(sql), ROWS, aliases={"t": "lower(text)"}
    )


def test_vector_call_runs_once_per_row_in_row_order():
    """A user scalar is called once per row per call site, in row order;
    an empty batch calls nothing — column arguments or literal ones."""
    registry = default_registry()
    seen = []

    def tap(_ctx, value, suffix=""):
        seen.append(value)
        return f"{value}{suffix}"

    registry.register("tap", tap)
    ctx = make_ctx()
    for sql, expected_calls in (
        ("tap(followers)", [900, None, 0, 10, 501]),
        ("tap(followers, '!')", [900, None, 0, 10, 501]),
        ("tap(7)", [7] * len(ROWS)),
    ):
        vector = compile_vector_expr(
            parse_expression(sql), registry, SCHEMA, ctx
        )
        assert vector is not None, sql
        empty = ColumnBatch.from_rows([], last=True)
        assert expand_column(vector(empty, ctx), 0) == []
        assert seen == [], sql
        batch = ColumnBatch.from_rows([dict(r) for r in ROWS])
        expand_column(vector(batch, ctx), len(batch))
        assert seen == expected_calls, sql
        seen.clear()


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
