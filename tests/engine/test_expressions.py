"""Expression compilation: SQL semantics including NULLs and tweet ops."""

import pytest

from repro.clock import VirtualClock
from repro.engine.expressions import (
    compile_expr,
    compile_vector_expr,
    contains_aggregate,
)
from repro.engine.functions import default_registry
from repro.engine.types import ColumnBatch, EvalContext
from repro.errors import PlanError, UnknownFieldError
from repro.sql import parse
from repro.sql.analysis.lints import fold_constant

SCHEMA = ("text", "n", "m", "loc", "location", "flag")


@pytest.fixture()
def ctx():
    return EvalContext(clock=VirtualClock())


def expr_of(sql_fragment):
    """Parse a standalone expression by wrapping it in a WHERE clause."""
    stmt = parse(f"SELECT text FROM t WHERE {sql_fragment};")
    return stmt.where


def evaluate(fragment, row, ctx):
    compiled = compile_expr(expr_of(fragment), default_registry(), SCHEMA, ctx)
    return compiled(row, ctx)


def test_arithmetic(ctx):
    assert evaluate("n + m * 2", {"n": 1, "m": 3}, ctx) == 7
    assert evaluate("(n + m) * 2", {"n": 1, "m": 3}, ctx) == 8
    assert evaluate("n % m", {"n": 7, "m": 4}, ctx) == 3


@pytest.mark.parametrize(
    "fragment,row",
    [
        # Python would repeat the string or tuple, as long as asked.
        ("text * n", {"text": "ab", "n": 10**19}),
        ("n * text", {"text": "ab", "n": 3}),
        ("loc * n", {"loc": ("a", "b"), "n": 10**19}),
        # Python would printf-format, width fields and all.
        ("text % n", {"text": "%9d", "n": 1}),
    ],
)
def test_arithmetic_is_numeric_only(ctx, fragment, row):
    """``*`` and ``%`` never build a result whose size an operand's value
    picks: on a string or sequence they raise like ``-`` does, in the
    row path, the column path and the analyzer's constant folder."""
    with pytest.raises(TypeError):
        evaluate(fragment, row, ctx)
    vector = compile_vector_expr(
        expr_of(fragment), default_registry(), SCHEMA, ctx
    )
    with pytest.raises(TypeError):
        vector(ColumnBatch.from_rows([row]), ctx)
    assert fold_constant(expr_of("'ab' * 10000000000000000000")) is None
    assert fold_constant(expr_of("'%9d' % 1")) is None
    assert fold_constant(expr_of("6 * 7 % 5")) == 2


def test_null_propagates_through_arithmetic(ctx):
    assert evaluate("n + m", {"n": None, "m": 3}, ctx) is None
    assert evaluate("-n", {"n": None}, ctx) is None


def test_division_by_zero_is_null(ctx):
    assert evaluate("n / m", {"n": 1, "m": 0}, ctx) is None
    assert evaluate("n / m", {"n": 7, "m": 2}, ctx) == 3.5


def test_comparisons(ctx):
    assert evaluate("n < m", {"n": 1, "m": 2}, ctx) is True
    assert evaluate("n >= m", {"n": 1, "m": 2}, ctx) is False
    assert evaluate("n != m", {"n": 1, "m": 2}, ctx) is True


def test_comparison_with_null_is_null(ctx):
    assert evaluate("n = m", {"n": None, "m": 2}, ctx) is None


def test_mixed_type_comparison_is_null_not_error(ctx):
    assert evaluate("n < m", {"n": "abc", "m": 2}, ctx) is None


def test_three_valued_and(ctx):
    assert evaluate("flag AND n = 1", {"flag": None, "n": 2}, ctx) is False
    assert evaluate("flag AND n = 1", {"flag": None, "n": 1}, ctx) is None
    assert evaluate("flag AND n = 1", {"flag": True, "n": 1}, ctx) is True


def test_three_valued_or(ctx):
    assert evaluate("flag OR n = 1", {"flag": None, "n": 1}, ctx) is True
    assert evaluate("flag OR n = 1", {"flag": None, "n": 2}, ctx) is None
    assert evaluate("flag OR n = 1", {"flag": False, "n": 2}, ctx) is False


def test_not_with_null(ctx):
    assert evaluate("NOT flag", {"flag": None}, ctx) is None
    assert evaluate("NOT flag", {"flag": False}, ctx) is True


def test_contains_case_insensitive(ctx):
    assert evaluate("text contains 'OBAMA'", {"text": "I saw Obama"}, ctx) is True
    assert evaluate("text contains 'xyz'", {"text": "I saw Obama"}, ctx) is False
    assert evaluate("text contains 'x'", {"text": None}, ctx) is None


def test_matches_regex(ctx):
    assert evaluate("text matches '^GOAL'", {"text": "GOAL! 1-0"}, ctx) is True
    assert evaluate("text matches '^GOAL'", {"text": "no goal"}, ctx) is False


def test_matches_invalid_regex_fails_at_plan_time(ctx):
    with pytest.raises(PlanError):
        compile_expr(expr_of("text matches '['"), default_registry(), SCHEMA, ctx)


def test_like_wildcards(ctx):
    assert evaluate("text like 'goal%'", {"text": "GOAL scored"}, ctx) is True
    assert evaluate("text like '%1_0%'", {"text": "now 1-0 up"}, ctx) is True
    assert evaluate("text like 'goal'", {"text": "goal!"}, ctx) is False


def test_in_list(ctx):
    assert evaluate("n IN (1, 2, 3)", {"n": 2}, ctx) is True
    assert evaluate("n IN (1, 2, 3)", {"n": 9}, ctx) is False
    assert evaluate("n IN (1, 2)", {"n": None}, ctx) is None


def test_in_bbox(ctx):
    row = {"location": (40.75, -73.98)}
    assert evaluate("location in [bounding box for NYC]", row, ctx) is True
    assert evaluate("location in [bounding box for Boston]", row, ctx) is False
    assert evaluate("location in [bounding box for NYC]", {"location": None}, ctx) is None


def test_in_bbox_unknown_name_fails_at_plan_time(ctx):
    with pytest.raises(PlanError):
        compile_expr(
            expr_of("location in [bounding box for gotham]"),
            default_registry(), SCHEMA, ctx,
        )


def test_is_null(ctx):
    assert evaluate("n IS NULL", {"n": None}, ctx) is True
    assert evaluate("n IS NOT NULL", {"n": 5}, ctx) is True


def test_unknown_field_fails_at_compile_with_hint(ctx):
    with pytest.raises(UnknownFieldError) as excinfo:
        compile_expr(expr_of("bogus = 1"), default_registry(), SCHEMA, ctx)
    assert "text" in str(excinfo.value)


def test_field_lookup_is_case_insensitive(ctx):
    assert evaluate("TEXT contains 'a'", {"text": "abc"}, ctx) is True


def test_alias_resolution(ctx):
    aliases = {"double": lambda row, _ctx: row["n"] * 2}
    compiled = compile_expr(
        expr_of("double > 5"), default_registry(), SCHEMA, ctx, aliases=aliases
    )
    assert compiled({"n": 3}, ctx) is True
    assert compiled({"n": 2}, ctx) is False


def test_function_call(ctx):
    assert evaluate("floor(n) = 3", {"n": 3.7}, ctx) is True
    assert evaluate("length(text) > 2", {"text": "abcd"}, ctx) is True


def test_nested_function_calls(ctx):
    assert evaluate("abs(floor(n)) = 4", {"n": -3.5}, ctx) is True


def test_unknown_function_raises(ctx):
    with pytest.raises(Exception) as excinfo:
        compile_expr(expr_of("nosuchfn(n) = 1"), default_registry(), SCHEMA, ctx)
    assert "nosuchfn" in str(excinfo.value)


def test_aggregate_in_scalar_position_rejected(ctx):
    with pytest.raises(PlanError):
        compile_expr(expr_of("avg(n) > 1"), default_registry(), SCHEMA, ctx)


def test_contains_aggregate_helper():
    assert contains_aggregate(expr_of("avg(n) > 1"))
    assert not contains_aggregate(expr_of("floor(n) > 1"))


def test_stateful_udf_instances_are_per_site(ctx):
    """Two meandev() call sites keep independent running state."""
    registry = default_registry()
    tokens_a = compile_expr(expr_of("meandev(n) >= 0"), registry, SCHEMA, ctx)
    # Feed site A a history so its mean is established.
    for value in (10, 10, 10):
        tokens_a({"n": value}, ctx)
    tokens_b = compile_expr(expr_of("meandev(n) >= 0"), registry, SCHEMA, ctx)
    # Site B starts fresh: its first observation scores 0 deviation.
    assert tokens_b({"n": 1000}, ctx) is True
