"""Parser: the paper's queries plus the dialect's corners."""

import pytest

from repro.errors import ParseError
from repro.sql import ast, parse


def test_paper_query_1():
    stmt = parse(
        "SELECT sentiment(text), latitude(loc), longitude(loc) "
        "FROM twitter WHERE text contains 'obama';"
    )
    assert stmt.source == "twitter"
    assert len(stmt.select) == 3
    assert isinstance(stmt.select[0].expr, ast.FuncCall)
    assert stmt.select[0].expr.name == "sentiment"
    assert isinstance(stmt.where, ast.BinaryOp)
    assert stmt.where.op == "CONTAINS"


def test_paper_query_2_bbox():
    stmt = parse(
        "SELECT text FROM twitter WHERE text contains 'obama' "
        "AND location in [bounding box for NYC];"
    )
    conjunct = stmt.where
    assert conjunct.op == "AND"
    bbox_side = conjunct.right
    assert bbox_side.op == "IN_BBOX"
    assert isinstance(bbox_side.right, ast.BBox)
    assert bbox_side.right.name == "NYC"


def test_paper_query_3_group_window():
    stmt = parse(
        "SELECT AVG(sentiment(text)), floor(latitude(loc)) AS lat, "
        "floor(longitude(loc)) AS long FROM twitter "
        "WHERE text contains 'obama' GROUP BY lat, long WINDOW 3 hours;"
    )
    assert stmt.select[1].alias == "lat"
    assert stmt.select[2].alias == "long"  # soft keyword as alias
    assert [g.name for g in stmt.group_by] == ["lat", "long"]
    assert stmt.window.size_seconds == 3 * 3600
    assert stmt.window.tumbling


def test_numeric_bbox():
    stmt = parse("SELECT text FROM twitter WHERE location in [bbox 40.4, -74.2, 40.9, -73.7];")
    box = stmt.where.right
    assert box.coords == (40.4, -74.2, 40.9, -73.7)


def test_window_every_sliding():
    stmt = parse("SELECT COUNT(*) FROM twitter WINDOW 5 minutes EVERY 1 minute;")
    assert stmt.window.size_seconds == 300
    assert stmt.window.slide == 60
    assert not stmt.window.tumbling


def test_count_star():
    stmt = parse("SELECT COUNT(*) FROM twitter WINDOW 1 minutes;")
    call = stmt.select[0].expr
    assert call.name == "count"
    assert isinstance(call.args[0], ast.Star)


def test_count_distinct():
    stmt = parse("SELECT COUNT(DISTINCT user_id) FROM twitter WINDOW 1 minutes;")
    assert stmt.select[0].expr.distinct


def test_select_star():
    stmt = parse("SELECT * FROM twitter;")
    assert isinstance(stmt.select[0].expr, ast.Star)


def test_alias_without_as():
    stmt = parse("SELECT text body FROM twitter;")
    assert stmt.select[0].alias == "body"


def test_operator_precedence_and_or():
    stmt = parse("SELECT text FROM twitter WHERE a = 1 OR b = 2 AND c = 3;")
    assert stmt.where.op == "OR"
    assert stmt.where.right.op == "AND"


def test_not_precedence():
    stmt = parse("SELECT text FROM twitter WHERE NOT a = 1 AND b = 2;")
    assert stmt.where.op == "AND"
    assert stmt.where.left.op == "NOT"


def test_arithmetic_precedence():
    stmt = parse("SELECT 1 + 2 * 3 FROM twitter;")
    expr = stmt.select[0].expr
    assert expr.op == "+"
    assert expr.right.op == "*"


def test_parentheses_override():
    stmt = parse("SELECT (1 + 2) * 3 FROM twitter;")
    assert stmt.select[0].expr.op == "*"


def test_unary_minus():
    stmt = parse("SELECT -x FROM twitter;")
    assert stmt.select[0].expr.op == "NEG"


def test_between_desugars():
    stmt = parse("SELECT text FROM twitter WHERE followers BETWEEN 10 AND 20;")
    expr = stmt.where
    assert expr.op == "AND"
    assert expr.left.op == ">="
    assert expr.right.op == "<="


def test_in_list():
    stmt = parse("SELECT text FROM twitter WHERE lang IN ('en', 'pt');")
    assert isinstance(stmt.where, ast.InList)
    assert len(stmt.where.values) == 2


def test_not_in_list():
    stmt = parse("SELECT text FROM twitter WHERE lang NOT IN ('en');")
    assert stmt.where.op == "NOT"
    assert isinstance(stmt.where.operand, ast.InList)


def test_is_null_and_is_not_null():
    stmt = parse("SELECT text FROM twitter WHERE geo_lat IS NULL AND loc IS NOT NULL;")
    assert stmt.where.left.op == "IS NULL"
    assert stmt.where.right.op == "IS NOT NULL"


def test_matches_and_like():
    stmt = parse("SELECT text FROM twitter WHERE text matches '^GOAL' OR text like 'goal%';")
    assert stmt.where.left.op == "MATCHES"
    assert stmt.where.right.op == "LIKE"


def test_having_order_limit_into():
    stmt = parse(
        "SELECT COUNT(*) AS n, text FROM twitter GROUP BY text "
        "WINDOW 1 minutes HAVING COUNT(*) > 2 ORDER BY n DESC LIMIT 5 INTO peaks;"
    )
    assert stmt.having is not None
    assert stmt.order_by[0][1] is True  # DESC
    assert stmt.limit == 5
    assert stmt.into == "peaks"


def test_join_clause():
    stmt = parse(
        "SELECT text FROM twitter JOIN other ON user_id = author_id WINDOW 1 minutes;"
    )
    assert stmt.join is not None
    assert stmt.join.source == "other"
    assert stmt.join.condition.op == "="


def test_literals():
    stmt = parse("SELECT NULL, TRUE, FALSE, 1.5, 'x' FROM twitter;")
    values = [item.expr.value for item in stmt.select]
    assert values == [None, True, False, 1.5, "x"]


def test_missing_from_raises():
    with pytest.raises(ParseError):
        parse("SELECT text;")


def test_trailing_garbage_raises():
    with pytest.raises(ParseError):
        parse("SELECT text FROM twitter; bogus")


def test_bad_window_unit_raises():
    with pytest.raises(ParseError):
        parse("SELECT COUNT(*) FROM twitter WINDOW 3 parsecs;")


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT COUNT(*) AS n FROM twitter WINDOW 0 seconds;",
        "SELECT COUNT(*) AS n FROM twitter WINDOW 10 seconds EVERY 0 seconds;",
    ],
)
def test_zero_length_time_window_is_a_parse_error(sql):
    """A zero size or slide would divide by zero at the first row; the
    error spans the offending number."""
    with pytest.raises(ParseError) as excinfo:
        parse(sql)
    assert excinfo.value.code == "TQL002"
    zero = sql.rindex(" 0 ") + 1
    assert (excinfo.value.position, excinfo.value.end) == (zero, zero + 1)


def test_windowspec_rejects_non_positive_sizes():
    with pytest.raises(ValueError):
        ast.WindowSpec(size_seconds=0.0)
    with pytest.raises(ValueError):
        ast.WindowSpec(size_seconds=10.0, slide_seconds=-1.0)
    with pytest.raises(ValueError):
        ast.WindowSpec(size_count=0)
    with pytest.raises(ValueError):
        ast.WindowSpec(size_count=5, slide_count=0)


def test_window_confidence_clause():
    statement = parse(
        "SELECT AVG(sentiment(text)) FROM twitter GROUP BY lat, long "
        "WINDOW CONFIDENCE 0.1 MAX 3 hours;"
    )
    assert statement.window is None
    assert statement.confidence == ast.ConfidenceSpec(0.1, 3 * 3600.0)
    assert parse(statement.to_sql()) == statement


def test_window_confidence_defaults_and_case():
    statement = parse("SELECT avg(x) FROM t window confidence 50 max 30 minutes;")
    assert statement.confidence == ast.ConfidenceSpec(50.0, 1800.0)
    bare = parse("SELECT avg(x) FROM t WINDOW CONFIDENCE 2;").confidence
    assert bare == ast.ConfidenceSpec(2.0)
    assert parse("SELECT avg(x) FROM t WINDOW CONFIDENCE 2 MAX 3 hours;").confidence == bare


def test_confidence_max_age_default_is_the_policy_default():
    from repro.engine.confidence import ConfidencePolicy

    assert ast.ConfidenceSpec(1.0).max_age_seconds == ConfidencePolicy().max_age_seconds


@pytest.mark.parametrize(
    "tail",
    [
        "WINDOW CONFIDENCE 0",             # half-width not positive
        "WINDOW CONFIDENCE -0.1",          # ... nor negative
        "WINDOW CONFIDENCE",               # missing number
        "WINDOW CONFIDENCE 0.1 MAX",       # MAX without a duration
        "WINDOW CONFIDENCE 0.1 MAX 3",     # MAX without a unit
        "WINDOW CONFIDENCE 0.1 MAX 3 tweets",  # MAX takes a time unit
        "WINDOW CONFIDENCE 0.1 MAX 0 hours",   # nor a zero age
    ],
)
def test_window_confidence_errors_are_parse_errors(tail):
    with pytest.raises(ParseError) as excinfo:
        parse(f"SELECT avg(x) FROM t GROUP BY k {tail};")
    assert excinfo.value.code == "TQL002"


def test_confidence_and_max_stay_identifiers():
    """Both words are soft keywords: outside the clause they are names."""
    statement = parse(
        "SELECT max(followers) AS confidence, confidence AS c2 FROM twitter "
        "GROUP BY confidence WINDOW 1 minutes;"
    )
    assert statement.select[0].expr == ast.FuncCall("max", (ast.FieldRef("followers"),))
    assert statement.select[0].alias == "confidence"
    assert statement.group_by == (ast.FieldRef("confidence"),)


def test_unterminated_bbox_raises():
    with pytest.raises(ParseError):
        parse("SELECT text FROM twitter WHERE location in [bounding box for;")


def test_error_reports_position():
    with pytest.raises(ParseError) as excinfo:
        parse("SELECT FROM twitter;")
    assert "position" in str(excinfo.value)


def test_to_sql_round_trips():
    """Rendering then reparsing yields an identical AST (fixed-point)."""
    queries = [
        "SELECT sentiment(text), latitude(loc) FROM twitter WHERE text contains 'obama';",
        "SELECT AVG(x) AS a, floor(y) AS b FROM twitter GROUP BY b WINDOW 60 seconds;",
        "SELECT text FROM twitter WHERE location in [bounding box for NYC] LIMIT 3;",
        "SELECT COUNT(*) FROM twitter WHERE a >= 1 AND b IS NULL WINDOW 5 minutes EVERY 60 seconds;",
        "SELECT AVG(x) AS a, k FROM twitter GROUP BY k WINDOW CONFIDENCE 0.25 MAX 2 hours;",
    ]
    for sql in queries:
        first = parse(sql)
        second = parse(first.to_sql())
        assert first == second
