"""Planner decisions: conjunct splitting, API candidates, plan errors."""

import pytest

from repro import EngineConfig, TweeQL
from repro.engine.operators import FilterOperator
from repro.engine.planner import (
    extract_api_candidates,
    split_conjuncts,
)
from repro.errors import PlanError, UnknownSourceError
from repro.sql import parse


def where_of(sql):
    return parse(sql).where


def test_split_conjuncts_flattens_ands():
    where = where_of("SELECT text FROM t WHERE a = 1 AND b = 2 AND c = 3;")
    assert len(split_conjuncts(where)) == 3


def test_split_conjuncts_keeps_or_whole():
    where = where_of("SELECT text FROM t WHERE a = 1 OR b = 2;")
    assert len(split_conjuncts(where)) == 1


def test_split_none():
    assert split_conjuncts(None) == []


def test_extract_track_candidate():
    conjuncts = split_conjuncts(
        where_of("SELECT text FROM t WHERE text contains 'obama' AND followers > 5;")
    )
    found = extract_api_candidates(conjuncts)
    assert len(found) == 1
    index, candidate = found[0]
    assert index == 0
    assert candidate.kind == "track"
    assert candidate.api_kwargs == {"track": ("obama",)}


def test_extract_or_of_contains_as_multi_keyword_track():
    conjuncts = split_conjuncts(
        where_of(
            "SELECT text FROM t WHERE (text contains 'a' OR text contains 'b');"
        )
    )
    found = extract_api_candidates(conjuncts)
    assert found[0][1].api_kwargs == {"track": ("a", "b")}


def test_or_mixing_fields_not_api_eligible():
    conjuncts = split_conjuncts(
        where_of("SELECT text FROM t WHERE text contains 'a' OR followers > 5;")
    )
    assert extract_api_candidates(conjuncts) == []


def test_extract_bbox_candidate():
    conjuncts = split_conjuncts(
        where_of("SELECT text FROM t WHERE location in [bounding box for NYC];")
    )
    found = extract_api_candidates(conjuncts)
    assert found[0][1].kind == "locations"


def test_extract_follow_candidates():
    eq = split_conjuncts(where_of("SELECT text FROM t WHERE user_id = 7;"))
    inlist = split_conjuncts(
        where_of("SELECT text FROM t WHERE user_id IN (7, 8);")
    )
    assert extract_api_candidates(eq)[0][1].kind == "follow"
    assert extract_api_candidates(inlist)[0][1].api_kwargs == {"follow": (8, 7)} or \
        extract_api_candidates(inlist)[0][1].api_kwargs == {"follow": (7, 8)}


def test_contains_on_other_field_stays_local():
    conjuncts = split_conjuncts(
        where_of("SELECT text FROM t WHERE loc contains 'boston';")
    )
    assert extract_api_candidates(conjuncts) == []


# --- plan-level behaviour through a session ---------------------------------


def test_unknown_source(soccer_session):
    with pytest.raises(UnknownSourceError):
        soccer_session.query("SELECT x FROM nowhere;")


def test_aggregate_without_window_rejected(soccer_session):
    with pytest.raises(PlanError) as excinfo:
        soccer_session.query(
            "SELECT COUNT(*) FROM twitter WHERE text contains 'soccer';"
        )
    assert "WINDOW" in str(excinfo.value)


def test_having_without_aggregate_rejected(soccer_session):
    with pytest.raises(PlanError):
        soccer_session.query(
            "SELECT text FROM twitter WHERE text contains 'a' HAVING COUNT(*) > 1;"
        )


def test_order_by_without_aggregate_rejected(soccer_session):
    with pytest.raises(PlanError):
        soccer_session.query(
            "SELECT text FROM twitter WHERE text contains 'a' ORDER BY text;"
        )


def test_select_star_with_aggregate_rejected(soccer_session):
    with pytest.raises(PlanError):
        soccer_session.query(
            "SELECT *, COUNT(*) FROM twitter WHERE text contains 'a' WINDOW 1 minutes;"
        )


def test_join_without_window_rejected(soccer_session):
    soccer_session.register_source("other", lambda: iter(()), ("created_at", "k"))
    with pytest.raises(PlanError):
        soccer_session.query(
            "SELECT text FROM twitter JOIN other ON user_id = k;"
        )


def test_explain_names_api_filter(soccer_session):
    text = soccer_session.explain(
        "SELECT text FROM twitter WHERE text contains 'tevez' AND followers > 10;"
    )
    assert "track(tevez)" in text
    assert "followers" in text


def test_explain_shows_selectivity_estimates(soccer_session):
    text = soccer_session.explain(
        "SELECT text FROM twitter WHERE text contains 'tevez' "
        "AND location in [bounding box for NYC];"
    )
    assert "selectivity" in text


def test_chosen_conjunct_removed_from_local_filter(soccer_session):
    plan = soccer_session.plan(
        "SELECT text FROM twitter WHERE text contains 'tevez';"
    )
    # Only the API filter line; no local Filter line.
    assert not any(line.startswith("Filter") for line in plan.explain_lines)


def test_firehose_fallback_when_no_candidates(soccer_session):
    text = soccer_session.explain("SELECT text FROM twitter;")
    assert "firehose" in text


def test_conjunction_plans_one_filter_stage(soccer_session):
    plan = soccer_session.plan(
        "SELECT text FROM twitter WHERE text matches 'tev' "
        "AND followers > 10 AND lang = 'en';"
    )
    filters = [
        line for line in plan.explain_lines if line.startswith("Filter")
    ]
    # No conjunct is API-eligible, so all three run locally, in one stage.
    assert filters == [
        "Filter: (text MATCHES 'tev') AND (followers > 10) AND (lang = 'en') "
        "[vectorized 3/3]"
    ]
    node, stages = plan.pipeline, []
    while node is not None:
        if isinstance(node, FilterOperator):
            stages.append(node)
        node = getattr(node, "_child", None)
    assert [len(stage.conjuncts) for stage in stages] == [3]


def test_registered_source_schema_validated(soccer_session):
    soccer_session.register_source(
        "static", lambda: iter([{"created_at": 1.0, "x": 1}]), ("created_at", "x")
    )
    rows = soccer_session.query("SELECT x FROM static;").all()
    assert rows[0]["x"] == 1
    with pytest.raises(Exception):
        soccer_session.query("SELECT bogus FROM static;")


@pytest.mark.parametrize(
    "code, sql",
    [
        ("TQL204", "SELECT text FROM twitter WHERE text contains 'a' "
                   "HAVING COUNT(*) > 1;"),
        ("TQL205", "SELECT text FROM twitter WHERE text contains 'a' ORDER BY text;"),
        ("TQL206", "SELECT *, COUNT(*) FROM twitter WHERE text contains 'a' "
                   "WINDOW 1 minutes;"),
        ("TQL207", "SELECT COUNT(*) FROM twitter WHERE text contains 'a';"),
        ("TQL211", "SELECT SUM(followers, tweet_id) FROM twitter "
                   "WHERE text contains 'a' WINDOW 1 minutes;"),
        ("TQL211", "SELECT AVG(*) FROM twitter WHERE text contains 'a' "
                   "WINDOW 1 minutes;"),
        ("TQL212", "SELECT x FROM nowhere;"),
        ("TQL212", "SELECT text FROM twitter JOIN nowhere ON user_id = k "
                   "WINDOW 1 minutes;"),
        ("TQL214", "SELECT text FROM twitter JOIN other ON user_id = k;"),
        ("TQL215", "SELECT text FROM twitter JOIN other ON user_id > k "
                   "WINDOW 1 minutes;"),
        ("TQL216", "SELECT text FROM twitter JOIN other ON user_id = nope "
                   "WINDOW 1 minutes;"),
    ],
)
def test_session_rejections_carry_their_code(soccer_session, code, sql):
    """Each statement rule is enforced once, by the analyzer, and reaches a
    session caller as a typed error carrying that rule's code."""
    soccer_session.register_source("other", lambda: iter(()), ("created_at", "k"))
    with pytest.raises((PlanError, UnknownSourceError)) as excinfo:
        soccer_session.query(sql)
    assert excinfo.value.code == code


def test_cannot_shadow_twitter(soccer_session):
    with pytest.raises(PlanError):
        soccer_session.register_source("twitter", lambda: iter(()), ("created_at",))


BODY_STAGES = ("Filter", "Limit", "Aggregate", "Into")


def body_stages(explain_text):
    names = [line.split(":")[0] for line in explain_text.splitlines()]
    return [name for name in names if name in BODY_STAGES]


@pytest.mark.parametrize(
    "sql,expected",
    [
        (
            "SELECT latitude(loc) AS lat, text FROM twitter WHERE text "
            "CONTAINS 'goal' AND followers > 10 LIMIT 5 INTO kept;",
            ["Filter", "Limit", "Into"],
        ),
        (
            "SELECT COUNT(*) AS n, lang FROM twitter WHERE text CONTAINS "
            "'goal' AND followers > 10 GROUP BY lang WINDOW 60 seconds;",
            ["Filter", "Aggregate"],
        ),
    ],
    ids=["scalar", "aggregate"],
)
def test_body_stages_match_across_plan_shapes(soccer, sql, expected):
    """Serial and shared-scan tenant plans share one body builder, so
    EXPLAIN lists the same stages in the same order."""

    def session():
        config = EngineConfig(latency_mode="batched")
        return TweeQL.for_scenarios(soccer, config=config)

    serial = session().explain(sql)
    group = session().shared()
    try:
        tenant = group.query(sql).explain()
    finally:
        group.close()
    assert "SharedScan:" in tenant
    assert body_stages(serial) == expected
    assert body_stages(tenant) == expected


def vector_stages(pipeline):
    """Which Project (fused, then per item) and Aggregate (group keys,
    then aggregate arguments) slots of an operator chain carry a
    whole-column evaluator, walking down the ``_child`` links."""
    from repro.engine import operators as ops

    found = []
    while pipeline is not None:
        if isinstance(pipeline, ops.ProjectOperator):
            found.append((
                "Project",
                [pipeline._fused is not None]
                + [v is not None for v in pipeline._vector_items or ()],
            ))
        elif isinstance(pipeline, ops.WindowedAggregateOperator):
            found.append((
                "Aggregate",
                [v is not None for v in pipeline._vector_group_evals or ()]
                + [v is not None for v in pipeline._vector_agg_args or ()],
            ))
        pipeline = getattr(pipeline, "_child", None)
    return found


@pytest.mark.parametrize(
    "sql,expected",
    [
        (
            "SELECT text, lang FROM twitter WHERE followers > 10;",
            [("Project", [True, True, True])],
        ),
        (
            "SELECT lower(text) AS t, followers FROM twitter "
            "WHERE followers > 10;",
            [("Project", [False, True, True])],
        ),
        (
            "SELECT COUNT(*) AS n, AVG(followers) AS f, lang FROM twitter "
            "WHERE followers > 10 GROUP BY lang WINDOW 60 seconds;",
            [("Aggregate", [True, False, True])],
        ),
    ],
    ids=["fused", "mixed", "aggregate"],
)
def test_vector_stages_match_across_plan_shapes(soccer, sql, expected):
    """A shared-scan tenant body gets the same vectorized projection /
    group-key / aggregate-argument evaluators as a serial plan (it used
    to be built without them), and none at one row per batch."""

    def session(**config):
        return TweeQL.for_scenarios(soccer, config=EngineConfig(**config))

    def tenant_stages(**config):
        group = session(**config).shared()
        try:
            return vector_stages(group.query(sql)._plan.pipeline)
        finally:
            group.close()

    assert vector_stages(session().plan(sql).pipeline) == expected
    assert tenant_stages() == expected
    for _stage, flags in tenant_stages(batch_size=1):
        assert not any(flags)


#: The ``query_cpu`` benchmark workload's three statements.
QUERY_CPU_STATEMENTS = (
    "SELECT lower(text) AS t, length(text) AS n, hour(created_at) AS h "
    "FROM twitter WHERE length(text) > 10 AND followers >= 10;",
    "SELECT text, screen_name FROM twitter "
    "WHERE text matches 'g[oa]+l' AND lang = 'en';",
    "SELECT AVG(followers) AS f, COUNT(*) AS n, lang FROM twitter "
    "WHERE length(text) > 10 GROUP BY lang WINDOW 5 minutes;",
)


@pytest.mark.parametrize(
    "sql", QUERY_CPU_STATEMENTS, ids=["project_udf", "regex", "grouped_avg"]
)
def test_inert_workers_field_plans_the_serial_plan(soccer, sql):
    """``EngineConfig.workers`` has no reader: the same rows and a
    byte-identical EXPLAIN as the default configuration."""

    def run(config):
        session = TweeQL.for_scenarios(soccer, config=config)
        handle = session.query(sql)
        explain, rows = handle.explain(), handle.all()
        handle.close()
        return explain, rows

    serial_explain, serial_rows = run(EngineConfig())
    assert serial_rows
    assert run(EngineConfig(workers=2)) == (serial_explain, serial_rows)
