"""Semantic (TQL2xx) checks and lint (TQL3xx) rules via analyze_sql."""

from repro.engine.session import EngineConfig
from repro.sql.analysis import Catalog, SourceInfo, analyze_sql


def codes(sql, **kwargs):
    return [d.code for d in analyze_sql(sql, **kwargs).diagnostics]


def make_catalog(live=True):
    twitter = Catalog.default().sources[0]
    return Catalog(
        sources=(
            SourceInfo("twitter", twitter.schema, live=live),
            SourceInfo("prices", ("created_at", "team", "price"), live=False),
            SourceInfo("teams", ("team", "city"), live=False),
        )
    )


# ---- TQL2xx ----------------------------------------------------------------


def test_unknown_source_tql212():
    result = analyze_sql("SELECT text FROM nowhere;")
    assert "TQL212" in [d.code for d in result.errors]
    [diag] = [d for d in result.errors if d.code == "TQL212"]
    assert diag.payload["available"] == ("twitter",)


def test_having_without_aggregation_tql204():
    assert "TQL204" in codes(
        "SELECT text FROM twitter WHERE text CONTAINS 'a' HAVING count(*) > 1;"
    )


def test_order_by_without_aggregate_tql205():
    assert "TQL205" in codes(
        "SELECT text FROM twitter WHERE text CONTAINS 'a' ORDER BY text;"
    )


def test_select_star_with_aggregates_tql206():
    assert "TQL206" in codes(
        "SELECT *, count(*) FROM twitter WHERE text CONTAINS 'a' "
        "WINDOW 1 minutes;"
    )


def test_aggregate_without_window_tql207():
    assert "TQL207" in codes(
        "SELECT count(*) FROM twitter WHERE text CONTAINS 'a';"
    )


def test_confidence_clause_lifts_tql207():
    sql = "SELECT avg(followers) FROM twitter WHERE text CONTAINS 'a'"
    assert "TQL207" not in codes(sql + " WINDOW CONFIDENCE 0.1;")
    assert "TQL207" in codes(sql + ";")


CONFIDENT = (
    "SELECT lang, avg(followers) AS f FROM twitter WHERE text CONTAINS 'a' "
    "GROUP BY lang WINDOW CONFIDENCE 0.1"
)


def test_confidence_mode_restrictions_tql213():
    for sql in (
        # not exactly one aggregate, or not AVG
        "SELECT text FROM twitter WHERE text CONTAINS 'a' WINDOW CONFIDENCE 0.1;",
        "SELECT lang FROM twitter WHERE text CONTAINS 'a' GROUP BY lang "
        "WINDOW CONFIDENCE 0.1;",
        "SELECT count(*) FROM twitter WHERE text CONTAINS 'a' "
        "WINDOW CONFIDENCE 0.1;",
        "SELECT avg(followers), avg(tweet_id) FROM twitter "
        "WHERE text CONTAINS 'a' WINDOW CONFIDENCE 0.1;",
        # clauses confidence-triggered emission has no place for
        CONFIDENT + " HAVING avg(followers) > 1;",
        CONFIDENT + " ORDER BY f DESC;",
        CONFIDENT + " LIMIT 3;",
    ):
        assert "TQL213" in codes(sql), sql


def test_confidence_clause_is_approximate_tql301():
    result = analyze_sql(CONFIDENT + ";")
    assert not result.errors
    [info] = result.infos
    assert info.code == "TQL301"
    clause = (CONFIDENT + ";")[info.span.start:info.span.end]
    assert clause == "WINDOW CONFIDENCE 0.1"
    windowed = CONFIDENT.replace("CONFIDENCE 0.1", "60 seconds") + ";"
    assert "TQL301" not in codes(windowed)


def test_invalid_named_bbox_tql208():
    assert "TQL208" in codes(
        "SELECT text FROM twitter WHERE location IN "
        "[bounding box for Atlantis];"
    )


def test_invalid_coord_bbox_tql208():
    assert "TQL208" in codes(
        "SELECT text FROM twitter WHERE location IN "
        "[bbox 95.0, -74.5, 99.0, -73.5];"
    )


def test_like_requires_literal_tql209():
    assert "TQL209" in codes(
        "SELECT text FROM twitter WHERE text LIKE loc;"
    )


def test_invalid_regex_tql210():
    assert "TQL210" in codes(
        "SELECT text FROM twitter WHERE text MATCHES '(unclosed';"
    )


def test_aggregate_arity_tql211():
    assert "TQL211" in codes(
        "SELECT sum(followers, tweet_id) FROM twitter WINDOW 1 minutes;"
    )


def test_star_in_non_count_aggregate_tql211():
    assert "TQL211" in codes(
        "SELECT sum(*) FROM twitter WINDOW 1 minutes;"
    )


def test_distinct_sum_tql211():
    assert "TQL211" in codes(
        "SELECT sum(DISTINCT followers) FROM twitter WINDOW 1 minutes;"
    )


def test_stream_stream_join_needs_time_window_tql214():
    assert "TQL214" in codes(
        "SELECT text FROM twitter JOIN prices ON screen_name = team;",
        catalog=make_catalog(),
    )


def test_lookup_join_needs_no_window():
    result = analyze_sql(
        "SELECT text, city FROM twitter JOIN teams ON screen_name = team "
        "WHERE text CONTAINS 'goal';",
        catalog=make_catalog(),
    )
    assert result.errors == ()


def test_join_condition_shape_tql215():
    assert "TQL215" in codes(
        "SELECT text FROM twitter JOIN teams ON screen_name > team;",
        catalog=make_catalog(),
    )


def test_join_field_resolution_tql216():
    assert "TQL216" in codes(
        "SELECT text FROM twitter JOIN teams ON bogus = also_bogus;",
        catalog=make_catalog(),
    )


def test_window_fan_out_past_the_bound_tql217():
    from repro.engine.windows import MAX_WINDOWS_PER_ROW

    result = analyze_sql(
        "SELECT count(*) AS n FROM twitter "
        "WINDOW 1 hours EVERY 0.001 seconds LIMIT 1;"
    )
    [diag] = [d for d in result.errors if d.code == "TQL217"]
    assert "3600000 windows" in diag.message
    assert str(MAX_WINDOWS_PER_ROW) in diag.message
    assert diag.span is not None
    assert "TQL217" in codes(
        "SELECT count(*) AS n FROM twitter WINDOW 1001 TWEETS EVERY 1 TWEETS;"
    )
    # At the bound, for either window kind, the clause plans.
    assert "TQL217" not in codes(
        "SELECT count(*) AS n FROM twitter WINDOW 1000 seconds EVERY 1 seconds;"
    )
    assert "TQL217" not in codes(
        "SELECT count(*) AS n FROM twitter WINDOW 1000 TWEETS EVERY 1 TWEETS;"
    )


def test_join_merged_schema_resolves_right_fields():
    # 'city' comes from the right side; 'r_'-prefixing only on collision.
    result = analyze_sql(
        "SELECT city FROM twitter JOIN teams ON screen_name = team "
        "WHERE text CONTAINS 'goal';",
        catalog=make_catalog(),
    )
    assert result.errors == ()


def test_multiple_problems_reported_in_one_pass():
    result = analyze_sql(
        "SELECT bogs, sentimant(text) FROM twitter "
        "WHERE text MATCHES '(unclosed' ORDER BY text;"
    )
    found = {d.code for d in result.errors}
    assert {"TQL201", "TQL202", "TQL210", "TQL205"} <= found


def test_aliases_visible_to_group_by_and_having():
    result = analyze_sql(
        "SELECT lower(text) AS t, count(*) FROM twitter "
        "WHERE text CONTAINS 'a' GROUP BY t WINDOW 1 minutes "
        "HAVING count(*) > 1;"
    )
    assert result.errors == ()


def test_aliases_not_visible_to_where():
    result = analyze_sql(
        "SELECT lower(text) AS t FROM twitter WHERE t = 'x';"
    )
    assert "TQL201" in [d.code for d in result.errors]


# ---- TQL3xx lints ----------------------------------------------------------


def test_firehose_lint_tql304_only_for_live_sources():
    live = analyze_sql("SELECT text FROM twitter;")
    assert "TQL304" in [d.code for d in live.warnings]
    static = analyze_sql(
        "SELECT price FROM prices;", catalog=make_catalog()
    )
    assert "TQL304" not in [d.code for d in static.diagnostics]


def test_api_eligible_filter_suppresses_tql304():
    for sql in (
        "SELECT text FROM twitter WHERE text CONTAINS 'obama';",
        "SELECT text FROM twitter WHERE location IN [bounding box for NYC];",
        "SELECT text FROM twitter WHERE user_id IN (1, 2);",
    ):
        assert "TQL304" not in codes(sql), sql


def test_high_latency_before_cheap_tql302():
    slow_first = analyze_sql(
        "SELECT text FROM twitter WHERE latitude(loc) > 0 "
        "AND text CONTAINS 'obama';"
    )
    assert "TQL302" in [d.code for d in slow_first.warnings]
    cheap_first = analyze_sql(
        "SELECT text FROM twitter WHERE text CONTAINS 'obama' "
        "AND latitude(loc) > 0;"
    )
    assert "TQL302" not in [d.code for d in cheap_first.diagnostics]


def test_catastrophic_regex_tql303():
    assert "TQL303" in codes(
        "SELECT text FROM twitter WHERE text CONTAINS 'a' "
        "AND text MATCHES '(x+)+y';"
    )
    assert "TQL303" not in codes(
        "SELECT text FROM twitter WHERE text CONTAINS 'a' "
        "AND text MATCHES 'goo+al';"
    )


def test_constant_predicate_tql305():
    always = analyze_sql(
        "SELECT text FROM twitter WHERE text CONTAINS 'a' AND 1 = 1;"
    )
    assert any(
        d.code == "TQL305" and "always true" in d.message
        for d in always.warnings
    )
    never = analyze_sql(
        "SELECT text FROM twitter WHERE text CONTAINS 'a' AND 1 = 2;"
    )
    assert any(
        d.code == "TQL305" and "never true" in d.message
        for d in never.warnings
    )


def test_redundant_alias_tql306():
    result = analyze_sql(
        "SELECT text AS text FROM twitter WHERE text CONTAINS 'a';"
    )
    assert "TQL306" in [d.code for d in result.infos]


def test_shadowing_alias_tql306():
    result = analyze_sql(
        "SELECT lower(text) AS lang FROM twitter WHERE text CONTAINS 'a';"
    )
    assert "TQL306" in [d.code for d in result.warnings]


def test_now_pinning_tql307():
    result = analyze_sql(
        "SELECT now() - created_at AS lag FROM twitter "
        "WHERE text CONTAINS 'a';",
        config=EngineConfig(batch_size=256),
    )
    assert "TQL307" in [d.code for d in result.infos]
    row_at_a_time = analyze_sql(
        "SELECT now() - created_at AS lag FROM twitter "
        "WHERE text CONTAINS 'a';",
        config=EngineConfig(batch_size=1),
    )
    assert "TQL307" not in [d.code for d in row_at_a_time.diagnostics]


def test_clean_query_has_no_diagnostics():
    result = analyze_sql(
        "SELECT sentiment(text), latitude(loc) FROM twitter "
        "WHERE text CONTAINS 'obama';"
    )
    assert result.diagnostics == ()
    assert result.ok(strict=True)
