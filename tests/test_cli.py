"""The tweeql command-line demo."""

import pytest

from repro.cli import (
    EXAMPLE_QUERIES,
    build_scenarios,
    main,
    make_parser,
    run_query,
)


def test_build_scenarios_names():
    scenarios = build_scenarios("soccer", seed=3, population_size=300)
    assert len(scenarios) == 1
    assert scenarios[0].name == "soccer"
    with pytest.raises(SystemExit):
        build_scenarios("bogus", seed=3, population_size=300)


def test_query_subcommand_prints_rows(capsys):
    code = main(
        [
            "--scenario", "soccer", "--population", "400", "--seed", "3",
            "query", "--sql",
            "SELECT text FROM twitter WHERE text contains 'tevez';",
            "--rows", "3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("text=") == 3
    assert "stats" in out


def test_query_with_fault_plan_and_retries(tmp_path, capsys):
    from repro.engine.resilience import FaultPlan, ServiceFaultModel, StreamDrop

    plan = FaultPlan(
        seed=7,
        services={"*": ServiceFaultModel(failure_rate=0.3, max_burst=2)},
        stream_drops=(StreamDrop(after_delivered=10, gap=5),),
    )
    path = tmp_path / "plan.json"
    plan.to_file(str(path))
    code = main(
        [
            "--scenario", "soccer", "--population", "400", "--seed", "3",
            "--retries", "3", "--deadline-ms", "4000",
            "--fault-plan", str(path),
            "query", "--sql",
            "SELECT latitude(loc) AS lat FROM twitter "
            "WHERE text contains 'tevez';",
            "--rows", "5",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("lat=") == 5


def test_resilience_parser_defaults():
    args = make_parser().parse_args(["repl"])
    assert args.retries == 0
    assert args.deadline_ms is None
    assert args.fault_plan is None
    assert args.no_stream_reconnect is False


def test_query_subcommand_reports_errors(capsys):
    code = main(
        [
            "--scenario", "soccer", "--population", "300", "--seed", "3",
            "query", "--sql", "SELECT COUNT(*) FROM twitter;",
        ]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_twitinfo_subcommand_text_dashboard(capsys):
    code = main(
        [
            "--scenario", "soccer", "--population", "500", "--seed", "3",
            "twitinfo",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "TwitInfo" in out
    assert "Timeline" in out


def test_twitinfo_html_output(tmp_path, capsys):
    target = str(tmp_path / "dash.html")
    code = main(
        [
            "--scenario", "soccer", "--population", "500", "--seed", "3",
            "twitinfo", "--html", target,
        ]
    )
    assert code == 0
    content = open(target, encoding="utf-8").read()
    assert content.startswith("<!DOCTYPE html>")
    assert "Peaks" in content


def test_example_queries_all_parse():
    from repro.sql import parse

    for _title, sql in EXAMPLE_QUERIES:
        parse(sql)


def test_example_queries_all_run(soccer_session):
    for _title, sql in EXAMPLE_QUERIES:
        handle = soccer_session.query(sql)
        handle.fetch(2)
        handle.close()


def test_parser_defaults():
    parser = make_parser()
    args = parser.parse_args(["repl"])
    assert args.scenario == "soccer"
    assert args.command == "repl"


def test_retired_layout_flag_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit):
        make_parser().parse_args(["--no-columnar", "repl"])
    assert "--no-columnar" in capsys.readouterr().err


def test_retired_workers_flag_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit):
        make_parser().parse_args(["--workers=4", "repl"])
    assert "--workers" in capsys.readouterr().err


def test_run_query_row_budget(soccer_session, capsys):
    printed = run_query(
        soccer_session,
        "SELECT text FROM twitter WHERE text contains 'soccer';",
        rows=5,
    )
    assert printed == 5
