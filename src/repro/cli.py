"""The TweeQL command-line demo.

Section 4: "The TweeQL demo will feature a command line query interface
that is familiar to most database users. We will offer the audience a
selection of pre-built queries, which they can copy and paste into the
command line to view live streaming results on their screen."

Usage::

    tweeql repl  --scenario soccer            # interactive queries
    tweeql query --scenario soccer --sql "SELECT …" [--rows 20]
    tweeql check queries/*.tql --strict       # static analysis, no execution
    tweeql check --sql "SELECT …" --format=json
    tweeql explain queries/*.tql              # plans, nothing executes
    tweeql explain --sql "SELECT …" --analyze --trace out.json
    tweeql twitinfo --scenario earthquakes    # print a dashboard
    tweeql twitinfo --scenario soccer --html dashboard.html
    tweeql fidelity --scenario election --rate 0.01 --seed 42
    tweeql fidelity --scenario botflood --rate 0.1 --out report.json

Inside the REPL: end a query with ``;`` to run it, or use the dot
commands ``.help``, ``.examples``, ``.explain <sql>``, ``.check <sql>``,
``.schema``, ``.functions``, ``.quit``. Queries are statically analyzed
before they run; warnings print ahead of the first result row.

``tweeql check`` exits non-zero when any query has errors — or, with
``--strict``, warnings. See ``docs/ANALYSIS.md`` for the diagnostic
code catalogue.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import TweeQL
from repro.errors import TweeQLError
from repro.twitinfo import TwitInfoApp
from repro.twitter.models import TWITTER_SCHEMA
from repro.twitter.users import UserPopulation
from repro.twitter.workloads import (
    Scenario,
    earthquake_scenario,
    news_month_scenario,
    soccer_match_scenario,
)

#: Pre-built queries offered to the audience (§4), adapted to the scenarios.
EXAMPLE_QUERIES: tuple[tuple[str, str], ...] = (
    (
        "sentiment + geocode (paper §2, query 1)",
        "SELECT sentiment(text), latitude(loc), longitude(loc) "
        "FROM twitter WHERE text contains 'obama';",
    ),
    (
        "keyword + location filter (paper §2, query 2)",
        "SELECT text FROM twitter WHERE text contains 'obama' "
        "AND location in [bounding box for NYC];",
    ),
    (
        "regional average sentiment (paper §2, query 3)",
        "SELECT AVG(sentiment(text)), floor(latitude(loc)) AS lat, "
        "floor(longitude(loc)) AS long FROM twitter "
        "WHERE text contains 'obama' GROUP BY lat, long WINDOW 3 hours;",
    ),
    (
        "goal reactions per minute",
        "SELECT COUNT(*) AS tweets, first(text) AS example FROM twitter "
        "WHERE text contains 'goal' WINDOW 1 minutes;",
    ),
    (
        "earthquake mention volume",
        "SELECT COUNT(*) AS n FROM twitter WHERE text contains 'earthquake' "
        "WINDOW 10 minutes;",
    ),
)

_SCENARIOS = ("soccer", "earthquakes", "news", "all")


def build_scenarios(name: str, seed: int, population_size: int) -> list[Scenario]:
    """Instantiate the named canned scenario(s) from §4 of the paper."""
    if name not in _SCENARIOS:
        raise SystemExit(f"unknown scenario {name!r}; pick from {_SCENARIOS}")
    population = UserPopulation(size=population_size, seed=seed)
    scenarios: list[Scenario] = []
    if name in ("soccer", "all"):
        scenarios.append(soccer_match_scenario(seed=seed, population=population))
    if name in ("earthquakes", "all"):
        scenarios.append(
            earthquake_scenario(seed=seed, population=population, intensity=0.5)
        )
    if name in ("news", "all"):
        scenarios.append(
            news_month_scenario(
                seed=seed, population=population, days=7, n_stories=3,
                intensity=0.5,
            )
        )
    return scenarios


def _resilience_config_kwargs(args: argparse.Namespace) -> dict:
    """EngineConfig kwargs for the fault-tolerance flags."""
    kwargs: dict = {
        "retries": getattr(args, "retries", 0),
        "stream_reconnect": not getattr(args, "no_stream_reconnect", False),
    }
    deadline_ms = getattr(args, "deadline_ms", None)
    if deadline_ms is not None:
        kwargs["retry_deadline_seconds"] = deadline_ms / 1000.0
    plan_path = getattr(args, "fault_plan", None)
    if plan_path is not None:
        from repro.engine.resilience import FaultPlan

        kwargs["fault_plan"] = FaultPlan.from_file(plan_path)
    return kwargs


def build_session(args: argparse.Namespace) -> tuple[TweeQL, list[Scenario]]:
    from repro import EngineConfig

    scenarios = build_scenarios(args.scenario, args.seed, args.population)
    config = EngineConfig(
        latency_mode=getattr(args, "latency_mode", "cached"),
        use_eddy=getattr(args, "use_eddy", False),
        partial_results=getattr(args, "partial_results", False),
        batch_size=getattr(args, "batch_size", 256),
        shared_scan=getattr(args, "shared", False),
        sanitize=getattr(args, "sanitize", False),
        storage_path=getattr(args, "store", None),
        backfill=getattr(args, "backfill", False),
        **_resilience_config_kwargs(args),
    )
    return TweeQL.for_scenarios(*scenarios, config=config), scenarios


def _format_row(row: dict, max_width: int = 40) -> str:
    parts = []
    for key, value in row.items():
        if key.startswith("__"):
            continue
        text = f"{value}"
        if len(text) > max_width:
            text = text[: max_width - 1] + "…"
        parts.append(f"{key}={text}")
    return "  ".join(parts)


def run_query(session: TweeQL, sql: str, rows: int) -> int:
    """Run one query, printing up to ``rows`` results. Returns row count."""
    handle = session.query(sql)
    printed = 0
    try:
        for row in handle:
            print(_format_row(row))
            printed += 1
            if printed >= rows:
                break
    finally:
        handle.close()
    print(f"-- {printed} row(s); stats: {handle.stats.as_dict()}")
    return printed


def run_shared_queries(session: TweeQL, sqls: list[str], rows: int) -> None:
    """Run several queries as tenants of one shared scan (``--shared``).

    One Firehose connection and one scan serve every query; results print
    per query, followed by the group's admission/routing/sharing counters.
    """
    group = session.shared()
    handles = [group.query(sql) for sql in sqls]
    try:
        for sql, handle in zip(sqls, handles):
            print(f"== {sql}")
            printed = 0
            try:
                for row in handle:
                    print(_format_row(row))
                    printed += 1
                    if printed >= rows:
                        break
            finally:
                handle.close()
            print(f"-- {printed} row(s); stats: {handle.stats.as_dict()}")
    finally:
        group.close()
    print(f"-- shared scan: {group.stats.as_dict()}")


def repl(session: TweeQL, rows: int) -> None:
    """The interactive loop."""
    print("TweeQL demo shell — type .help for commands, .examples for "
          "pre-built queries.")
    buffer: list[str] = []
    while True:
        prompt = "tweeql> " if not buffer else "   ...> "
        try:
            line = input(prompt)
        except EOFError:
            print()
            return
        stripped = line.strip()
        if not buffer and stripped.startswith("."):
            command, _, argument = stripped.partition(" ")
            if command in (".quit", ".exit"):
                return
            if command == ".help":
                print(
                    ".examples            show pre-built queries\n"
                    ".explain <sql>       show the plan without running\n"
                    ".check <sql>         static analysis without running\n"
                    ".schema              show the twitter stream schema\n"
                    ".functions           list registered functions/UDFs\n"
                    ".quit                leave"
                )
            elif command == ".examples":
                for title, sql in EXAMPLE_QUERIES:
                    print(f"-- {title}\n{sql}\n")
            elif command == ".explain":
                try:
                    print(session.explain(argument))
                except TweeQLError as exc:
                    print(f"error: {exc}")
            elif command == ".check":
                print(session.analyze(argument).render())
            elif command == ".schema":
                print("twitter(" + ", ".join(TWITTER_SCHEMA) + ")")
            elif command == ".functions":
                print(", ".join(session.registry.names()))
            else:
                print(f"unknown command {command!r}; try .help")
            continue
        buffer.append(line)
        if stripped.endswith(";"):
            sql = "\n".join(buffer)
            buffer = []
            # Analyze before running: errors print with carets and skip
            # execution; warnings/notes print ahead of the result rows.
            result = session.analyze(sql)
            if not result.ok():
                print(result.render())
                continue
            for diag in result.diagnostics:
                print(diag.render(sql))
            try:
                run_query(session, sql, rows)
            except TweeQLError as exc:
                print(f"error: {exc}")


def split_statements(text: str) -> list[str]:
    """Split a ``.tql`` file into statements.

    ``--`` starts a line comment; statements end at ``;``. Returned
    statements keep their trailing semicolon and original spacing (so
    diagnostic spans line up with what the author wrote).
    """
    lines = []
    for line in text.splitlines():
        stripped = line.lstrip()
        lines.append("" if stripped.startswith("--") else line)
    statements: list[str] = []
    # Note: a ';' inside a string literal would split early; example
    # files simply avoid that.
    for chunk in "\n".join(lines).split(";"):
        if chunk.strip():
            statements.append(chunk.strip() + ";")
    return statements


def run_check(args: argparse.Namespace) -> int:
    """``tweeql check``: static analysis only; no query ever executes.

    Exit status is 0 when every query is clean, 1 when any has errors —
    or warnings under ``--strict``.
    """
    from repro import EngineConfig
    from repro.sql.analysis import analyze_sql

    config = EngineConfig(
        latency_mode=getattr(args, "latency_mode", "cached"),
        use_eddy=getattr(args, "use_eddy", False),
        partial_results=getattr(args, "partial_results", False),
        batch_size=getattr(args, "batch_size", 256),
        sanitize=getattr(args, "sanitize", False),
    )
    queries: list[tuple[str, str]] = []
    for sql in args.sql or ():
        queries.append(("<--sql>", sql))
    for path in args.files:
        with open(path, encoding="utf-8") as f:
            for index, statement in enumerate(split_statements(f.read()), 1):
                queries.append((f"{path}:{index}", statement))
    if not queries:
        print("nothing to check: pass --sql or .tql files", file=sys.stderr)
        return 2

    failed = False
    reports = []
    for label, sql in queries:
        result = analyze_sql(sql, config=config)
        if not result.ok(strict=args.strict):
            failed = True
        if args.format == "json":
            reports.append({"source": label, "sql": sql, **result.as_dict()})
        else:
            print(f"== {label}")
            print(result.render())
            print()
    if args.format == "json":
        print(json.dumps({"ok": not failed, "queries": reports}, indent=2))
    else:
        verdict = "FAILED" if failed else "ok"
        print(f"-- checked {len(queries)} quer"
              f"{'y' if len(queries) == 1 else 'ies'}: {verdict}")
    return 1 if failed else 0


def run_explain(args: argparse.Namespace) -> int:
    """``tweeql explain``: show query plans, optionally executed + profiled.

    Without ``--analyze`` this prints each plan without running anything.
    With ``--analyze`` every query is planned with tracing on, executed to
    completion (cap with ``--limit`` on unbounded streams), and rendered
    with per-operator rows/batches/timing, service accounting, and a span
    census. ``--trace FILE`` additionally writes a Chrome trace JSON
    (load it in ``chrome://tracing`` or Perfetto) covering every analyzed
    query, one process per query.
    """
    queries: list[tuple[str, str]] = []
    for sql in args.sql or ():
        queries.append(("<--sql>", sql))
    for path in args.files:
        with open(path, encoding="utf-8") as f:
            for index, statement in enumerate(split_statements(f.read()), 1):
                queries.append((f"{path}:{index}", statement))
    if not queries:
        print("nothing to explain: pass --sql or .tql files", file=sys.stderr)
        return 2
    if args.trace and not args.analyze:
        print("--trace requires --analyze (spans only exist once the "
              "query runs)", file=sys.stderr)
        return 2

    failed = False
    traces: list[tuple[str, object]] = []
    for label, sql in queries:
        # A fresh session per statement keeps the virtual clock (and so
        # every reported timing) independent of statement order.
        session, _ = build_session(args)
        print(f"== {label}")
        try:
            if not args.analyze:
                print(session.explain(sql))
            else:
                session.config.tracing = True
                handle = session.query(sql)
                try:
                    print(handle.explain(analyze=True, limit=args.limit))
                finally:
                    handle.close()
                if args.trace:
                    traces.append((label, handle.tracer))
        except TweeQLError as exc:
            print(f"error: {exc}")
            failed = True
        print()
    if args.trace and traces:
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(traces, args.trace)
        count = len(traces)
        print(f"-- wrote Chrome trace for {count} "
              f"quer{'y' if count == 1 else 'ies'} to {args.trace}")
    return 1 if failed else 0


def run_twitinfo(args: argparse.Namespace) -> None:
    """Track the scenario's canonical event and print its dashboard."""
    session, scenarios = build_session(args)
    scenario = scenarios[0]
    app = TwitInfoApp(session)
    names = {
        "soccer": "Soccer: Manchester City vs. Liverpool",
        "earthquakes": "Earthquake timeline",
        "news": "A week in Barack Obama's life",
    }
    event = app.track(
        names.get(args.scenario, scenario.name),
        scenario.keywords,
        start=scenario.start,
        end=scenario.end,
        bin_seconds=args.bin_seconds,
    )
    if args.serve is not None:
        from repro.twitinfo.server import TwitInfoServer

        server = TwitInfoServer(app, port=args.serve).start()
        print(f"TwitInfo serving at {server.url} — Ctrl-C to stop")
        try:
            import time

            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            pass
        finally:
            server.stop()
        return

    dashboard = app.dashboard(event, peak_label=args.peak)
    if args.html:
        with open(args.html, "w", encoding="utf-8") as f:
            f.write(dashboard.render_html())
        print(f"wrote {args.html}")
    else:
        print(dashboard.render_text())
    session.close()


def run_fidelity(args: argparse.Namespace) -> int:
    """``tweeql fidelity``: firehose-vs-sample bias measurement.

    Builds the named scenario, replays it through the fidelity harness
    (one lossless firehose pass, one ``statuses/sample`` pass at
    ``--rate``), prints the score summary, and emits the deterministic
    JSON report — to ``--out`` when given, stdout otherwise. Output is
    byte-identical across runs for the same (scenario, seed, rate).
    """
    from repro.fidelity import FidelityRun, build_scenario

    scenario = build_scenario(
        args.scenario,
        seed=args.seed,
        population_size=args.population,
        intensity=args.intensity,
    )
    run = FidelityRun(
        scenario,
        rate=args.rate,
        seed=args.seed,
        bin_seconds=args.bin_seconds,
        topk=args.topk,
        tolerance_bins=args.tolerance_bins,
    )
    report = run.execute()
    for line in report.summary_lines():
        print(line)
    text = report.to_json_text()
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tweeql",
        description="TweeQL/TwitInfo demo (SIGMOD 2011 reproduction)",
    )
    parser.add_argument("--seed", type=int, default=11, help="workload seed")
    parser.add_argument(
        "--population", type=int, default=2000, help="synthetic user count"
    )
    parser.add_argument(
        "--scenario",
        default="soccer",
        choices=_SCENARIOS,
        help="which canned §4 scenario feeds the stream",
    )
    parser.add_argument(
        "--latency-mode",
        default="cached",
        choices=("blocking", "cached", "batched", "async"),
        help="how high-latency UDFs reach their web services",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=256,
        metavar="N",
        help="rows per batch between operators (1 = one row per batch, "
        "scalar stages; results are identical at any size)",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="run queries under the TQLSAN invariant sanitizer: check "
        "punctuation, ColumnBatch coherence, stage ownership, and stats "
        "monotonicity at every operator boundary "
        "(TQL9xx violations; also via TWEEQL_SAN=1; see docs/SANITIZER.md)",
    )
    parser.add_argument(
        "--use-eddy",
        action="store_true",
        help="adaptive (eddy) ordering for local predicates",
    )
    parser.add_argument(
        "--partial-results",
        action="store_true",
        help="with --latency-mode async: emit NULL instead of blocking on "
        "in-flight service calls",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="retry failed service calls up to N times with exponential "
        "backoff (0 = fail fast, the pre-resilience behavior)",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="per-call deadline across all retry attempts, in virtual "
        "milliseconds",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="FILE",
        help="inject the deterministic failure schedule from this JSON "
        "fault-plan file (see docs/RESILIENCE.md)",
    )
    parser.add_argument(
        "--shared",
        action="store_true",
        help="multi-tenant shared-scan mode: queries given via repeated "
        "--sql (and TwitInfo's event queries) share one stream connection "
        "and one scan instead of opening one each",
    )
    parser.add_argument(
        "--no-stream-reconnect",
        action="store_true",
        help="do not auto-reconnect dropped stream connections (gap "
        "tweets are lost instead of recovered)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="FILE",
        help="historical tier: archive every delivered tweet into this "
        "SQLite file behind the live path (indexed on created_at; see "
        "docs/STORAGE.md)",
    )
    parser.add_argument(
        "--backfill",
        action="store_true",
        help="with --store, split windowed queries into instant "
        "backfill-from-storage + live tail (merged on timestamp order)",
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("repl", help="interactive query shell")

    query = sub.add_parser("query", help="run one or more queries and exit")
    query.add_argument(
        "--sql", action="append", required=True, metavar="SQL",
        help="query to run (repeatable; with --shared every query rides "
        "one shared scan)",
    )
    query.add_argument("--rows", type=int, default=20)

    check = sub.add_parser(
        "check", help="statically analyze queries without running them"
    )
    check.add_argument(
        "files", nargs="*", metavar="FILE.tql",
        help="query files ('--' comments, ';'-terminated statements)",
    )
    check.add_argument(
        "--sql", action="append", metavar="SQL",
        help="check this query text (repeatable)",
    )
    check.add_argument(
        "--strict", action="store_true",
        help="treat warnings as failures (non-zero exit)",
    )
    check.add_argument(
        "--format", default="text", choices=("text", "json"),
        help="diagnostic output format",
    )

    explain = sub.add_parser(
        "explain", help="show query plans; --analyze runs and profiles them"
    )
    explain.add_argument(
        "files", nargs="*", metavar="FILE.tql",
        help="query files ('--' comments, ';'-terminated statements)",
    )
    explain.add_argument(
        "--sql", action="append", metavar="SQL",
        help="explain this query text (repeatable)",
    )
    explain.add_argument(
        "--analyze", action="store_true",
        help="execute each query with tracing on and annotate the plan "
        "with rows, batches, and virtual-clock timings",
    )
    explain.add_argument(
        "--trace", default=None, metavar="FILE",
        help="with --analyze: write a Chrome trace JSON covering every "
        "analyzed query (open in chrome://tracing or Perfetto)",
    )
    explain.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="with --analyze: cap rows drained per query",
    )

    twitinfo = sub.add_parser("twitinfo", help="print a TwitInfo dashboard")
    twitinfo.add_argument("--peak", default=None, help="drill into one peak")
    twitinfo.add_argument("--html", default=None, help="write an HTML page")
    twitinfo.add_argument("--bin-seconds", type=float, default=60.0)
    twitinfo.add_argument(
        "--serve", type=int, default=None, metavar="PORT",
        help="start the TwitInfo web server on PORT instead of printing",
    )

    fidelity = sub.add_parser(
        "fidelity",
        help="measure firehose-vs-sample bias for a scenario",
        description="Replay one scenario through a lossless firehose pass "
        "and a rate-limited statuses/sample pass, run the same TwitInfo "
        "event on each, and report fidelity scores, coverage confidence, "
        "and ground-truth recall as deterministic JSON.",
    )
    # --scenario/--seed/--population shadow main-parser dests; SUPPRESS
    # keeps a pre-subcommand value (e.g. ``tweeql --seed 7 fidelity``)
    # from being clobbered by a subparser default.
    from repro.fidelity.harness import SCENARIO_BUILDERS

    fidelity.add_argument(
        "--scenario",
        default=argparse.SUPPRESS,
        choices=sorted(SCENARIO_BUILDERS),
        help="which workload to measure (default: soccer)",
    )
    fidelity.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="workload seed"
    )
    fidelity.add_argument(
        "--population", type=int, default=argparse.SUPPRESS,
        help="synthetic user count",
    )
    fidelity.add_argument(
        "--rate", type=float, default=0.01, metavar="P",
        help="statuses/sample probability for the sample pass",
    )
    fidelity.add_argument(
        "--intensity", type=float, default=1.0,
        help="scenario traffic multiplier",
    )
    fidelity.add_argument("--bin-seconds", type=float, default=60.0)
    fidelity.add_argument(
        "--topk", type=int, default=10, help="top terms per digest"
    )
    fidelity.add_argument(
        "--tolerance-bins", type=int, default=3,
        help="peak-matching tolerance, in bins",
    )
    fidelity.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the JSON report here instead of stdout",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``tweeql`` console script."""
    parser = make_parser()
    args = parser.parse_args(argv)
    command = args.command or "repl"
    try:
        if command == "fidelity":
            return run_fidelity(args)
        elif command == "twitinfo":
            run_twitinfo(args)
        elif command == "check":
            return run_check(args)
        elif command == "explain":
            return run_explain(args)
        elif command == "query":
            session, _ = build_session(args)
            try:
                if getattr(args, "shared", False):
                    run_shared_queries(session, args.sql, args.rows)
                else:
                    for sql in args.sql:
                        run_query(session, sql, args.rows)
            finally:
                # Flush the storage writer so --store files are durable.
                session.close()
        else:
            session, _ = build_session(args)
            try:
                repl(session, rows=20)
            finally:
                session.close()
    except TweeQLError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
