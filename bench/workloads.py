"""The four workloads: inputs, one closed-loop pass, and layer probes.

Load model: a **closed loop, one client, one thread, in-process calls**.
The system is a pull-driven library on a virtual clock, so nothing
arrives on a schedule: the next call is made when the previous returns.

A *pass* is one fixed unit of user work (see each class). Sessions are
built outside the timed region — ``Workload.sessions`` — because a pass
needs fresh ones (connections, caches and the clock are stateful) and
their construction cost is ledgered on its own. ``run`` with a
``SpanRecorder`` is the traced twin of the same pass: the benchmark
drives the same steps through each layer's public entry points and
records a span at every boundary. ``probes`` measures single layers
from outside, on this workload's inputs.

The program sees generated inputs only; ``seed`` feeds the scenario
generators and nothing else.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import threading
from dataclasses import dataclass, field
from statistics import mean
from time import perf_counter as now
from time import perf_counter_ns

from repro import EngineConfig, TweeQL
from repro.fidelity.coverage import CoverageEstimate
from repro.geo.geocode import Geocoder
from repro.nlp.keywords import KeywordExtractor
from repro.nlp.similarity import rank_by_similarity
from repro.nlp.tokenize import tokenize
from repro.sql import parse
from repro.storage.historical import HistoricalStore, StorageWriter
from repro.twitinfo.app import TwitInfoApp
from repro.twitter.users import UserPopulation
from repro.twitter.workloads import (
    election_night_scenario,
    soccer_match_scenario,
)

from bench import reference
from bench.spans import PASS, UNTRACED

POPULATION = 3000
SNAPSHOT_EVERY = 500
#: Tweets fed to the per-call nlp / geo / storage-tap probes.
PROBE_TWEETS = 4000
#: Interleaved rounds of the serial / workers / tracing / sanitize probe.
MODE_ROUNDS = 3


@dataclass
class PassResult:
    """What one pass produced and how long its user-visible steps took."""

    wall_s: float
    #: Call to the complete answer, mean over the pass's ops.
    answer_s: float
    misses: list[str]
    digest: str
    #: Workload-specific observations: counts, virtual time, phase walls.
    observed: dict[str, float] = field(default_factory=dict)


def digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha1(text.encode()).hexdigest()


def rows_digest(handle, rows) -> str:
    columns = [c for c in handle.schema if not c.startswith("__")]
    h = hashlib.sha1()
    for row in rows:
        h.update(repr([row.get(c) for c in columns]).encode())
    return h.hexdigest()


def timed(rec, name, fn, *args):
    """Call ``fn`` under a span; returns (result, seconds)."""
    with rec.span(name):
        start = now()
        out = fn(*args)
        took = now() - start
    return out, took


class Workload:
    """Inputs and reference for one workload; subclasses define the pass."""

    name = ""
    #: Queries, tracked events and session closes in one pass.
    ops_per_pass = 0

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        self.build_ms: list[float] = []

    # -- set-up (timed as ``setup_s``) --------------------------------------

    def setup(self) -> None:
        start = now()
        population = UserPopulation(size=POPULATION, seed=self.seed)
        self.scenario = self.generate(population)
        self.generate_s = now() - start
        self.tweets = self.scenario.tweets
        self.prepare()

    def generate(self, population):
        raise NotImplementedError

    def prepare(self) -> None:
        """Compute the expected outputs and ``input_tweets_per_pass``."""
        raise NotImplementedError

    def keyword_count(self, keywords) -> int:
        return len(reference.keyword_matches(self.tweets, keywords))

    def session(self, **config) -> TweeQL:
        start = now()
        session = TweeQL.for_scenarios(
            self.scenario,
            config=EngineConfig(**config),
            delivery_ratio=1.0,
            seed=self.seed,
        )
        self.build_ms.append((now() - start) * 1e3)
        return session

    # -- the pass ---------------------------------------------------------------

    def sessions(self) -> list[TweeQL]:
        raise NotImplementedError

    def run(self, sessions, rec=UNTRACED) -> PassResult:
        raise NotImplementedError

    def probes(self, rec, traced: PassResult) -> dict[str, float]:
        raise NotImplementedError

    # -- probes shared by several workloads ---------------------------------

    def probe_stream(self, rec, filters) -> dict[str, float]:
        """Drain the raw streaming API (no engine) once per filter;
        ``None`` stands for the unfiltered firehose."""
        seconds = 0.0
        totals = dict(scanned=0, matched=0, delivered=0)
        for track in filters:
            api = self.session().api
            connection = api.filter(track=track) if track else api.unfiltered()
            _, took = timed(
                rec, "twitter.stream.drain", lambda: sum(1 for _ in connection)
            )
            seconds += took
            for key in totals:
                totals[key] += getattr(connection.stats, key)
        self.stream_drain_s = seconds
        out = {f"twitter.stream.{k}": float(v) for k, v in totals.items()}
        out["twitter.stream.us_per_scanned"] = (
            seconds * 1e6 / totals["scanned"]
        )
        return out

    def probe_front_end(self, rec, statements) -> dict[str, float]:
        """Parse, analyze and plan each statement without running it."""
        session = self.session()
        parse_s = analyze_s = plan_s = 0.0
        sampled = 0
        for sql in statements:
            parse_s += timed(rec, "sql.parse", parse, sql)[1]
            analyze_s += timed(rec, "sql.analyze", session.analyze, sql)[1]
            plan, took = timed(rec, "engine.plan", session.plan, sql)
            plan_s += took
            if plan.filter_choice is not None:
                sampled += plan.filter_choice.sample_size
        n = len(statements)
        return {
            "sql.parse_us": parse_s * 1e6 / n,
            "sql.analyze_us": analyze_s * 1e6 / n,
            "engine.plan_ms": plan_s * 1e3 / n,
            "engine.selectivity.sampled": float(sampled),
        }

    def probe_nlp(self, rec, tweets) -> dict[str, float]:
        texts = [t.text for t in tweets[:PROBE_TWEETS]]
        extractor = KeywordExtractor()
        n = len(texts)
        return {
            "nlp.tokenize_us": timed(
                rec, "nlp.tokenize", lambda: [tokenize(t) for t in texts]
            )[1] * 1e6 / n,
            "nlp.keywords.observe_us": timed(
                rec, "nlp.keywords.observe", extractor.observe_all, texts
            )[1] * 1e6 / n,
            "nlp.similarity.rank_ms": timed(
                rec, "nlp.similarity.rank",
                lambda: rank_by_similarity(
                    texts, self.scenario.keywords, str, extractor, limit=10
                ),
            )[1] * 1e3,
        }


# ---------------------------------------------------------------------------
# TwitInfo helpers: monitor() and its traced twin
# ---------------------------------------------------------------------------


def monitor(app, event, truth0, start):
    """Drain ``app.monitor``; returns (first snapshot, first peak over
    ``truth0``) in seconds since ``start``."""
    first_output = first_peak = None
    for snapshot in app.monitor(event, snapshot_every=SNAPSHOT_EVERY):
        at = now() - start
        if first_output is None:
            first_output = at
        if first_peak is None and any(
            reference.overlaps(p, truth0) for p in snapshot.new_peaks
        ):
            first_peak = at
    return first_output, first_peak


def monitor_traced(rec, session, event, truth0, start):
    """``TwitInfoApp.monitor``'s loop through each layer's entry points.

    Same steps, same order: ``session.query`` → per row ``classify`` and
    ``ingest`` → ``feed_closed_bins`` every ``SNAPSHOT_EVERY`` rows →
    ``finish_live``. Per-row calls are accumulated into one busy span per
    layer; ``engine.pull`` is the time inside ``next()`` on the handle
    (the engine's scan plus the streaming API under it).
    """
    classify = session.classifier.classify
    with rec.span("engine.query"):
        handle = session.query(event.definition.to_tweeql())
    rows = iter(handle)
    pull_ns = classify_ns = ingest_ns = seen = 0
    first_output = first_peak = None

    def note(peaks):
        nonlocal first_output, first_peak
        at = now() - start
        if first_output is None:
            first_output = at
        if first_peak is None and any(
            reference.overlaps(p, truth0) for p in peaks
        ):
            first_peak = at

    while True:
        t0 = perf_counter_ns()
        row = next(rows, None)
        t1 = perf_counter_ns()
        pull_ns += t1 - t0
        if row is None:
            break
        tweet = row["__tweet__"]
        label = classify(tweet.text)
        t2 = perf_counter_ns()
        classify_ns += t2 - t1
        event.ingest(tweet, label)
        ingest_ns += perf_counter_ns() - t2
        seen += 1
        if seen % SNAPSHOT_EVERY == 0:
            with rec.span("twitinfo.feed_closed_bins"):
                peaks = event.feed_closed_bins(tweet.created_at)
            note(peaks)
    rec.busy("engine.pull", pull_ns, seen)
    rec.busy("nlp.sentiment.classify", classify_ns, seen)
    rec.busy("twitinfo.ingest", ingest_ns, seen)
    handle.close()
    stats = [c.stats for c in handle.connections]
    if stats:
        event.coverage = CoverageEstimate.from_counts(
            observed=sum(s.delivered for s in stats),
            eligible=sum(s.matched for s in stats),
        )
    with rec.span("twitinfo.finish_live"):
        peaks = event.finish_live()
    note(peaks)
    return handle, first_output, first_peak, pull_ns / 1e9


def probe_render_html(rec, app, event) -> dict[str, float]:
    board = app.dashboard(event)
    _, took = timed(rec, "twitinfo.render_html", board.render_html)
    return {"twitinfo.render_html_ms": took * 1e3}


# ---------------------------------------------------------------------------
# dashboard_live
# ---------------------------------------------------------------------------


class DashboardLive(Workload):
    """One TwitInfo event over election night, monitored live to the end
    of the stream, then the Figure-1 dashboard as JSON."""

    name = "dashboard_live"
    ops_per_pass = 2

    def generate(self, population):
        return election_night_scenario(seed=self.seed, population=population)

    def prepare(self) -> None:
        self.matches = self.keyword_count(self.scenario.keywords)
        self.input_tweets_per_pass = len(self.tweets)

    def sessions(self):
        return [self.session()]

    def run(self, sessions, rec=UNTRACED) -> PassResult:
        (session,) = sessions
        app = TwitInfoApp(session)
        truth = self.scenario.truth.events
        handle, pull_s = None, 0.0
        with rec.span(PASS):
            start = now()
            event = app.create_event(self.name, self.scenario.keywords)
            if rec is UNTRACED:
                first_output, first_peak = monitor(app, event, truth[0], start)
            else:
                handle, first_output, first_peak, pull_s = monitor_traced(
                    rec, session, event, truth[0], start
                )
            with rec.span("twitinfo.dashboard"):
                board = app.dashboard(event)
            with rec.span("twitinfo.render_json"):
                payload = board.to_json()
            answered = now()
            with rec.span("storage.close"):
                session.close()
            end = now()
        self.last = (app, event, handle, pull_s)
        misses = reference.check_dashboard(
            self.name, event, self.matches, truth
        )
        if first_peak is None:
            misses.append("no live peak over the first ground-truth event")
        return PassResult(
            wall_s=end - start,
            answer_s=answered - start,
            misses=misses,
            digest=digest(payload),
            observed={
                "time_to_first_snapshot_ms": first_output * 1e3,
                "time_to_dashboard_s": answered - start,
                "time_to_first_peak_s": first_peak or 0.0,
                "teardown_s": end - answered,
                "twitinfo.peaks": float(len(event.peaks)),
                "twitinfo.peak_recall": reference.covered_events(
                    event.peaks, truth
                ) / len(truth),
            },
        )

    def probes(self, rec, traced: PassResult) -> dict[str, float]:
        app, event, handle, pull_s = self.last
        out = self.probe_stream(rec, [self.scenario.keywords])
        out |= self.probe_front_end(rec, [event.definition.to_tweeql()])
        out |= self.probe_nlp(rec, list(event.log.scan()))
        out |= probe_render_html(rec, app, event)
        # Batch detection over the finished timeline (the pass ran the
        # live detector); last, because it replaces the event's peaks.
        timed(rec, "twitinfo.detect_peaks", event.detect_peaks)
        out |= engine_counters([handle])
        out["engine.pull_us_per_row"] = (
            (pull_s - self.stream_drain_s) * 1e6
            / out["engine.rows_scanned"]
        )
        return out


def engine_counters(handles) -> dict[str, float]:
    totals = dict(
        rows_scanned=0, rows_emitted=0, batches=0, predicate_evaluations=0
    )
    for handle in handles:
        for key in totals:
            totals[key] += getattr(handle.stats, key)
    return {f"engine.{k}": float(v) for k, v in totals.items()}


# ---------------------------------------------------------------------------
# query_cpu / query_services
# ---------------------------------------------------------------------------


class QueryWorkload(Workload):
    """A pass runs each statement to exhaustion on its own fresh session."""

    #: (name, sql, EngineConfig overrides)
    statements: list[tuple[str, str, dict]] = []

    @property
    def ops_per_pass(self) -> int:
        return 2 * len(self.statements)

    def sessions(self):
        return [self.session(**config) for _, _, config in self.statements]

    def run(self, sessions, rec=UNTRACED) -> PassResult:
        done = []
        first_ms, answer_s, wall = [], [], 0.0
        with rec.span(PASS):
            for (name, sql, _), session in zip(self.statements, sessions):
                start = now()
                with rec.span("engine.query"):
                    handle = session.query(sql)
                with rec.span("engine.first_row"):
                    rows = iter(handle)
                    out = [next(rows)]
                first = now()
                with rec.span("engine.pull"):
                    out.extend(rows)
                drained = now()
                with rec.span("engine.close"):
                    handle.close()
                    session.close()
                wall += now() - start
                first_ms.append((first - start) * 1e3)
                answer_s.append(drained - start)
                done.append((name, session, handle, out))
        self.handles = [handle for _, _, handle, _ in done]
        misses, digests = [], []
        observed = {"time_to_first_row_ms": mean(first_ms)}
        for (name, session, handle, out), took in zip(done, answer_s):
            misses += self.check(name, handle, out)
            digests.append(rows_digest(handle, out))
            observed[f"engine.stmt.{name}.us_per_row"] = (
                took * 1e6 / handle.stats.rows_scanned
            )
            self.observe(name, session, handle, observed)
        return PassResult(
            wall_s=wall,
            answer_s=mean(answer_s),
            misses=misses,
            digest=digest([digests, self.exact(observed)]),
            observed=observed,
        )

    def check(self, name, handle, rows) -> list[str]:
        raise NotImplementedError

    def observe(self, name, session, handle, observed) -> None:
        """Add this statement's counters to ``observed``."""

    def exact(self, observed) -> dict:
        """The observations that must repeat exactly pass to pass."""
        return {}

    def pull_us_per_row(self, traced: PassResult) -> dict[str, float]:
        """Engine cost per scanned row: the handles' iteration time less
        the same tweets drained from the raw streaming API."""
        counters = engine_counters(self.handles)
        counters["engine.pull_us_per_row"] = (
            (traced.answer_s * len(self.handles) - self.stream_drain_s) * 1e6
            / counters["engine.rows_scanned"]
        )
        return counters


def drain(session, sql) -> float:
    """Seconds to run ``sql`` to exhaustion on ``session``."""
    start = now()
    handle = session.query(sql)
    for _ in handle:
        pass
    handle.close()
    session.close()
    return now() - start


class QueryCpu(QueryWorkload):
    """Three CPU-bound statements over the whole soccer-match firehose."""

    name = "query_cpu"
    statements = [
        ("project_udf",
         "SELECT lower(text) AS t, length(text) AS n, hour(created_at) AS h "
         "FROM twitter WHERE length(text) > 10 AND followers >= 10;", {}),
        ("regex",
         "SELECT text, screen_name FROM twitter "
         "WHERE text matches 'g[oa]+l' AND lang = 'en';", {}),
        ("grouped_avg",
         "SELECT AVG(followers) AS f, COUNT(*) AS n, lang FROM twitter "
         "WHERE length(text) > 10 GROUP BY lang WINDOW 5 minutes;", {}),
    ]
    #: The ladder over an in-memory source: each rung adds one operator.
    ladder = [
        ("scan", None, "SELECT * FROM mem;"),
        ("filter", "scan", "SELECT * FROM mem WHERE length(text) > 10;"),
        ("project", "filter",
         "SELECT lower(text) AS t, length(text) AS n FROM mem "
         "WHERE length(text) > 10;"),
        ("aggregate", "filter",
         "SELECT AVG(followers) AS f, COUNT(*) AS n, lang FROM mem "
         "WHERE length(text) > 10 GROUP BY lang WINDOW 5 minutes;"),
    ]
    #: Four TwitInfo events over the match, for track_many vs 4 x track.
    events = {
        "soccer": ("soccer",),
        "football": ("football",),
        "manchester": ("manchester",),
        "liverpool": ("liverpool",),
    }

    def generate(self, population):
        return soccer_match_scenario(seed=self.seed, population=population)

    def prepare(self) -> None:
        self.expected = reference.cpu_reference(self.tweets)
        self.input_tweets_per_pass = len(self.statements) * len(self.tweets)

    def check(self, name, handle, rows) -> list[str]:
        checker = getattr(reference, f"check_{name}")
        misses = checker(rows, self.expected[name])
        if handle.stats.rows_scanned != len(self.tweets):
            misses.append(f"{name}: scanned {handle.stats.rows_scanned} "
                          f"of {len(self.tweets)} firehose tweets")
        return misses

    def probes(self, rec, traced: PassResult) -> dict[str, float]:
        sqls = [sql for _, sql, _ in self.statements]
        out = self.probe_stream(rec, [None] * len(sqls))
        out |= self.probe_front_end(rec, sqls)
        out |= self.pull_us_per_row(traced)
        out |= self.probe_ladder(rec)
        out |= self.probe_modes(rec, sqls[2])
        out |= self.probe_multitenant(rec)
        return out

    def probe_ladder(self, rec) -> dict[str, float]:
        rows = [tweet.to_row() for tweet in self.tweets]
        schema = tuple(k for k in rows[0] if not k.startswith("__"))
        walls: dict[str, float] = {}
        out = {}
        for rung, below, sql in self.ladder:
            session = TweeQL()
            session.register_source("mem", lambda: iter(rows), schema)
            _, walls[rung] = timed(
                rec, f"engine.ladder.{rung}", drain, session, sql
            )
            step = walls[rung] - (walls[below] if below else 0.0)
            out[f"engine.ladder.{rung}.us_per_row"] = step * 1e6 / len(rows)
        return out

    def probe_modes(self, rec, sql) -> dict[str, float]:
        """The grouped statement under each engine switch, against the
        default serial configuration. The rounds are interleaved and each
        configuration keeps its fastest, so that a slow spell of the host
        does not land on one side of a ratio."""
        configs = {
            "serial": {},
            "workers": {"workers": min(2, os.cpu_count() or 1)},
            "tracing": {"tracing": True},
            "sanitize": {"sanitize": True},
        }
        best = dict.fromkeys(configs, float("inf"))
        for _ in range(MODE_ROUNDS):
            for mode, config in configs.items():
                took = timed(
                    rec, f"engine.mode.{mode}",
                    drain, self.session(**config), sql,
                )[1]
                best[mode] = min(best[mode], took)
        return {
            "engine.parallel.workers2_tweets_per_s":
                len(self.tweets) / best["workers"],
            "engine.parallel.speedup_vs_serial":
                best["serial"] / best["workers"],
            "obs.tracing_overhead_ratio": best["tracing"] / best["serial"],
            "obs.sanitize_overhead_ratio": best["sanitize"] / best["serial"],
        }

    def probe_multitenant(self, rec) -> dict[str, float]:
        """Four events on one shared scan against four track() calls on
        one session; fastest of interleaved rounds, as in probe_modes."""
        shared_s = apart_s = float("inf")
        for _ in range(MODE_ROUNDS):
            shared = TwitInfoApp(self.session())
            shared_s = min(shared_s, timed(
                rec, "engine.multitenant.track_many",
                shared.track_many, self.events,
            )[1])
            apart = TwitInfoApp(self.session())
            apart_s = min(apart_s, timed(
                rec, "engine.multitenant.independent",
                lambda: [apart.track(n, k) for n, k in self.events.items()],
            )[1])
        return {
            "engine.multitenant.track_many4_s": shared_s,
            "engine.multitenant.vs_independent": apart_s / shared_s,
        }


class QueryServices(QueryWorkload):
    """The paper's three latency mechanisms as a traffic mix, behind
    API-eligible keyword filters on election night."""

    name = "query_services"
    statements = [
        ("cached",
         "SELECT sentiment(text) AS s, latitude(loc) AS la, "
         "longitude(loc) AS lo FROM twitter WHERE text CONTAINS 'election';",
         {"latency_mode": "cached"}),
        ("batched",
         "SELECT AVG(sentiment(text)) AS s, floor(latitude(loc)) AS lat, "
         "floor(longitude(loc)) AS long FROM twitter "
         "WHERE text CONTAINS 'ballot' GROUP BY lat, long WINDOW 1 hours;",
         {"latency_mode": "batched"}),
        ("async",
         "SELECT text, named_entities(text) AS e FROM twitter "
         "WHERE text CONTAINS 'precinct';",
         {"latency_mode": "async"}),
    ]
    keywords = {"cached": "election", "batched": "ballot", "async": "precinct"}
    #: Each statement with its service calls replaced by the bare column.
    bare = {
        "cached": "SELECT text, loc FROM twitter "
                  "WHERE text CONTAINS 'election';",
        "batched": "SELECT COUNT(text) AS s, lang FROM twitter "
                   "WHERE text CONTAINS 'ballot' GROUP BY lang "
                   "WINDOW 1 hours;",
        "async": "SELECT text FROM twitter WHERE text CONTAINS 'precinct';",
    }

    def generate(self, population):
        return election_night_scenario(seed=self.seed, population=population)

    def prepare(self) -> None:
        self.matches = {
            name: self.keyword_count((keyword,))
            for name, keyword in self.keywords.items()
        }
        self.input_tweets_per_pass = len(self.statements) * len(self.tweets)

    def check(self, name, handle, rows) -> list[str]:
        return reference.check_service_query(
            name, self.matches[name], rows, handle.stats,
            handle.connections, aggregate=(name == "batched"),
        )

    def observe(self, name, session, handle, observed) -> None:
        services = handle.service_stats.values()
        stall = sum(s["stall_seconds"] + s["prefetch_seconds"] for s in services)
        observed[f"engine.latency.stall_virtual_s.{name}"] = stall
        observed[f"engine.latency.requests.{name}"] = float(
            session.geocode_service.stats.requests
            + session.entities_service.stats.requests
        )
        for key in ("calls", "cache_hits"):
            observed[key] = observed.get(key, 0.0) + sum(
                s[key] for s in services
            )
        observed["virtual_stall_s"] = observed.get("virtual_stall_s", 0.0) + stall
        observed["engine.latency.cache_hit_rate"] = (
            observed["cache_hits"] / observed["calls"]
        )

    def exact(self, observed) -> dict:
        return {
            k: v for k, v in observed.items()
            if k.startswith("engine.latency.") or k == "virtual_stall_s"
        }

    def probes(self, rec, traced: PassResult) -> dict[str, float]:
        out = self.probe_stream(rec, [(k,) for k in self.keywords.values()])
        out |= self.probe_front_end(rec, [s for _, s, _ in self.statements])
        out |= self.pull_us_per_row(traced)
        out |= self.probe_blocking(rec)
        out |= self.probe_call_cost(rec, traced)
        out |= self.probe_geocode(rec)
        return out

    def probe_blocking(self, rec) -> dict[str, float]:
        """The cached statement with no latency mechanism at all: what the
        three modes are measured against."""
        session = self.session(latency_mode="blocking")
        handle = session.query(self.statements[0][1])
        with rec.span("engine.latency.blocking"):
            for _ in handle:
                pass
        handle.close()
        observed: dict[str, float] = {}
        self.observe("blocking", session, handle, observed)
        session.close()
        return {
            k: v for k, v in observed.items() if k.endswith(".blocking")
        }

    def probe_call_cost(self, rec, traced: PassResult) -> dict[str, float]:
        """Real time per service-backed UDF call: each statement against
        the same filter selecting bare columns."""
        bare_s = sum(
            timed(rec, "engine.latency.bare", drain,
                  self.session(**config), self.bare[name])[1]
            for name, _, config in self.statements
        )
        calls = traced.observed["calls"]
        return {
            "engine.latency.wall_us_per_call":
                (traced.answer_s * len(self.statements) - bare_s) * 1e6
                / calls,
        }

    def probe_geocode(self, rec) -> dict[str, float]:
        geocoder = Geocoder()
        places = [t.user.location for t in self.tweets[:PROBE_TWEETS]]
        _, took = timed(
            rec, "geo.geocode",
            lambda: [geocoder.try_geocode(p) for p in places],
        )
        return {"geo.geocode_us": took * 1e6 / len(places)}


# ---------------------------------------------------------------------------
# archive_backfill
# ---------------------------------------------------------------------------


class ArchiveBackfill(Workload):
    """Phase A archives a tracked event through the storage tap; phase B
    opens the same file with ``backfill=True`` and tracks it again, reading
    history from SQLite while the tap re-archives beside it."""

    name = "archive_backfill"
    ops_per_pass = 4

    def generate(self, population):
        # Sized by phase B's close(): re-archiving n stored tweets is
        # quadratic in n (about 1 s at these ~2.1k event tweets, 3-4 s at
        # intensity 0.3, past StorageWriter.stop's 30 s join at the full
        # match), and a 12 s run needs half a dozen passes for a steady
        # median.
        return soccer_match_scenario(
            seed=self.seed, population=population, intensity=0.15
        )

    def prepare(self) -> None:
        self.matches = self.keyword_count(self.scenario.keywords)
        # The firehose is offered twice: live in phase A, and again under
        # the backfill session in phase B.
        self.input_tweets_per_pass = 2 * len(self.tweets)

    def sessions(self):
        """Phase A's session on a fresh store. Phase B's is built inside
        the pass: it must open the file phase A closed."""
        self.store_dir = tempfile.mkdtemp(dir=self.scratch)
        self.store_path = os.path.join(self.store_dir, "archive.db")
        return [self.session(storage_path=self.store_path)]

    def close(self, rec, name, session):
        """``session.close()`` timed, then the writer's end state."""
        writer = session.storage_writer
        _, took = timed(rec, name, session.close)
        alive = any(
            t.name == "tweeql-storage-writer" for t in threading.enumerate()
        )
        return writer, alive, took

    def run(self, sessions, rec=UNTRACED) -> PassResult:
        (archive,) = sessions
        keywords = self.scenario.keywords
        truth = self.scenario.truth.events
        with rec.span(PASS):
            # Phase A: live track() with the tap, then close().
            start_a = now()
            with rec.span("twitinfo.track"):
                first = TwitInfoApp(archive).track(self.name, keywords)
            writer_a, alive_a, close_a = self.close(
                rec, "storage.close.archive", archive
            )
            end_a = now()
        with HistoricalStore(self.store_path) as store:
            stored = len(store)
        backfill = self.session(storage_path=self.store_path, backfill=True)
        app = TwitInfoApp(backfill)
        handle = None
        with rec.span(PASS):
            # Phase B: the same event on a backfill session, to the
            # dashboard, then close() with the tap live.
            start_b = now()
            event = app.create_event(self.name, keywords)
            if rec is UNTRACED:
                first_output, _ = monitor(app, event, truth[0], start_b)
            else:
                handle, first_output, _, _ = monitor_traced(
                    rec, backfill, event, truth[0], start_b
                )
            # The event is over, so the batch detector's view is the
            # authoritative one (and the one phase A's track() produced).
            with rec.span("twitinfo.detect_peaks"):
                event.detect_peaks()
            with rec.span("twitinfo.dashboard"):
                board = app.dashboard(event)
            with rec.span("twitinfo.render_json"):
                payload = board.to_json()
            answered = now()
            writer_b, alive_b, close_b = self.close(
                rec, "storage.close.backfill", backfill
            )
            end_b = now()
        self.last = (app, event, handle)
        db_bytes = os.path.getsize(self.store_path)
        with HistoricalStore(self.store_path) as store:
            stored_after = len(store)
        shutil.rmtree(self.store_dir)

        misses = reference.check_dashboard("phase A", first, self.matches, truth)
        misses += reference.check_dashboard("phase B", event, self.matches, truth)
        misses += reference.check_archive(
            stored, self.matches, writer_a, alive_a
        )
        misses += reference.check_archive(
            stored_after, self.matches, writer_b, alive_b
        )
        if reference.event_fingerprint(event) != reference.event_fingerprint(first):
            misses.append("phase B log / timeline / peaks differ from phase A")
        wall = (end_a - start_a) + (end_b - start_b)
        return PassResult(
            wall_s=wall,
            answer_s=answered - start_b,
            misses=misses,
            digest=digest([payload, writer_a.written, writer_b.written]),
            observed={
                "time_to_first_snapshot_ms": first_output * 1e3,
                "time_to_dashboard_s": answered - start_b,
                "archive_tweets_per_s": stored / (end_a - start_a),
                "teardown_s": close_a + close_b,
                "storage.close_ms.archive": close_a * 1e3,
                "storage.close_ms.backfill": close_b * 1e3,
                "storage.rearchived_tweets": float(writer_b.written),
                "storage.writer.dropped": float(
                    writer_a.dropped + writer_b.dropped
                ),
                "storage.db_bytes": float(db_bytes),
                "twitinfo.peaks": float(len(event.peaks)),
                "twitinfo.peak_recall": reference.covered_events(
                    event.peaks, truth
                ) / len(truth),
            },
        )

    def probes(self, rec, traced: PassResult) -> dict[str, float]:
        app, event, handle = self.last
        out = self.probe_stream(rec, [self.scenario.keywords])
        out |= self.probe_front_end(rec, [event.definition.to_tweeql()])
        out |= probe_render_html(rec, app, event)
        out |= engine_counters([handle])
        out |= self.probe_store(rec, list(event.log.scan()))
        return out

    def probe_store(self, rec, tweets) -> dict[str, float]:
        """The store's entry points on the event's own tweets: a fresh
        insert, the same tweets again (the re-archive path), reads, and
        the producer side of the tap on its own."""
        folder = tempfile.mkdtemp(dir=self.scratch)
        n = len(tweets)
        with HistoricalStore(os.path.join(folder, "probe.db")) as store:
            _, insert_s = timed(rec, "storage.insert", store.extend, tweets)
            _, again_s = timed(rec, "storage.reinsert", store.extend, tweets)
            _, scan_s = timed(
                rec, "storage.scan", lambda: sum(1 for _ in store.scan())
            )
            _, search_s = timed(
                rec, "storage.search_text",
                lambda: sum(1 for _ in store.search_text("goal")),
            )
        with HistoricalStore(os.path.join(folder, "tap.db")) as store:
            writer = StorageWriter(store, start=False)
            _, tap_s = timed(
                rec, "storage.writer.tap",
                lambda: [writer.write(t) for t in tweets],
            )
            writer.stop()
        shutil.rmtree(folder)
        return {
            "storage.insert_tweets_per_s": n / insert_s,
            "storage.reinsert_tweets_per_s": n / again_s,
            "storage.scan_tweets_per_s": n / scan_s,
            "storage.search_text_ms": search_s * 1e3,
            "storage.writer.tap_us_per_tweet": tap_s * 1e6 / n,
        }


WORKLOADS = {
    w.name: w for w in (DashboardLive, QueryCpu, QueryServices, ArchiveBackfill)
}
