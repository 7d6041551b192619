"""Batched ingest ≡ the per-tweet fold.

TwitInfo's drains (``monitor``, ``run_event``, ``track_many`` and
``load_event``) take the event query's tweets a batch at a time and derive
each distinct text once. The reference here is the per-tweet fold through
the public API: drain the same query row by row and call
``ingest(tweet, classifier.classify(tweet.text))`` for each tweet, feeding
closed bins at the same tweet counts. Every snapshot, dashboard, drill-down,
token and label, and the keyword model's document frequencies must match.
"""

from __future__ import annotations

from itertools import chain

import pytest

from repro import TweeQL
from repro.fidelity.coverage import CoverageEstimate
from repro.twitinfo import TwitInfoApp
from repro.twitinfo.app import TrackedEvent
from repro.twitter.users import UserPopulation
from repro.twitter.workloads import (
    election_night_scenario,
    soccer_match_scenario,
)

SCENARIOS = {
    "soccer": lambda seed, population: soccer_match_scenario(
        seed=seed, population=population, intensity=0.2
    ),
    "election": lambda seed, population: election_night_scenario(
        seed=seed, population=population, intensity=0.06
    ),
}


@pytest.fixture(
    scope="module",
    params=[(name, seed) for name in SCENARIOS for seed in (2011, 42)],
    ids=lambda param: f"{param[0]}-{param[1]}",
)
def scenario(request):
    name, seed = request.param
    population = UserPopulation(size=300, seed=seed)
    return SCENARIOS[name](seed, population), seed


def fresh_app(scenario):
    sc, seed = scenario
    return TwitInfoApp(TweeQL.for_scenarios(sc, seed=seed))


def coverage_of(connections):
    stats = [c.stats for c in connections]
    if not stats:
        return None
    return CoverageEstimate.from_counts(
        observed=sum(s.delivered for s in stats),
        eligible=sum(s.matched for s in stats),
    )


def fold(app, event, handle, every=None, limit=None):
    """The per-tweet reference drain of ``handle`` into ``event``; returns
    the snapshots ``monitor`` would have yielded along the way."""
    classify = app.session.classifier.classify
    snapshots = []
    seen = 0
    for row in handle:
        tweet = row["__tweet__"]
        event.ingest(tweet, classify(tweet.text))
        seen += 1
        if every is not None and seen % every == 0:
            peaks = event.feed_closed_bins(tweet.created_at)
            snapshots.append(
                (tweet.created_at, seen, terms_of(peaks), len(event.peaks))
            )
        if limit is not None and seen >= limit:
            break
    handle.close()
    return snapshots


def terms_of(peaks):
    return [(peak.label, peak.terms) for peak in peaks]


def state(app, event):
    """Everything a reader of the event can see."""
    terms = set(chain.from_iterable(event.tokens.values()))
    extractor = event.labeler.extractor
    return {
        "board": app.dashboard(event).to_json(),
        "drills": [
            app.dashboard(event, peak.label).to_json() for peak in event.peaks
        ],
        "report": event.report().as_dict(),
        "tokens": event.tokens,
        "sentiments": event.sentiments,
        "documents": extractor.documents,
        "idf": {term: extractor.idf(term) for term in terms},
    }


def assert_same(got, want):
    assert got["tokens"] == want["tokens"]
    assert got["sentiments"] == want["sentiments"]
    assert got["documents"] == want["documents"]
    assert got["idf"] == want["idf"]
    assert got["report"] == want["report"]
    assert got["board"] == want["board"]
    assert got["drills"] == want["drills"]


@pytest.mark.parametrize("limit", [None, 1234])
@pytest.mark.parametrize("every", [1, 7, 256, 500, 10**6])
def test_monitor_equals_the_per_tweet_fold(scenario, every, limit):
    app = fresh_app(scenario)
    event = app.create_event("event", scenario[0].keywords)
    snapshots = [
        (s.stream_time, s.tweets_seen, terms_of(s.new_peaks), s.total_peaks)
        for s in app.monitor(event, snapshot_every=every, limit=limit)
    ]

    ref_app = fresh_app(scenario)
    ref = ref_app.create_event("event", scenario[0].keywords)
    handle = ref_app.session.query(ref.definition.to_tweeql())
    expected = fold(ref_app, ref, handle, every=every, limit=limit)
    ref.coverage = coverage_of(handle.connections)
    final = ref.finish_live()
    expected.append(
        (ref_app.session.clock.now, len(ref.log), terms_of(final), len(ref.peaks))
    )

    # The stream outruns the limit, so the limit cuts a batch.
    assert len(event.log) == 1234 if limit else len(event.log) > 1234
    assert snapshots == expected
    assert_same(state(app, event), state(ref_app, ref))


def test_run_event_equals_the_per_tweet_fold(scenario):
    app = fresh_app(scenario)
    event = app.track("event", scenario[0].keywords)

    ref_app = fresh_app(scenario)
    ref = ref_app.create_event("event", scenario[0].keywords)
    handle = ref_app.session.query(ref.definition.to_tweeql())
    fold(ref_app, ref, handle)
    ref.coverage = coverage_of(handle.connections)
    ref.detect_peaks()

    assert event.peaks
    assert_same(state(app, event), state(ref_app, ref))


def test_track_many_equals_the_per_tweet_fold(scenario):
    sc = scenario[0]
    events = {"event": sc.keywords, "narrow": sc.keywords[:1]}
    app = fresh_app(scenario)
    tracked = app.track_many(events)

    ref_app = fresh_app(scenario)
    group = ref_app.session.shared()
    refs = [ref_app.create_event(name, kw) for name, kw in events.items()]
    handles = [group.query(ref.definition.to_tweeql()) for ref in refs]
    for ref, handle in zip(refs, handles):
        fold(ref_app, ref, handle)
    group.close()
    for ref in refs:
        ref.coverage = coverage_of(group.connections)
        ref.detect_peaks()

    for event, ref in zip(tracked, refs):
        assert len(event.log) > 0
        assert_same(state(app, event), state(ref_app, ref))


def test_load_event_equals_the_per_tweet_fold(scenario, tmp_path):
    from repro.storage.tweetlog import SqliteTweetLog

    app = fresh_app(scenario)
    saved = app.track("event", scenario[0].keywords)
    path = str(tmp_path / "event.db")
    app.save_event(saved, path)
    loaded = app.load_event(path)

    ref = TrackedEvent(saved.definition)
    classify = app.session.classifier.classify
    with SqliteTweetLog(path) as db:
        for tweet in db.scan():
            ref.ingest(tweet, classify(tweet.text))
    ref.detect_peaks()

    assert loaded.peaks
    assert_same(state(app, loaded), state(app, ref))


def test_monitor_rejects_a_snapshot_interval_below_one(scenario):
    app = fresh_app(scenario)
    event = app.create_event("event", scenario[0].keywords)
    with pytest.raises(ValueError, match="snapshot_every"):
        next(app.monitor(event, snapshot_every=0))
