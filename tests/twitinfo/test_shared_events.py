"""TwitInfo on a shared scan: N tracked events, one stream connection.

``track_many`` admits every event's keyword query onto one
:class:`SharedScanGroup`. The dashboard contract: timelines, peaks, and
reports per event are identical to tracking each event alone on its own
(lossless) session — interleaved routing of two different events' tweets
through one scan must not leak rows across events or perturb either
detector.
"""

from __future__ import annotations

import pytest

from repro import EngineConfig, TweeQL
from repro.obs import app_metrics
from repro.twitinfo import TwitInfoApp

SEED = 11


@pytest.fixture(scope="module")
def runs(soccer, quakes):
    """Track both events shared and independently over one merged firehose."""

    def fresh_session(config=None):
        return TweeQL.for_scenarios(
            soccer, quakes, config=config, delivery_ratio=1.0, seed=SEED
        )

    events = {
        "match": dict(
            keywords=soccer.keywords, start=soccer.start, end=soccer.end
        ),
        "quake": dict(
            keywords=quakes.keywords, start=quakes.start, end=quakes.end
        ),
    }

    shared_app = TwitInfoApp(fresh_session())
    shared_tracked = {}
    tracked_list = shared_app.track_many(
        {name: spec["keywords"] for name, spec in events.items()}
    )
    for name, tracked in zip(events, tracked_list):
        shared_tracked[name] = tracked

    independent = {}
    for name, spec in events.items():
        app = TwitInfoApp(fresh_session())
        independent[name] = app.track(name, **spec)

    return shared_app, shared_tracked, independent


def test_shared_events_log_identical_tweets(runs):
    _app, shared, independent = runs
    for name in shared:
        shared_ids = [t.tweet_id for t in shared[name].log.scan()]
        solo_ids = [t.tweet_id for t in independent[name].log.scan()]
        assert shared_ids == solo_ids, name
        assert shared_ids, name


def test_timelines_bin_for_bin_identical(runs):
    """Interleaved fanout routing must produce the same binned counts."""
    _app, shared, independent = runs
    for name in shared:
        assert dict(shared[name].timeline._counts) == dict(
            independent[name].timeline._counts
        ), name
    # The two events really are distinct substreams, not copies.
    assert dict(shared["match"].timeline._counts) != dict(
        shared["quake"].timeline._counts
    )


def test_peaks_are_detected_independently_per_event(runs):
    """Each event's PeakDetector sees only its own substream: peak labels,
    windows, and key terms match the independent run exactly."""
    _app, shared, independent = runs
    for name in shared:
        shared_peaks = [
            (p.label, p.start, p.end, p.terms) for p in shared[name].peaks
        ]
        solo_peaks = [
            (p.label, p.start, p.end, p.terms) for p in independent[name].peaks
        ]
        assert shared_peaks == solo_peaks, name
        assert shared_peaks, name


def test_reports_match_independent_runs(runs):
    _app, shared, independent = runs
    for name in shared:
        assert shared[name].report().as_dict() == (
            independent[name].report().as_dict()
        ), name


def test_shared_group_used_one_connection(runs):
    app, _shared, _independent = runs
    assert len(app.shared_groups) == 1
    group = app.shared_groups[0]
    assert group.stats.admitted == 2
    tree = group.stats_dict()
    assert tree["connection"]["delivered"] == tree["connection"]["scanned"]
    snapshot = app_metrics(app).snapshot()
    assert snapshot["shared"]["0"]["group"]["admitted"] == 2
    assert snapshot["shared"]["0"]["connection"]["reconnects"] == 0


def test_shared_scan_config_routes_single_track(soccer):
    """``EngineConfig(shared_scan=True)`` sends plain ``track()`` through
    a one-tenant shared group, with identical panels to the default path."""
    def run(config=None):
        session = TweeQL.for_scenarios(
            soccer, config=config, delivery_ratio=1.0, seed=SEED
        )
        app = TwitInfoApp(session)
        tracked = app.track(
            "match", soccer.keywords, start=soccer.start, end=soccer.end
        )
        return app, tracked

    shared_app, shared_tracked = run(EngineConfig(shared_scan=True))
    default_app, default_tracked = run()
    assert len(shared_app.shared_groups) == 1
    assert not default_app.shared_groups
    assert dict(shared_tracked.timeline._counts) == dict(
        default_tracked.timeline._counts
    )
    assert [p.label for p in shared_tracked.peaks] == [
        p.label for p in default_tracked.peaks
    ]
    assert shared_tracked.report().as_dict() == default_tracked.report().as_dict()
