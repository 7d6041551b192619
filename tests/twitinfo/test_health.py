"""Engine-health persistence and the hybrid tier's TwitInfo payoff.

Tracking an event on a storage-backed session leaves per-window metrics
snapshots in the historical store (served back on ``/health.json``), and
re-opening that store with ``backfill=True`` renders a populated
timeline — peaks included — before the first live tweet arrives.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro import EngineConfig, TweeQL
from repro.twitinfo import TwitInfoApp
from repro.twitinfo.server import TwitInfoServer


def _storage_session(soccer, path, **config_kwargs):
    return TweeQL.for_scenarios(
        soccer,
        config=EngineConfig(storage_path=path, **config_kwargs),
        delivery_ratio=1.0,
    )


@pytest.fixture(scope="module")
def tracked_app(soccer, tmp_path_factory):
    """An app that tracked one event on a storage-backed session."""
    path = str(tmp_path_factory.mktemp("health") / "store.db")
    session = _storage_session(soccer, path)
    app = TwitInfoApp(session)
    app.track("Soccer", ("tevez",), start=soccer.start, end=soccer.end)
    yield app, path
    session.close()


def fetch(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.read().decode("utf-8")


def test_tracking_persists_health_snapshots(tracked_app, soccer):
    app, _path = tracked_app
    series = app.session.store.metrics_series(label="Soccer")
    assert series
    names = {sample["name"] for sample in series}
    assert any(name.startswith("event.Soccer") for name in names)
    for sample in series:
        assert sample["window_start"] == soccer.start
        assert sample["window_end"] == soccer.end


def test_health_endpoint_serves_stored_series(tracked_app):
    app, _path = tracked_app
    with TwitInfoServer(app) as server:
        status, body = fetch(server.url + "/health.json")
        assert status == 200
        samples = json.loads(body)
        assert samples
        status, body = fetch(server.url + "/event/Soccer/health.json")
        assert status == 200
        event_samples = json.loads(body)
        assert event_samples
        assert {s["label"] for s in event_samples} == {"Soccer"}
        metric = event_samples[0]["name"]
        status, body = fetch(
            server.url + f"/event/Soccer/health.json?name={metric}"
        )
        assert {s["name"] for s in json.loads(body)} == {metric}


def test_unchanged_rearchives_show_on_metrics_and_health(tracked_app, soccer):
    """A backfill session replays the stored event through the tap; the
    writer skips the identical rows and says so, on ``/metrics`` and in
    the persisted health snapshot, instead of skipping silently."""
    first, path = tracked_app
    first.session.storage_writer.flush()  # its partial last chunk too
    session = _storage_session(soccer, path, backfill=True)
    try:
        stored = len(session.store)
        app = TwitInfoApp(session)
        app.track("Rerun", ("tevez",), start=soccer.start, end=soccer.end)
        session.storage_writer.flush()
        writer = session.storage_writer.metrics()
        assert writer["written"] == writer["unchanged"] == stored
        assert len(session.store) == stored
        with TwitInfoServer(app) as server:
            _status, body = fetch(server.url + "/metrics")
            assert f"storage_writer_unchanged {stored}" in body.replace(".", "_")
            _status, body = fetch(
                server.url
                + "/event/Rerun/health.json?name=storage.writer.unchanged"
            )
            assert json.loads(body)
    finally:
        session.close()


def test_health_endpoint_404s_without_store(soccer):
    app = TwitInfoApp(TweeQL.for_scenarios(soccer))
    with TwitInfoServer(app) as server:
        try:
            urllib.request.urlopen(server.url + "/health.json", timeout=10)
        except urllib.error.HTTPError as exc:
            assert exc.code == 404
            assert "historical store" in exc.read().decode("utf-8")
        else:  # pragma: no cover - failure path
            raise AssertionError("expected a 404 without a store")


def test_backfilled_event_renders_before_first_live_tweet(
    tracked_app, soccer
):
    """The paper's demo moment: an analyst shows up mid-event, and the
    dashboard timeline (with detected peaks) fills instantly from the
    archive instead of waiting for tweets to stream in."""
    _app, path = tracked_app
    session = _storage_session(soccer, path, backfill=True, batch_size=1)
    try:
        start = session.clock.now
        app = TwitInfoApp(session)
        tracked = app.create_event(
            "Replay", ("tevez",), start=soccer.start, end=soccer.end
        )
        snapshots = list(app.monitor(tracked, snapshot_every=100, limit=600))
        assert session.clock.now == start  # never waited on the stream
        assert tracked.timeline.total >= 600
        assert len(tracked.peaks) >= 1  # the first goal is already there
        assert snapshots[-1].final
    finally:
        session.close()
