"""Fanout chaos: slow tenants, failing tenants, detach, and reconnects.

The shared scan runs on the thread that pulls its handles, and a tenant's
residual body runs only when its own consumer pulls. The contract under
test: a misbehaving tenant costs its siblings nothing — a slow UDF is not
even called while a sibling drains, an error stays on the handle whose
body raised it — and whatever happens to it (error, detach, early LIMIT
exit), every *other* tenant's rows stay identical to an independent run.
"""

from __future__ import annotations

import math
import threading

import pytest

from repro import EngineConfig, TweeQL
from repro.engine.resilience import FaultPlan, StreamDrop
from repro.errors import SanitizerError
from repro.twitter.workloads import background_chatter

from tests.multitenant.conftest import SEED, clean, run_independent

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def tiny_chatter(population):
    """~250 tweets: small enough that every run here stays fast."""
    return background_chatter(
        seed=SEED, population=population, duration=120.0, rate=2.0
    )


def _session(scenario, config=None, udfs=()):
    session = TweeQL.for_scenarios(
        scenario, config=config, delivery_ratio=1.0, seed=SEED
    )
    for name, impl in udfs:
        session.register_udf(name, impl)
    return session


def test_slow_tenant_does_not_stall_siblings(tiny_chatter):
    """A slow tenant's UDF is not called at all while its sibling drains
    the stream; its routed rows wait in its inbox, one entry per frame,
    and are identical to an independent run once it is finally pulled."""
    calls = []

    def snail(_ctx, text):
        calls.append(text)
        return text

    config = EngineConfig(batch_size=16)
    session = _session(tiny_chatter, config=config, udfs=[("snail", snail)])
    group = session.shared()
    slow = group.query("SELECT snail(text) AS t FROM twitter;")
    fast = group.query("SELECT text FROM twitter;")
    try:
        fast_rows = clean(fast.all())
        assert calls == []
        slow_rows = clean(slow.all())
    finally:
        group.close()

    assert fast_rows == run_independent(
        tiny_chatter, "SELECT text FROM twitter;", config=config
    )
    assert len(calls) == len(slow_rows) == len(fast_rows)
    slow_session = _session(tiny_chatter, config=config, udfs=[("snail", snail)])
    expected_slow = clean(
        slow_session.query("SELECT snail(text) AS t FROM twitter;").all()
    )
    assert slow_rows == expected_slow

    tree = group.stats_dict()
    assert group.stats.detached == 0
    # The fast consumer pulled each frame as soon as it was routed; the
    # slow one pulled nothing until the stream had ended, so its inbox
    # held every frame at once.
    delivered = tree["connection"]["delivered"]
    assert tree["tenant"]["1"]["buffer_highwater"] == 1
    assert tree["tenant"]["0"]["buffer_highwater"] == math.ceil(delivered / 16)
    assert tree["tenant"]["0"]["buffer_depth"] == 0


def test_failing_tenant_fails_only_its_own_handle(tiny_chatter):
    """A tenant UDF that raises fails that tenant's handle with the
    original exception type; the sibling's rows equal an independent run,
    the shared connection is released, and no thread is left behind."""

    class Boom(RuntimeError):
        pass

    def explode(_ctx, text):
        raise Boom(text)

    threads_before = threading.active_count()
    session = _session(tiny_chatter, udfs=[("explode", explode)])
    group = session.shared()
    broken = group.query("SELECT explode(text) AS t FROM twitter;")
    healthy = group.query("SELECT text FROM twitter;")
    try:
        with pytest.raises(Boom):
            broken.all()
        healthy_rows = clean(healthy.all())
    finally:
        group.close()

    assert healthy_rows == run_independent(
        tiny_chatter, "SELECT text FROM twitter;"
    )
    assert session.api.open_connections == 0
    assert threading.active_count() == threads_before
    tree = group.stats_dict()
    assert tree["tenant"]["0"]["done"] is True
    assert tree["tenant"]["1"]["rows_routed"] == len(healthy_rows)
    assert group.stats.detached == 0


def test_early_limits_stop_the_shared_scan(tiny_chatter):
    """When every tenant finishes (LIMIT), the fanout stops pulling: the
    connection's scanned count stays well short of the full firehose."""
    config = EngineConfig(batch_size=1)
    session = _session(tiny_chatter, config=config)
    group = session.shared()
    h1 = group.query("SELECT text FROM twitter LIMIT 5;")
    h2 = group.query("SELECT screen_name FROM twitter LIMIT 5;")
    try:
        rows1 = clean(h1.all())
        rows2 = clean(h2.all())
    finally:
        group.close()
    assert rows1 == run_independent(
        tiny_chatter, "SELECT text FROM twitter LIMIT 5;", config=config
    )
    assert len(rows2) == 5
    tree = group.stats_dict()
    assert tree["connection"]["scanned"] < len(tiny_chatter)
    # Natural completion is not a detach.
    assert group.stats.detached == 0


def test_closed_handle_detaches_without_touching_siblings(tiny_chatter):
    """Closing a handle before pulling = a dead consumer: its feed is
    dropped (detached), the sibling drains the whole stream unchanged."""
    session = _session(tiny_chatter)
    group = session.shared()
    abandoned = group.query("SELECT text FROM twitter;")
    survivor = group.query("SELECT screen_name, followers FROM twitter;")
    abandoned.close()
    try:
        rows = clean(survivor.all())
    finally:
        group.close()
    assert rows == run_independent(
        tiny_chatter, "SELECT screen_name, followers FROM twitter;"
    )
    assert group.stats.detached == 1
    tree = group.stats_dict()
    assert tree["tenant"]["0"]["detached"] is True
    assert tree["tenant"]["0"]["rows_routed"] == 0
    assert tree["tenant"]["1"]["detached"] is False
    # Closing the group again is a no-op; closing the survivor's handle
    # after completion does not count as a detach either.
    survivor.close()
    group.close()
    assert group.stats.detached == 1


def test_stream_drops_reconnect_and_rows_still_match(tiny_chatter):
    """A mid-stream disconnect with auto-reconnect: the shared connection
    reconnects and the surviving rows equal an independent run under the
    same fault plan (unfiltered queries, so both sides ride an identical
    firehose connection)."""
    plan = FaultPlan(
        seed=7, stream_drops=(StreamDrop(after_delivered=60, gap=10),)
    )
    config = EngineConfig(fault_plan=plan)
    sqls = [
        "SELECT text FROM twitter;",
        "SELECT length(text) AS n FROM twitter;",
    ]
    session = _session(tiny_chatter, config=config)
    group = session.shared()
    handles = [group.query(sql) for sql in sqls]
    try:
        shared_rows = [clean(h.all()) for h in handles]
    finally:
        group.close()
    for sql, rows in zip(sqls, shared_rows):
        assert rows == run_independent(tiny_chatter, sql, config=config), sql
    tree = group.stats_dict()
    assert tree["connection"]["reconnects"] >= 1
    assert tree["connection"]["gap_tweets"] >= 0


def test_pumping_one_group_from_two_threads_is_tql911(tiny_chatter):
    """One group's handles belong to one thread. Under the sanitizer, a
    second thread that drives the shared scan trips the fanout scan's
    ownership check."""
    config = EngineConfig(batch_size=16, sanitize=True)
    session = _session(tiny_chatter, config=config)
    group = session.shared()
    first = group.query("SELECT text FROM twitter;")
    second = group.query("SELECT screen_name FROM twitter;")
    caught: list[BaseException] = []

    def drain_second():
        try:
            second.all()  # drains its inbox, then pumps the scan
        except BaseException as error:  # noqa: BLE001 — assertion target
            caught.append(error)

    try:
        assert len(first.fetch(1)) == 1  # binds the scan to this thread
        thread = threading.Thread(target=drain_second)
        thread.start()
        thread.join()
    finally:
        group.close()
    assert len(caught) == 1 and isinstance(caught[0], SanitizerError)
    assert caught[0].code == "TQL911"
    assert "Scan(twitter)" in str(caught[0])
