"""TQLSAN runtime sanitizer: off-mode is zero-cost, on-mode catches bugs.

Two halves. The positive half mirrors the tracing contract: with
``sanitize=False`` the planner installs zero SanitizeOperator wrappers
(structural assert, same technique as ``bench_observability``), and with
it on, a full query sweep across worker counts is row-for-row
identical to the unsanitized run. The negative half feeds each check a
deliberately-broken operator and asserts the right ``TQL9xx`` fires —
every invariant is demonstrated to actually trip, not just documented.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import pytest

from repro import EngineConfig, TweeQL
from repro.clock import VirtualClock
from repro.engine.sanitizer import (
    SanitizeOperator,
    Sanitizer,
    lock_tracking,
    registered_lock,
)
from repro.engine.types import MISSING, ColumnBatch, QueryStats
from repro.errors import SanitizerError
from repro.twitter.models import Tweet, User

SCHEMA = ("tweet_id", "text", "created_at", "lang", "followers")

ROWS = [
    {
        "tweet_id": 100 + i,
        "created_at": 1_307_000_000.0 + 13.0 * i,
        "text": ("goal! " if i % 3 else "quiet ") + f"tweet {i}",
        "lang": ("en", "es")[i % 2],
        "followers": (29 * i) % 1500,
    }
    for i in range(120)
]


def make_session(sanitize: bool, workers: int = 1):
    config = EngineConfig(sanitize=sanitize, workers=workers)
    session = TweeQL(config=config)
    session.register_source(
        "s", lambda: iter([dict(r) for r in ROWS]), SCHEMA
    )
    return session


def wrapper_count(pipeline) -> int:
    count = 0
    node = pipeline
    while node is not None:
        if isinstance(node, SanitizeOperator):
            count += 1
        node = getattr(node, "_child", None) or getattr(node, "_source", None)
    return count


def fresh_sanitizer() -> Sanitizer:
    return Sanitizer(VirtualClock())


def expect(code: str, operator) -> SanitizerError:
    with pytest.raises(SanitizerError) as excinfo:
        for _batch in operator:
            pass
    assert excinfo.value.code == code
    return excinfo.value


# ---------------------------------------------------------------------------
# Off-mode: structurally identical to a build without the feature
# ---------------------------------------------------------------------------


def test_sanitize_off_adds_no_wrappers():
    plan = make_session(sanitize=False).plan("SELECT text FROM s;")
    assert plan.sanitizer is None
    assert wrapper_count(plan.pipeline) == 0


def test_sanitize_on_wraps_every_stage_and_forces_tracer():
    plan = make_session(sanitize=True).plan(
        "SELECT text FROM s WHERE followers > 10;"
    )
    assert plan.sanitizer is not None
    # SanitizerError spans and the close-time reconcile() need a tracer
    # even when EngineConfig.tracing stayed off.
    assert plan.tracer is not None
    assert wrapper_count(plan.pipeline) >= 2  # at least Scan + Project


def test_env_var_enables_sanitizer(monkeypatch):
    monkeypatch.setenv("TWEEQL_SAN", "1")
    plan = make_session(sanitize=False).plan("SELECT text FROM s;")
    assert plan.sanitizer is not None
    assert wrapper_count(plan.pipeline) >= 2


def test_env_var_zero_means_off(monkeypatch):
    monkeypatch.setenv("TWEEQL_SAN", "0")
    plan = make_session(sanitize=False).plan("SELECT text FROM s;")
    assert plan.sanitizer is None


# ---------------------------------------------------------------------------
# End-to-end: sanitized results identical, zero violations on clean plans
# ---------------------------------------------------------------------------

SWEEP_SQLS = [
    "SELECT text FROM s WHERE text CONTAINS 'goal';",
    "SELECT lower(text) AS t, length(text) AS n FROM s WHERE followers > 40;",
    "SELECT COUNT(*) AS n, lang FROM s GROUP BY lang WINDOW 120 seconds;",
    "SELECT text FROM s WHERE followers > 10 LIMIT 7;",
]


@pytest.mark.parametrize("workers", [1, 4])
def test_sanitized_run_matches_unsanitized(workers):
    for sql in SWEEP_SQLS:
        baseline = make_session(sanitize=False, workers=workers)
        expected = baseline.query(sql).all()
        sanitized = make_session(sanitize=True, workers=workers)
        handle = sanitized.query(sql)
        assert handle.all() == expected, sql
        handle.close()  # runs the mandatory at_close checks


# ---------------------------------------------------------------------------
# Negative tests: every check fires on a deliberately-broken producer
# ---------------------------------------------------------------------------


def sanitize(child, stats=None) -> SanitizeOperator:
    return SanitizeOperator(
        child, fresh_sanitizer(), name="Broken", lane="main", stats=stats
    )


def test_tql901_seq_regression_fires():
    def broken():
        yield ColumnBatch.from_rows([], seq=1)
        yield ColumnBatch.from_rows([], seq=0, last=True)

    error = expect("TQL901", sanitize(broken()))
    assert "seq regression" in str(error)
    assert error.operator == "Broken"


def test_tql901_equal_seq_fires():
    def broken():
        yield ColumnBatch.from_rows([], seq=3)
        yield ColumnBatch.from_rows([], seq=3, last=True)

    expect("TQL901", sanitize(broken()))


def test_tql902_batch_after_last_fires():
    def broken():
        yield ColumnBatch.from_rows([], seq=0, last=True)
        # double punctuation / late batch
        yield ColumnBatch.from_rows([], seq=1)

    error = expect("TQL902", sanitize(broken()))
    assert "after last=True" in str(error)


def test_tql902_missing_punctuation_fires():
    def broken():
        # the stream just stops, no last=True
        yield ColumnBatch.from_rows([], seq=0)

    expect("TQL902", sanitize(broken()))


def test_tql903_column_length_mismatch_fires():
    def broken():
        yield ColumnBatch({"a": [1, 2, 3]}, 2, seq=0, last=True)

    expect("TQL903", sanitize(broken()))


def test_tql903_stale_negative_cache_fires():
    def broken():
        batch = ColumnBatch({"a": [1, 2]}, 2, seq=0, last=True)
        batch._absent = {"a"}  # claims 'a' absent; a real column exists
        yield batch

    error = expect("TQL903", sanitize(broken()))
    assert "negative-probe cache" in str(error)


def test_tql903_non_list_backing_rows_fires():
    def broken():
        yield ColumnBatch.from_rows(({"a": 1},), seq=0, last=True)

    error = expect("TQL903", sanitize(broken()))
    assert "must be a list" in str(error)


def _tweets(n=3):
    user = User(user_id=7, screen_name="ref", location="Leeds")
    return [
        Tweet(tweet_id=i, created_at=100.0 + i, user=user, text=f"goal {i}")
        for i in range(n)
    ]


def test_tweet_backed_batch_passes_clean():
    batch = ColumnBatch.from_tweets(_tweets(), seq=0, last=True)
    batch.values("text"), batch.rows  # a read column and built rows
    assert list(sanitize([batch])) == [batch]


def test_tql903_non_list_backing_tweets_fires():
    def broken():
        yield ColumnBatch.from_tweets(tuple(_tweets()), seq=0, last=True)

    error = expect("TQL903", sanitize(broken()))
    assert "backing tweets must be a list" in str(error)


def test_tql903_tweet_count_mismatch_fires():
    def broken():
        batch = ColumnBatch.from_tweets(_tweets(), seq=0, last=True)
        batch.length = 2  # declares fewer rows than it holds tweets
        yield batch

    error = expect("TQL903", sanitize(broken()))
    assert "3 backing tweets vs declared length 2" in str(error)


def test_tql903_backing_row_dict_instead_of_tweet_fires():
    def broken():
        tweets = _tweets()
        yield ColumnBatch.from_tweets(
            [tweets[0], tweets[1].to_row(), tweets[2]], seq=0, last=True
        )

    error = expect("TQL903", sanitize(broken()))
    assert "backing tweet 1 is a dict, not a Tweet" in str(error)


def test_tql904_missing_leak_through_tweet_rows_fires():
    """Row dicts a tweet-backed batch built are checked like any other."""
    def broken():
        tweets = _tweets()
        tweets[2] = replace(tweets[2], user=replace(tweets[2].user, lang=MISSING))
        batch = ColumnBatch.from_tweets(tweets, seq=0, last=True)
        batch.rows  # a row consumer asked
        yield batch

    error = expect("TQL904", sanitize(broken()))
    assert "row 2 field 'lang'" in str(error)


def test_tql904_missing_leak_fires():
    def broken():
        yield ColumnBatch.from_rows([{"a": MISSING}], seq=0, last=True)

    error = expect("TQL904", sanitize(broken()))
    assert "MISSING" in str(error)


def test_tql905_post_handoff_mutation_fires():
    sanitizer = fresh_sanitizer()
    rows = [{"a": 1}, {"a": 2}]
    sanitizer.handoff.seal(0, rows)
    rows[1]["a"] = 99  # the exchange mutating after enqueue
    with pytest.raises(SanitizerError) as excinfo:
        sanitizer.handoff.verify(0, rows)
    assert excinfo.value.code == "TQL905"


def test_tql905_clean_handoff_passes():
    sanitizer = fresh_sanitizer()
    for i in range(3):
        sanitizer.handoff.seal(1, [{"a": i}])
    for i in range(3):
        sanitizer.handoff.verify(1, [{"a": i}])


def test_tql906_stats_regression_fires():
    stats = QueryStats()

    def broken():
        stats.rows_scanned = 10
        yield ColumnBatch.from_rows([], seq=0)
        stats.rows_scanned = 5  # counter went backwards
        yield ColumnBatch.from_rows([], seq=1, last=True)

    expect("TQL906", sanitize(broken(), stats=stats))


def test_tql907_reconcile_mismatch_fires_at_close():
    from repro.obs.trace import Tracer

    with lock_tracking():
        sanitizer = fresh_sanitizer()
        tracer = Tracer(VirtualClock())
        tracer.probe("Scan(s)", "main").rows = 100
        tracer.probe("Output", "main").rows = 7
        stats = QueryStats()
        stats.rows_scanned = 100
        stats.rows_emitted = 9  # disagrees with the Output probe

        class FakeHandle:
            pass

        handle = FakeHandle()
        handle.tracer = tracer
        handle.stats = stats
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer.at_close(handle, exhausted=True)
        assert excinfo.value.code == "TQL907"
        # An abandoned (non-exhausted) query legitimately skips it.
        sanitizer.at_close(handle, exhausted=False)


def test_tql910_lock_order_cycle_detected():
    with lock_tracking() as registry:
        a = registered_lock("test.a")
        b = registered_lock("test.b")
        with a:
            with b:
                pass
        with b:
            with a:  # opposite order: potential deadlock
                pass
        report = registry.report()
        assert report and report[0][0] == "TQL910"
        assert "test.a" in report[0][1] and "test.b" in report[0][1]
        with pytest.raises(SanitizerError) as excinfo:
            registry.check()
        assert excinfo.value.code == "TQL910"


def test_lock_registry_consistent_order_is_clean():
    with lock_tracking() as registry:
        a = registered_lock("test.a")
        b = registered_lock("test.b")
        for _ in range(3):
            with a:
                with b:
                    pass
        assert registry.report() == []
        registry.check()  # no raise
        assert ("test.a", "test.b") in registry.edges()


def test_lock_registry_rlock_reentry_not_a_cycle():
    with lock_tracking() as registry:
        a = registered_lock("test.r", rlock=True)
        with a:
            with a:  # reentrant re-acquire must not self-edge
                pass
        assert registry.report() == []


def test_tql911_cross_thread_pull_fires():
    def source():
        for seq in range(5):
            yield ColumnBatch.from_rows([], seq=seq, last=seq == 4)

    operator = sanitize(source())
    iterator = iter(operator)
    next(iterator)  # binds the stage to this thread

    caught: list[BaseException] = []

    def pull_from_other_thread():
        try:
            next(iterator)
        except BaseException as error:  # noqa: BLE001 — assertion target
            caught.append(error)

    thread = threading.Thread(target=pull_from_other_thread)
    thread.start()
    thread.join()
    assert caught and isinstance(caught[0], SanitizerError)
    assert caught[0].code == "TQL911"


# ---------------------------------------------------------------------------
# Error plumbing
# ---------------------------------------------------------------------------


def test_violation_carries_span_and_diagnostic():
    from repro.obs.trace import Tracer

    with lock_tracking():
        sanitizer = fresh_sanitizer()
        tracer = Tracer(VirtualClock())
        error = sanitizer.violation(
            "TQL901", "seq went backwards", operator="Filter",
            lane="worker-1", tracer=tracer,
        )
        assert error.code == "TQL901"
        assert error.span is not None and error.span.kind == "sanitizer"
        assert error.span.attrs["code"] == "TQL901"
        assert error.diagnostic is not None
        assert error.diagnostic.as_dict()["code"] == "TQL901"
        # The violation also landed in the trace record itself.
        assert tracer.spans_of("sanitizer")


def test_clean_batches_pass_through_untouched():
    batches = [
        ColumnBatch.from_rows([{"a": 1}], seq=0),
        ColumnBatch.from_rows([{"a": 2}], seq=1),
        ColumnBatch.from_rows([], seq=2, last=True),
    ]
    out = list(sanitize(iter(batches)))
    assert out == batches
