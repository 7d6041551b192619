"""TQLSAN runtime sanitizer: off-mode is zero-cost, on-mode catches bugs.

Three parts. The positive part mirrors the tracing contract: with
``sanitize=False`` the planner installs zero SanitizeOperator wrappers
(structural assert, same technique as ``bench_observability``), and with
it on, a query sweep is row-for-row identical to the unsanitized run.
The negative part feeds each check a hand-built broken producer and
asserts the right ``TQL9xx`` fires. The seeded-bug part rewrites one line
of a real engine operator or counter into a plausible bug and shows that
a sanitized query fails with that check's code — each live check catches
a bug the engine could really have, not only one built to trip it.
"""

from __future__ import annotations

import __future__
import inspect
import textwrap
import threading
from dataclasses import replace

import pytest

from repro import EngineConfig, TweeQL
from repro.clock import VirtualClock
from repro.engine import expressions
from repro.engine.operators import (
    LimitOperator,
    ProjectOperator,
    ScanOperator,
    WindowedAggregateOperator,
)
from repro.engine.sanitizer import SanitizeOperator, Sanitizer
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


def make_session(sanitize: bool, rows=ROWS, **config):
    session = TweeQL(config=EngineConfig(sanitize=sanitize, **config))
    session.register_source(
        "s", lambda: iter([dict(r) for r in rows]), SCHEMA
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


def test_sanitize_off_adds_no_wrappers(monkeypatch):
    monkeypatch.delenv("TWEEQL_SAN", raising=False)
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


def test_sanitized_run_matches_unsanitized():
    for sql in SWEEP_SQLS:
        baseline = make_session(sanitize=False)
        expected = baseline.query(sql).all()
        sanitized = make_session(sanitize=True)
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


def test_tql902_batch_after_last_fires():
    def broken():
        yield ColumnBatch.from_rows([], last=True)
        # double punctuation / late batch
        yield ColumnBatch.from_rows([])

    error = expect("TQL902", sanitize(broken()))
    assert "after last=True" in str(error)


def test_tql902_missing_punctuation_fires():
    def broken():
        # the stream just stops, no last=True
        yield ColumnBatch.from_rows([])

    expect("TQL902", sanitize(broken()))


def test_tql903_column_length_mismatch_fires():
    def broken():
        yield ColumnBatch({"a": [1, 2, 3]}, 2, last=True)

    expect("TQL903", sanitize(broken()))


def test_tql903_stale_negative_cache_fires():
    def broken():
        batch = ColumnBatch({"a": [1, 2]}, 2, last=True)
        batch._absent = {"a"}  # claims 'a' absent; a real column exists
        yield batch

    error = expect("TQL903", sanitize(broken()))
    assert "negative-probe cache" in str(error)


def test_tql903_non_list_backing_rows_fires():
    def broken():
        yield ColumnBatch.from_rows(({"a": 1},), last=True)

    error = expect("TQL903", sanitize(broken()))
    assert "must be a list" in str(error)


def _tweets(n=3):
    user = User(user_id=7, screen_name="ref", location="Leeds")
    return [
        Tweet(tweet_id=i, created_at=100.0 + i, user=user, text=f"goal {i}")
        for i in range(n)
    ]


def test_tweet_backed_batch_passes_clean():
    batch = ColumnBatch.from_tweets(_tweets(), last=True)
    batch.values("text"), batch.rows  # a read column and built rows
    assert list(sanitize([batch])) == [batch]


def test_tql903_non_list_backing_tweets_fires():
    def broken():
        yield ColumnBatch.from_tweets(tuple(_tweets()), last=True)

    error = expect("TQL903", sanitize(broken()))
    assert "backing tweets must be a list" in str(error)


def test_tql903_tweet_count_mismatch_fires():
    def broken():
        batch = ColumnBatch.from_tweets(_tweets(), last=True)
        batch.length = 2  # declares fewer rows than it holds tweets
        yield batch

    error = expect("TQL903", sanitize(broken()))
    assert "3 backing tweets vs declared length 2" in str(error)


def test_tql903_backing_row_dict_instead_of_tweet_fires():
    def broken():
        tweets = _tweets()
        yield ColumnBatch.from_tweets(
            [tweets[0], tweets[1].to_row(), tweets[2]], last=True
        )

    error = expect("TQL903", sanitize(broken()))
    assert "backing tweet 1 is a dict, not a Tweet" in str(error)


def test_tql904_missing_leak_through_tweet_rows_fires():
    """Row dicts a tweet-backed batch built are checked like any other."""
    def broken():
        tweets = _tweets()
        tweets[2] = replace(tweets[2], user=replace(tweets[2].user, lang=MISSING))
        batch = ColumnBatch.from_tweets(tweets, last=True)
        batch.rows  # a row consumer asked
        yield batch

    error = expect("TQL904", sanitize(broken()))
    assert "row 2 field 'lang'" in str(error)


def test_tql904_missing_leak_fires():
    def broken():
        yield ColumnBatch.from_rows([{"a": MISSING}], last=True)

    error = expect("TQL904", sanitize(broken()))
    assert "MISSING" in str(error)


def test_tql906_stats_regression_fires():
    stats = QueryStats()

    def broken():
        stats.rows_scanned = 10
        yield ColumnBatch.from_rows([])
        stats.rows_scanned = 5  # counter went backwards
        yield ColumnBatch.from_rows([], last=True)

    expect("TQL906", sanitize(broken(), stats=stats))


def test_tql907_reconcile_mismatch_fires_at_close():
    from repro.obs.trace import Tracer

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


def test_tql911_cross_thread_pull_fires():
    def source():
        for i in range(5):
            yield ColumnBatch.from_rows([], last=i == 4)

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

    sanitizer = fresh_sanitizer()
    tracer = Tracer(VirtualClock())
    error = sanitizer.violation(
        "TQL902", "batch after last=True", operator="Filter",
        lane="tenant-1", tracer=tracer,
    )
    assert error.code == "TQL902"
    assert error.span is not None and error.span.kind == "sanitizer"
    assert error.span.attrs["code"] == "TQL902"
    assert error.diagnostic is not None
    assert error.diagnostic.as_dict()["code"] == "TQL902"
    # The violation also landed in the trace record itself.
    assert tracer.spans_of("sanitizer")


def test_clean_batches_pass_through_untouched():
    batches = [
        ColumnBatch.from_rows([{"a": 1}]),
        ColumnBatch.from_rows([{"a": 2}]),
        ColumnBatch.from_rows([], last=True),
    ]
    out = list(sanitize(iter(batches)))
    assert out == batches


# ---------------------------------------------------------------------------
# Seeded bugs: each live check catches a plausible bug in a real operator
# ---------------------------------------------------------------------------


def seed_bug(monkeypatch, owner, name, correct, buggy):
    """Replace ``owner.name`` by its own source with the one occurrence of
    ``correct`` rewritten to ``buggy``, until the test ends.

    Everything else is the engine's code as it ships, so a failure shows
    the sanitizer catching the bug in the operator as it really runs; the
    occurrence check fails loudly if the operator changes under the test.
    """
    function = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(correct) == 1, f"{correct!r} is not in {name} once"
    code = compile(
        source.replace(correct, buggy),
        inspect.getsourcefile(function),
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    namespace: dict = {}
    exec(code, function.__globals__, namespace)
    monkeypatch.setattr(owner, name, namespace[name])


def seeded_failure(monkeypatch, sql, *bug, rows=ROWS, **config):
    """``sql`` runs clean under the sanitizer, with the rows an
    unsanitized run gives; with ``bug`` (``seed_bug``'s owner, name,
    correct and buggy text) seeded, it fails. Returns the violation."""
    expected = make_session(False, rows, **config).query(sql).all()
    handle = make_session(True, rows, **config).query(sql)
    assert handle.all() == expected
    handle.close()
    seed_bug(monkeypatch, *bug)
    handle = make_session(True, rows, **config).query(sql)
    with pytest.raises(SanitizerError) as excinfo:
        try:
            handle.all()
        finally:
            handle.close()
    return excinfo.value


#: ROWS made ragged: every third row has no ``lang``, and every other row
#: carries a ``__tweet__``, as a row source may.
RAGGED = [
    {
        **{k: v for k, v in row.items() if k != "lang" or i % 3},
        **({"__tweet__": _tweets(1)[0]} if i % 2 else {}),
    }
    for i, row in enumerate(ROWS)
]


def test_seeded_limit_that_truncates_without_punctuation_is_tql902(
    monkeypatch,
):
    # ``take`` keeps the input's last=False, then LIMIT stops pulling.
    error = seeded_failure(
        monkeypatch, "SELECT text FROM s LIMIT 7;",
        LimitOperator, "__iter__",
        "yield batch.head(remaining)",
        "yield batch.take(list(range(remaining)))",
        batch_size=50,
    )
    assert error.code == "TQL902"
    assert "without last=True" in str(error)
    assert error.operator == "Limit"


def test_seeded_flush_under_the_input_punctuation_is_tql902(monkeypatch):
    # The windows a batch closes go out under the batch's own last=True,
    # and the end-of-stream flush follows them.
    error = seeded_failure(
        monkeypatch,
        "SELECT COUNT(*) AS n, lang FROM s GROUP BY lang WINDOW 120 seconds;",
        WindowedAggregateOperator, "__iter__",
        "yield ColumnBatch.from_rows(emitted)",
        "yield batch.subset(emitted)",
    )
    assert error.code == "TQL902"
    assert "after last=True" in str(error)
    assert error.operator == "Aggregate"


def test_seeded_vector_call_that_drops_null_cells_is_tql903(monkeypatch):
    # A whole-column function skips NULL arguments instead of mapping
    # them to NULL: its column comes out shorter than the batch.
    error = seeded_failure(
        monkeypatch, "SELECT lower(lang) AS l FROM s;",
        expressions, "_vec_call",
        "return [None if a is None else raw(a) for a in col]",
        "return [raw(a) for a in col if a is not None]",
        rows=RAGGED,
    )
    assert error.code == "TQL903"
    assert "column 'l' has 80 cells but the batch declares 120" in str(error)
    assert error.operator == "Project"


def test_seeded_projection_that_leaks_missing_is_tql904(monkeypatch):
    # The all-field projection loses its ragged-``__tweet__`` guard and
    # copies the column's MISSING cells into its row dicts.
    error = seeded_failure(
        monkeypatch, "SELECT text, lang FROM s;",
        ProjectOperator, "_project_fused",
        "MISSING in tweets", "False",
        rows=RAGGED,
    )
    assert error.code == "TQL904"
    assert "row 0 field '__tweet__'" in str(error)
    assert error.operator == "Project"


@pytest.mark.parametrize(
    # 256: the stream is one batch, re-checked at close; 60: two full
    # batches and an empty last one, so only the next pull sees the cache.
    "batch_size", [256, 60], ids=["checked_at_close", "checked_on_next_pull"]
)
def test_seeded_first_row_probe_is_tql903(monkeypatch, batch_size):
    # The negative probe asks the first row only: RAGGED's first row has
    # no ``__tweet__``, so the scan's batch caches it as absent while
    # every other row carries one. The projection's probe fills the cache;
    # the scan's wrapper finds it stale when the next batch is pulled or,
    # for the stream's last batch, when the query closes.
    error = seeded_failure(
        monkeypatch, "SELECT text, lang FROM s;",
        ColumnBatch, "field",
        "if not any(name in row for row in self._rows):",
        "if name not in self._rows[0]:",
        rows=RAGGED, batch_size=batch_size,
    )
    assert error.code == "TQL903"
    assert "'__tweet__' is marked absent but row 1 carries it" in str(error)
    assert error.operator == "Scan(s)"


def test_seeded_counter_overwrite_is_tql906(monkeypatch):
    # The scan stores the batch's row count instead of adding it: the
    # short final batch takes rows_scanned from 50 down to 20.
    error = seeded_failure(
        monkeypatch, "SELECT text FROM s;",
        ScanOperator, "__iter__",
        "stats.rows_scanned += len(chunk)",
        "stats.rows_scanned = len(chunk)",
        batch_size=50,
    )
    assert error.code == "TQL906"
    assert "rows_scanned went 50 -> 20" in str(error)
    assert error.operator == "Scan(s)"


def test_seeded_counter_overcount_is_tql907(monkeypatch):
    # The scan counts the frame size it asked for, not the rows it got:
    # 150 rows by the counter, 120 by the probes, found at close.
    error = seeded_failure(
        monkeypatch, "SELECT text FROM s;",
        ScanOperator, "__iter__",
        "stats.rows_scanned += len(chunk)",
        "stats.rows_scanned += size",
        batch_size=50,
    )
    assert error.code == "TQL907"
    assert "scan_rows=120 vs rows_scanned=150" in str(error)
