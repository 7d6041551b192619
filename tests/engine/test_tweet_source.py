"""The twitter source scans tweet-backed batches.

A tweet-backed :class:`ColumnBatch` must be indistinguishable from the
rows-backed batch of the same tweets' ``to_row()`` dicts under every
accessor and structural operation, and a query that reads only columns
must not build a row dict per tweet at all.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TweeQL
from repro.engine.types import ColumnBatch
from repro.twitter.models import TWEET_COLUMNS, Tweet

#: Every column of the table, plus names no tweet carries.
NAMES = (*TWEET_COLUMNS, "__agg0", "window_start")

verdict_cells = st.sampled_from((True, False, None, 0, 1, "", "x"))


def pair(tweets, seq=0, last=False):
    """(tweet-backed, rows-backed) batches of the same tweets."""
    return (
        ColumnBatch.from_tweets(list(tweets), seq, last),
        ColumnBatch.from_rows([t.to_row() for t in tweets], seq, last),
    )


def assert_equivalent(ours, theirs):
    for name in NAMES:
        assert ours.has_field(name) == theirs.has_field(name), name
        assert ours.field(name) == theirs.field(name), name
        assert ours.values(name) == theirs.values(name), name
    assert [ours.row(i) for i in range(len(ours))] == theirs.rows
    assert ours.rows == theirs.rows
    assert ours == theirs
    assert (ours.seq, ours.last, len(ours)) == (
        theirs.seq, theirs.last, len(theirs)
    )


@settings(max_examples=120, deadline=2000)
@given(data=st.data(), seq=st.integers(0, 9), last=st.booleans())
def test_tweet_backed_batch_equals_its_rows(soccer, data, seq, last):
    tweets = data.draw(
        st.lists(st.sampled_from(soccer.tweets[:400]), max_size=24)
    )
    n = len(tweets)
    ours, theirs = pair(tweets, seq, last)
    assert_equivalent(ours, theirs)

    verdicts = data.draw(st.lists(verdict_cells, min_size=n, max_size=n))
    indexes = sorted(
        data.draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n))
    ) if n else []
    cut = data.draw(st.integers(0, n + 1))
    for op in (
        lambda b: b.compress(verdicts),
        lambda b: b.take(indexes),
        lambda b: b.head(cut),
    ):
        # Fresh batches, and batches whose columns were already read.
        for warm in (False, True):
            ours, theirs = pair(tweets, seq, last)
            if warm:
                ours.values("text"), theirs.values("text")
            kept, expected = op(ours), op(theirs)
            assert kept._tweets is not None  # still tweet-backed
            assert_equivalent(kept, expected)


def test_field_presence_needs_no_tweet(soccer):
    """``has_field`` answers from the column table: no column is read."""
    batch = ColumnBatch.from_tweets(soccer.tweets[:256])
    assert not batch.has_field("window_start")
    assert batch.has_field("__tweet__") and batch.has_field("lang")
    assert batch.columns == {}
    assert not ColumnBatch.from_tweets([]).has_field("text")


@pytest.fixture()
def counting_to_row(monkeypatch):
    """Counts ``Tweet.to_row`` calls made while the fixture is active."""
    calls = []
    original = Tweet.to_row

    def to_row(self):
        calls.append(self.tweet_id)
        return original(self)

    monkeypatch.setattr(Tweet, "to_row", to_row)
    return calls


#: The benchmark's three CPU-bound statements over the whole firehose: a
#: filtered projection of functions, a field-only projection of the
#: regex filter's survivors and a grouped windowed average.
COLUMN_STATEMENTS = (
    "SELECT lower(text) AS t, length(text) AS n, hour(created_at) AS h "
    "FROM twitter WHERE length(text) > 10 AND followers >= 10;",
    "SELECT text, screen_name FROM twitter "
    "WHERE text matches 'g[oa]+l' AND lang = 'en';",
    "SELECT AVG(followers) AS f, COUNT(*) AS n, lang FROM twitter "
    "WHERE length(text) > 10 GROUP BY lang WINDOW 5 minutes;",
)


@pytest.mark.parametrize("sql", COLUMN_STATEMENTS)
def test_column_queries_build_no_row_per_tweet(soccer, counting_to_row, sql):
    """Projections build no row dict; a grouped aggregate builds one per
    group it opens (the group's representative row), not one per tweet."""
    session = TweeQL.for_scenarios(soccer, delivery_ratio=1.0)
    handle = session.query(sql)
    rows = handle.all()
    assert rows and handle.stats.rows_scanned == len(soccer.tweets)
    if "GROUP BY" in sql:
        assert len(counting_to_row) <= len(rows)
    else:
        assert counting_to_row == []


def test_row_consumers_build_rows_for_what_they_read(soccer, counting_to_row):
    """A row-at-a-time stage (a stateful call has no column form) reads
    row dicts, built for the filter's survivors only — once each."""
    session = TweeQL.for_scenarios(soccer, delivery_ratio=1.0)
    handle = session.query(
        "SELECT meandev(followers) AS m, tweet_id FROM twitter "
        "WHERE text matches 'g[oa]+l';"
    )
    rows = handle.all()
    assert 0 < len(rows) < handle.stats.rows_scanned
    assert counting_to_row == [r["tweet_id"] for r in rows]
