"""The archive's read path: a scan decodes a fetch at a time.

``SqliteTweetLog.scan_chunks`` decodes each fetched chunk in one pass and
shares one decoded author and geotag across the rows that store the same
``(user_id, payload)``. Each row must still decode to exactly the tweet
``_row_to_tweet`` makes of it, in every payload shape the store has
written. ``TweetEntities.from_text`` skips its three regexes for a text
that cannot hold an entity; the shortcut must answer what they answer.
"""

from __future__ import annotations

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.tweetlog import SqliteTweetLog
from repro.twitter.models import (
    _HASHTAG_RE,
    _MENTION_RE,
    _URL_RE,
    NO_ENTITIES,
    TweetEntities,
)

coordinate = st.tuples(
    st.floats(-90, 90, allow_nan=False), st.floats(-180, 180, allow_nan=False)
)

user_fields = st.fixed_dictionaries({
    "screen_name": st.sampled_from(["ana", "bo", "cy"]),
    "location": st.sampled_from(["", "Leeds", "Boston, MA"]),
    "home": st.one_of(st.none(), st.sampled_from([(53.8, -1.55), (42.36, -71.06)])),
    "geo_enabled": st.booleans(),
    "followers": st.sampled_from([0, 7, 4500]),
    "lang": st.sampled_from(["en", "es"]),
})


@st.composite
def stored_rows(draw):
    """Rows as the store holds them: a few authors, so payloads repeat,
    in today's payload shape or an earlier one (which also carried
    ``user.user_id`` and a ``ground_truth`` dict)."""
    authors = draw(st.lists(
        st.tuples(st.integers(1, 4), user_fields), min_size=1, max_size=4
    ))
    rows = []
    for tweet_id in range(1, draw(st.integers(0, 60)) + 1):
        user_id, user = draw(st.sampled_from(authors))
        geo = draw(st.one_of(st.none(), st.none(), coordinate))
        payload = {"user": dict(user), "geo": geo}
        if draw(st.booleans()):
            payload["user"]["user_id"] = user_id
            payload["ground_truth"] = {"sentiment": draw(st.integers(-1, 1))}
        rows.append((
            tweet_id,
            float(draw(st.integers(0, 30))),
            user_id,
            draw(st.sampled_from(["goal", "#goal by @tevez", "see http://x.co"])),
            json.dumps(payload),
        ))
    return rows


def _log(rows, **limits):
    log = type("Log", (SqliteTweetLog,), limits)()
    log._conn.executemany(
        f"INSERT INTO tweets ({SqliteTweetLog._COLUMNS}) VALUES (?, ?, ?, ?, ?)",
        rows,
    )
    return log


@settings(max_examples=200, deadline=None)
@given(
    rows=stored_rows(),
    fetch=st.sampled_from([1, 3, 512]),
    kept=st.sampled_from([0, 2, 8192]),
)
def test_chunked_decode_is_row_to_tweet(rows, fetch, kept):
    # Small fetches and a small memo cap: chunk edges and memo restarts
    # fall inside the scan.
    with _log(rows, _SCAN_CHUNK=fetch, _DECODED_MAX=kept) as log:
        chunks = list(log.scan_chunks())
        scanned = list(log.scan())
    ordered = sorted(rows, key=lambda row: (row[1], row[0]))
    expected = [SqliteTweetLog._row_to_tweet(row) for row in ordered]
    decoded = [tweet for chunk in chunks for tweet in chunk]
    assert decoded == expected
    assert scanned == expected
    assert all(0 < len(chunk) <= fetch for chunk in chunks)
    if kept == 8192:
        # One author object per distinct author over the whole scan.
        authors = {id(tweet.user) for tweet in decoded}
        assert len(authors) == len({tweet.user for tweet in decoded})


def _regex_entities(text: str) -> TweetEntities:
    return TweetEntities(
        hashtags=tuple(m.group(1).lower() for m in _HASHTAG_RE.finditer(text)),
        mentions=tuple(m.group(1) for m in _MENTION_RE.finditer(text)),
        urls=tuple(m.group(0).rstrip(".,;!?)") for m in _URL_RE.finditer(text)),
    )


#: Text pieces that make and break entities.
PIECES = ["a", "B", " ", "#", "@", "://", ":/", "http", "https://", "t.co/x",
          ".", "?)", "é", "_1", "#Tag", "@who", "http://x.co/a,", "ftp://y"]


@settings(max_examples=500, deadline=None)
@given(text=st.lists(st.sampled_from(PIECES), max_size=12).map("".join)
       | st.text(max_size=40))
def test_empty_entities_shortcut_is_the_regex_path(text):
    entities = TweetEntities.from_text(text)
    assert entities == _regex_entities(text)
    if "#" not in text and "@" not in text and "://" not in text:
        assert entities is NO_ENTITIES
