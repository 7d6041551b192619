"""Window closing: which windows a stream emits, in what order, and when.

The aggregate operators close windows lazily — the open set is only
scanned once a row reaches the earliest open end — so the property pins
what laziness must not change: over random timestamp runs (ties, gaps
that skip whole windows, rows landing exactly on a boundary) and window
specs (tumbling; sliding with a size that is not a multiple of the slide;
count windows sliding by less or more than their size), the emitted rows,
their order and ``windows_closed`` equal the one-row-per-batch run and a
plain-Python window assignment — and, one row per batch, each window is
emitted by the very row that closes it (``rows_scanned`` at arrival),
not at some later scan of the open set.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineConfig, TweeQL

SCHEMA = ("created_at", "k", "v")


@st.composite
def streams(draw):
    """Timestamp-ordered rows: steps of 0 (ties), 1–3, or a long gap."""
    steps = draw(
        st.lists(st.sampled_from((0, 0, 1, 1, 2, 3, 17, 60)), max_size=40)
    )
    now, rows = draw(st.integers(0, 50)), []
    for step in steps:
        now += step
        rows.append(
            {
                "created_at": float(now),
                "k": draw(st.sampled_from("abc")),
                "v": draw(st.one_of(st.none(), st.integers(-9, 9))),
            }
        )
    return rows


def run(rows, window, batch_size):
    """``(output rows, rows_scanned as each arrived, windows_closed)``."""
    session = TweeQL(config=EngineConfig(batch_size=batch_size))
    session.register_source("s", lambda: iter([dict(r) for r in rows]), SCHEMA)
    handle = session.query(
        f"SELECT COUNT(*) AS n, SUM(v) AS total, k FROM s GROUP BY k {window};"
    )
    out, scanned = [], []
    for row in handle:
        out.append(row)
        scanned.append(handle.stats.rows_scanned)
    handle.close()
    return out, scanned, handle.stats.windows_closed


def group_rows(members, **window_columns):
    """One output row per ``k`` among ``members``, in first-seen order."""
    groups: dict[str, list] = {}
    for row in members:
        groups.setdefault(row["k"], []).append(row["v"])
    out = []
    for k, values in groups.items():
        known = [float(v) for v in values if v is not None]
        total = sum(known) if known else None
        out.append({"n": len(values), "total": total, "k": k, **window_columns})
    return out


def assert_same_everywhere(rows, window, batch_size, want, want_closed):
    """``want``: (output row, input rows read when it must appear)."""
    want_rows = [row for row, _scanned in want]
    for size in (1, batch_size):
        got_rows, got_scanned, got_closed = run(rows, window, size)
        assert got_rows == want_rows, (window, size)
        assert got_closed == want_closed, (window, size)
        if size == 1:
            assert got_scanned == [scanned for _row, scanned in want], window


@settings(max_examples=60, deadline=None)
@given(
    rows=streams(),
    size=st.integers(1, 40),
    slide=st.integers(1, 40),
    batch_size=st.sampled_from((2, 7, 256)),
)
def test_time_windows_close_in_order(rows, size, slide, batch_size):
    slide = min(slide, size)  # tumbling when equal, else sliding
    # A row at t is in every window [j·slide, j·slide + size) containing t.
    members: dict[int, list] = {}
    for row in rows:
        j = int(row["created_at"] // slide)
        while j * slide > row["created_at"] - size:
            members.setdefault(j, []).append(row)
            j -= 1
    want = []
    for j in sorted(members):
        start, end = float(j * slide), float(j * slide + size)
        # Closed by the first row at or past its end, else the final flush.
        closer = next(
            (i for i, row in enumerate(rows) if row["created_at"] >= end),
            len(rows) - 1,
        )
        want += [
            (out, closer + 1)
            for out in group_rows(
                members[j], window_start=start, window_end=end, created_at=end
            )
        ]
    window = f"WINDOW {size} seconds EVERY {slide} seconds"
    assert_same_everywhere(rows, window, batch_size, want, len(members))


@settings(max_examples=60, deadline=None)
@given(
    rows=streams(),
    size=st.integers(1, 12),
    slide=st.integers(1, 12),
    batch_size=st.sampled_from((2, 7, 256)),
)
def test_count_windows_close_in_order(rows, size, slide, batch_size):
    # Window j covers row ordinals [j·slide, j·slide + size).
    want, closed = [], 0
    for start in range(0, len(rows), slide):
        members = rows[start : start + size]
        closed += 1
        first, last = members[0]["created_at"], members[-1]["created_at"]
        # Closed by the row one past its last ordinal, else the final flush.
        closer = min(start + size, len(rows) - 1)
        want += [
            (out, closer + 1)
            for out in group_rows(
                members,
                window_start=first,
                window_end=last,
                window_rows=len(members),
                created_at=last,
            )
        ]
    window = f"WINDOW {size} TWEETS EVERY {slide} TWEETS"
    assert_same_everywhere(rows, window, batch_size, want, closed)
