"""Window assignment."""

import os
import subprocess
import sys

import pytest

import repro
from repro.engine.windows import (
    MAX_WINDOWS_PER_ROW,
    window_start,
    windows_containing,
    windows_per_row,
)
from repro.sql.ast import WindowSpec


def test_tumbling_single_window():
    spec = WindowSpec(size_seconds=60.0)
    windows = list(windows_containing(125.0, spec))
    assert windows == [(120.0, 180.0)]


def test_tumbling_boundary_belongs_to_next_window():
    spec = WindowSpec(size_seconds=60.0)
    assert list(windows_containing(120.0, spec)) == [(120.0, 180.0)]


def test_sliding_membership_count():
    spec = WindowSpec(size_seconds=300.0, slide_seconds=60.0)
    windows = list(windows_containing(1000.0, spec))
    assert len(windows) == 5
    for start, end in windows:
        assert start <= 1000.0 < end
        assert end - start == 300.0


def test_sliding_windows_aligned_to_slide():
    spec = WindowSpec(size_seconds=300.0, slide_seconds=60.0)
    for start, _end in windows_containing(1234.0, spec):
        assert start % 60.0 == 0.0


def test_window_start_alignment():
    assert window_start(125.0, 60.0) == 120.0
    assert window_start(59.9, 60.0) == 0.0


def test_window_spec_defaults_tumbling():
    spec = WindowSpec(size_seconds=60.0)
    assert spec.slide == 60.0
    assert spec.tumbling
    sliding = WindowSpec(size_seconds=60.0, slide_seconds=10.0)
    assert not sliding.tumbling


def test_count_windows_start_at_row_zero():
    spec = WindowSpec(size_count=5, slide_count=2)
    assert list(windows_containing(1, spec)) == [(0.0, 5.0)]
    assert list(windows_containing(4, spec)) == [(4.0, 9.0), (2.0, 7.0), (0.0, 5.0)]


def test_time_windows_keep_negative_starts():
    spec = WindowSpec(size_seconds=5.0, slide_seconds=2.0)
    assert list(windows_containing(1.0, spec)) == [(0.0, 5.0), (-2.0, 3.0)]


def test_sampling_count_windows_skip_rows_between_them():
    spec = WindowSpec(size_count=2, slide_count=5)
    assert list(windows_containing(6, spec)) == [(5.0, 7.0)]
    assert list(windows_containing(7, spec)) == []


def test_windows_per_row_is_the_size_over_slide_ratio():
    assert windows_per_row(WindowSpec(size_seconds=60.0)) == 1
    assert windows_per_row(WindowSpec(size_seconds=300.0, slide_seconds=60.0)) == 5
    assert windows_per_row(WindowSpec(size_seconds=10.0, slide_seconds=3.0)) == 4
    assert windows_per_row(WindowSpec(size_count=100, slide_count=20)) == 5
    assert windows_per_row(WindowSpec(size_count=2, slide_count=5)) == 1
    assert windows_per_row(
        WindowSpec(size_seconds=3600.0, slide_seconds=3.6)
    ) == MAX_WINDOWS_PER_ROW


@pytest.mark.parametrize(
    "window",
    [
        "WINDOW 1 hours EVERY 0.001 seconds",
        "WINDOW 100000 TWEETS EVERY 1 TWEETS",
    ],
)
def test_a_window_fan_out_past_the_bound_fails_before_any_row(window):
    """Every row enters ``size / slide`` windows; past the bound the query
    is refused at planning instead of spinning on its first row."""
    script = f"""
from repro import TweeQL
from repro.errors import PlanError

session = TweeQL()
session.register_source(
    "s", lambda: iter({{"created_at": float(i)}} for i in range(10)),
    ("created_at",),
)
try:
    session.query("SELECT COUNT(*) AS n FROM s {window} LIMIT 1;").all()
except PlanError as exc:
    print(exc.code)
"""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "TQL217"
