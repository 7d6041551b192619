"""Volume timeline binning."""

import pytest

from repro.twitinfo.timeline import Timeline


def test_add_and_total():
    timeline = Timeline(bin_seconds=60.0)
    for t in (10.0, 20.0, 70.0):
        timeline.add(t)
    assert timeline.total == 3
    assert len(timeline) == 2


def test_bins_ordered_with_gaps_filled():
    timeline = Timeline(bin_seconds=60.0)
    timeline.add(10.0)
    timeline.add(250.0)
    bins = timeline.bins()
    assert bins == [(0.0, 1), (60.0, 0), (120.0, 0), (180.0, 0), (240.0, 1)]


def test_bins_without_gap_fill():
    timeline = Timeline(bin_seconds=60.0)
    timeline.add(10.0)
    timeline.add(250.0)
    assert timeline.bins(fill_gaps=False) == [(0.0, 1), (240.0, 1)]


def test_negative_and_origin():
    timeline = Timeline(bin_seconds=60.0, origin=30.0)
    timeline.add(30.0)
    timeline.add(89.9)
    assert timeline.bins() == [(30.0, 2)]


def test_count_between():
    timeline = Timeline(bin_seconds=10.0)
    for t in (5.0, 15.0, 25.0, 35.0):
        timeline.add(t)
    assert timeline.count_between(10.0, 30.0) == 2


def test_weighted_add():
    timeline = Timeline(bin_seconds=10.0)
    timeline.add(5.0, count=7)
    assert timeline.total == 7


def test_max_count():
    timeline = Timeline(bin_seconds=10.0)
    assert timeline.max_count() == 0
    timeline.add(5.0)
    timeline.add(5.0)
    timeline.add(15.0)
    assert timeline.max_count() == 2


def test_sparkline_length_and_shape():
    timeline = Timeline(bin_seconds=10.0)
    for i in range(100):
        timeline.add(i * 10.0, count=1 + (i % 10))
    line = timeline.sparkline(width=40)
    assert len(line) == 40
    assert "█" in line


def test_sparkline_empty():
    assert Timeline().sparkline() == ""


def test_invalid_bin_seconds():
    with pytest.raises(ValueError):
        Timeline(bin_seconds=0.0)


def test_add_all_equals_repeated_add():
    stamps = [250.0, 10.0, 59.999, 60.0, -0.5, 10.0, 1e6]
    one_by_one = Timeline(bin_seconds=60.0, origin=5.0)
    for t in stamps:
        one_by_one.add(t)
    at_once = Timeline(bin_seconds=60.0, origin=5.0)
    at_once.add_all(stamps)
    assert list(at_once._counts.items()) == list(one_by_one._counts.items())
    assert at_once.bins() == one_by_one.bins()
