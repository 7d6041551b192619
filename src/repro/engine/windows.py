"""Window assignment.

TweeQL's ``WINDOW n unit [EVERY m unit]``: window ``[j·slide, j·slide +
size)`` holds the rows whose coordinate falls in it — tumbling when the
slide equals the size, sliding when it is smaller. The coordinate is the
row's ``created_at`` for time windows (epoch-aligned: stream time, not
wall-clock time) and its global ordinal for tweet-count windows, which
start no earlier than row 0.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from repro.sql.ast import WindowSpec

#: Most windows one row may enter (``ceil(size / slide)``); the analyzer
#: rejects a window clause past it as ``TQL217`` before any row is read.
MAX_WINDOWS_PER_ROW = 1000


def windows_per_row(spec: WindowSpec) -> int:
    """How many windows a row enters: ``ceil(size / slide)``."""
    return math.ceil(spec.size / spec.slide)


def window_start(coordinate: float, slide: float) -> float:
    """Start of the *latest* window containing ``coordinate``."""
    return math.floor(coordinate / slide) * slide


def windows_containing(
    coordinate: float, spec: WindowSpec
) -> Iterator[tuple[float, float]]:
    """All (start, end) windows that contain ``coordinate``.

    A tumbling window yields exactly one; a sliding window of size S and
    slide L yields up to ``ceil(S / L)`` windows (those whose start lies in
    ``(coordinate - S, coordinate]``, aligned to multiples of L), latest
    first. Count windows yield none that starts below 0.
    """
    if spec.size_count is not None:
        size, floor = spec.size_count, 0.0
    else:
        size, floor = spec.size_seconds, -math.inf
    slide = spec.slide
    start = window_start(coordinate, slide)
    while start > coordinate - size and start >= floor:
        yield (start, start + size)
        start -= slide
