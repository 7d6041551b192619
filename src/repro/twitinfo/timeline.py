"""Tweet-volume timeline.

Section 3.2: "The event timeline reports tweet activity by volume. The
more tweets that match the query during a period of time, the higher the
y-axis value on the timeline for that period."

:class:`Timeline` accumulates per-bin counts incrementally (tweets arrive
in time order from the stream) and exposes the closed bins to the peak
detector and renderers.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

#: Longest run of gap bins materialized per lull. A week-long quiet spell
#: at 1-second bins would otherwise expand to ~600k zero tuples; real
#: gaps in the demo scenarios are orders of magnitude shorter, so capped
#: runs never change what the peak detector sees in practice.
MAX_GAP_RUN = 10_000


@dataclass
class Timeline:
    """Streaming per-bin tweet counts.

    Attributes:
        bin_seconds: bin width.
        origin: bins are aligned to multiples of ``bin_seconds`` from this
            origin (0.0 aligns to the epoch).
    """

    bin_seconds: float = 60.0
    origin: float = 0.0
    _counts: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.bin_seconds <= 0:
            raise ValueError("bin_seconds must be positive")

    def _bin_index(self, timestamp: float) -> int:
        return math.floor((timestamp - self.origin) / self.bin_seconds)

    def bin_start(self, index: int) -> float:
        """Timestamp of a bin's left edge."""
        return self.origin + index * self.bin_seconds

    def add(self, timestamp: float, count: int = 1) -> None:
        """Count one tweet (or ``count`` of them) at ``timestamp``."""
        index = self._bin_index(timestamp)
        self._counts[index] = self._counts.get(index, 0) + count

    def add_all(self, timestamps: Iterable[float]) -> None:
        """Count one tweet at each of ``timestamps``."""
        counts = self._counts
        origin = self.origin
        width = self.bin_seconds
        floor = math.floor
        for timestamp in timestamps:
            index = floor((timestamp - origin) / width)
            counts[index] = counts.get(index, 0) + 1

    @property
    def total(self) -> int:
        """Total tweets counted."""
        return sum(self._counts.values())

    def bounds(self) -> tuple[float, float] | None:
        """(first bin's start, last bin's end) — the populated span.

        None for an empty timeline.
        """
        if not self._counts:
            return None
        lo = min(self._counts)
        hi = max(self._counts)
        return self.bin_start(lo), self.bin_start(hi) + self.bin_seconds

    def __len__(self) -> int:
        return len(self._counts)

    def iter_bins(
        self, fill_gaps: bool = True, max_gap_run: int | None = MAX_GAP_RUN
    ) -> Iterator[tuple[float, int]]:
        """Lazily yield (bin_start, count) in time order.

        With ``fill_gaps``, empty bins between the first and last
        populated bin are included with count 0 — the peak detector must
        see quiet minutes, or a lull looks like a time warp. Gap runs are
        generated lazily and truncated to ``max_gap_run`` zero bins per
        lull (pass ``None`` for unbounded), so a week of silence at
        1-second bins cannot materialize hundreds of thousands of tuples.
        """
        if not self._counts:
            return
        indices = sorted(self._counts)
        if not fill_gaps:
            for i in indices:
                yield self.bin_start(i), self._counts[i]
            return
        previous = indices[0] - 1
        for i in indices:
            gap = i - previous - 1
            if max_gap_run is not None:
                gap = min(gap, max_gap_run)
            for k in range(i - gap, i):
                yield self.bin_start(k), 0
            yield self.bin_start(i), self._counts[i]
            previous = i

    def bins(
        self, fill_gaps: bool = True, max_gap_run: int | None = MAX_GAP_RUN
    ) -> list[tuple[float, int]]:
        """(bin_start, count) in time order (see :meth:`iter_bins`)."""
        return list(self.iter_bins(fill_gaps, max_gap_run=max_gap_run))

    def count_between(self, start: float, end: float) -> int:
        """Total count across bins intersecting [start, end)."""
        lo = self._bin_index(start)
        hi = self._bin_index(end - 1e-9)
        if hi - lo + 1 > len(self._counts):
            # Sparse path: a wide range over few populated bins sums the
            # dict instead of walking every index in the range.
            return sum(
                count for i, count in self._counts.items() if lo <= i <= hi
            )
        return sum(self._counts.get(i, 0) for i in range(lo, hi + 1))

    def max_count(self) -> int:
        """The busiest bin's count (0 when empty)."""
        return max(self._counts.values(), default=0)

    def sparkline(self, width: int = 60) -> str:
        """A unicode sparkline of the timeline (for the text dashboard)."""
        bins = self.bins()
        if not bins:
            return ""
        blocks = " ▁▂▃▄▅▆▇█"
        counts = [count for _start, count in bins]
        # Downsample to `width` columns by max-pooling.
        if len(counts) > width:
            stride = len(counts) / width
            pooled = [
                max(counts[int(i * stride) : max(int(i * stride) + 1, int((i + 1) * stride))])
                for i in range(width)
            ]
        else:
            pooled = counts
        top = max(pooled) or 1
        return "".join(
            blocks[min(len(blocks) - 1, round(c / top * (len(blocks) - 1)))]
            for c in pooled
        )
