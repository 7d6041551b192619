"""Spans recorded by the benchmark around its calls into each layer.

The program under test is not instrumented: a traced pass is the
benchmark driving the same steps as an untraced pass through each
layer's public entry points, with a ``perf_counter_ns`` span at every
boundary. Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns

#: Name of the span that wraps one whole traced pass.
PASS = "pass"


class SpanRecorder:
    """In-memory span list: ``{name, start, end, parent, pass}``.

    ``parent`` is the index of the enclosing span. Per-row calls are not
    recorded one span each: the caller accumulates their busy time and
    files one ``busy`` span per layer with the call count.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        #: Pass number of the spans being recorded; None for probes.
        self.pass_id: int | None = None

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": perf_counter_ns(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_id,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = perf_counter_ns()
            self._stack.pop()

    def busy(self, name: str, busy_ns: int, count: int) -> None:
        """File the accumulated time of ``count`` calls into one layer.

        The span is placed at its parent's start; only its length and
        count carry meaning.
        """
        parent = self._stack[-1] if self._stack else None
        start = self.spans[parent]["start"] if parent is not None else 0
        self.spans.append({
            "name": name,
            "start": start,
            "end": start + busy_ns,
            "parent": parent,
            "pass": self.pass_id,
            "count": count,
        })

    # -- reading ---------------------------------------------------------

    def self_times(self, pass_id: int | None) -> dict[str, dict]:
        """Per span name: self time (span minus its children), total time
        and count, over the spans of one pass."""
        children_ns: dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span["parent"] is not None:
                children_ns[span["parent"]] += span["end"] - span["start"]
        table: dict[str, dict] = {}
        for index, span in enumerate(self.spans):
            if span["pass"] != pass_id:
                continue
            total = span["end"] - span["start"]
            entry = table.setdefault(
                span["name"], {"self_ns": 0, "total_ns": 0, "count": 0}
            )
            entry["self_ns"] += total - children_ns[index]
            entry["total_ns"] += total
            entry["count"] += span.get("count", 1)
        return table

    def write(self, path: str, **header: object) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({**header, "spans": self.spans}, f)


class NoSpans:
    """Stands in for a :class:`SpanRecorder` on untraced passes."""

    def span(self, name: str):
        return nullcontext()

    def busy(self, name: str, busy_ns: int, count: int) -> None:
        pass


#: The recorder of an untraced pass.
UNTRACED = NoSpans()
