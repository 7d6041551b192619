"""EXPLAIN ANALYZE rendering and span/stats reconciliation.

``render_analyze(handle)`` produces the plan description followed by an
execution profile: one line per instrumented operator (lane, rows,
batches, inclusive wall time, self time), the query-level counter totals,
per-service call/cache/stall/retry accounting, and a span census. All
numbers come from the virtual clock and deterministic counters, so the
rendering is golden-testable.

``reconcile(handle)`` cross-checks the trace against the engine's own
counters — the probes are an independent measurement of the same stream,
so scan rows must equal ``QueryStats.rows_scanned`` and the final stage's
rows must equal ``rows_emitted``. The property tests assert ``ok``.
"""

from __future__ import annotations

from typing import Any


def _require_tracer(handle: Any) -> Any:
    tracer = getattr(handle, "tracer", None)
    if tracer is None:
        from repro.errors import ExecutionError

        raise ExecutionError(
            "EXPLAIN ANALYZE needs a traced plan: enable "
            "EngineConfig.tracing=True (or use TweeQL.explain(sql, "
            "analyze=True), which does so for you)"
        )
    return tracer


def render_analyze(handle: Any) -> str:
    """The annotated plan for an executed (traced) query handle."""
    tracer = _require_tracer(handle)
    lines: list[str] = [handle.explain()]
    lines.append("-- EXPLAIN ANALYZE " + "-" * 53)

    probes = list(tracer.probes)
    if probes:
        name_width = max(24, max(len(p.name) for p in probes) + 1)
        lane_width = max(8, max(len(p.lane) for p in probes) + 1)
        lines.append(
            f"{'lane':<{lane_width}}{'operator':<{name_width}}"
            f"{'rows':>10}{'batches':>9}{'wall s':>12}{'self s':>12}"
        )
        last_wall_in_lane: dict[str, float] = {}
        for probe in probes:
            upstream = last_wall_in_lane.get(probe.lane, 0.0)
            self_seconds = max(0.0, probe.wall_seconds - upstream)
            last_wall_in_lane[probe.lane] = probe.wall_seconds
            lines.append(
                f"{probe.lane:<{lane_width}}{probe.name:<{name_width}}"
                f"{probe.rows:>10}{probe.batches:>9}"
                f"{probe.wall_seconds:>12.3f}{self_seconds:>12.3f}"
            )
    else:
        lines.append("(no operators ran)")

    stats = handle.stats.as_dict()
    lines.append(
        "query totals: "
        + " ".join(f"{key}={value}" for key, value in stats.items())
    )

    service_lines: list[str] = []
    for name, block in sorted(handle.service_stats.items()):
        if not block.get("calls"):
            continue
        parts = [
            f"calls={block['calls']}",
            f"cache_hits={block['cache_hits']}",
        ]
        cache = block.get("cache")
        if cache is not None:
            parts.append(f"hit_rate={cache['hit_rate'] * 100:.1f}%")
        parts.extend(
            [
                f"stalls={block['stalls']}",
                f"stall={block['stall_seconds']:.3f}s",
                f"prefetch={block['prefetch_seconds']:.3f}s",
                f"prefetched={block['prefetched']}",
            ]
        )
        resilience = block.get("resilience")
        if resilience is not None:
            parts.append(f"retries={resilience['retries']}")
            parts.append(f"giveups={resilience['giveups']}")
        breaker = block.get("breaker")
        if breaker is not None:
            parts.append(f"breaker={breaker['state']}")
        service_lines.append(f"  {name}: " + " ".join(parts))
    if service_lines:
        lines.append("services:")
        lines.extend(service_lines)
    else:
        lines.append("services: none called")

    census: dict[str, int] = {}
    for span in tracer.spans:
        census[span.kind] = census.get(span.kind, 0) + 1
    lines.append(
        f"trace: {len(tracer.spans)} span(s)"
        + (
            " ("
            + " ".join(
                f"{kind}={census[kind]}" for kind in sorted(census)
            )
            + ")"
            if census
            else ""
        )
    )
    return "\n".join(lines)


def reconcile(handle: Any) -> dict[str, Any]:
    """Cross-check trace probes against the engine's own counters.

    - scan rows: the sum over ``Scan``-named probes;
    - emitted rows: the last-registered probe wraps the plan's final
      stage, whose row count is the query's output (plus, symmetrically,
      whatever punctuation the stats counter also never sees).
    """
    tracer = _require_tracer(handle)
    probes = list(tracer.probes)
    stats = handle.stats
    scan_rows = sum(p.rows for p in probes if p.name.startswith("Scan"))
    emitted_rows = probes[-1].rows if probes else 0
    report = {
        "scan_rows": scan_rows,
        "rows_scanned": stats.rows_scanned,
        "emitted_rows": emitted_rows,
        "rows_emitted": stats.rows_emitted,
    }
    report["ok"] = (
        scan_rows == stats.rows_scanned
        and emitted_rows == stats.rows_emitted
    )
    return report
