"""Service-call accounting is pinned: a change to how the engine reaches
its web services must not move a single call, hit, stall or request.

The three statement shapes are the benchmark's ``query_services`` mix —
a cached projection, a batched windowed GROUP BY on two service-backed
aliases, an async entity projection — over the shared soccer fixture,
at 256 rows per batch and at one. Regenerate after an intentional change
with::

    PYTHONPATH=src python -m tests.engine.test_service_stats_golden
"""

from __future__ import annotations

import pytest

from repro import EngineConfig, TweeQL

STATEMENTS = {
    "cached": (
        "SELECT sentiment(text) AS s, latitude(loc) AS la, "
        "longitude(loc) AS lo FROM twitter WHERE text CONTAINS 'goal';",
        "cached",
    ),
    "batched": (
        "SELECT AVG(sentiment(text)) AS s, floor(latitude(loc)) AS lat, "
        "floor(longitude(loc)) AS long FROM twitter "
        "WHERE text CONTAINS 'goal' GROUP BY lat, long WINDOW 1 hours;",
        "batched",
    ),
    "async": (
        "SELECT text, named_entities(text) AS e FROM twitter "
        "WHERE text CONTAINS 'goal';",
        "async",
    ),
}

BATCH_SIZES = (256, 1)

#: The ManagedCallStats fields the golden pins, per service.
FIELDS = (
    "calls", "cache_hits", "stalls", "stall_seconds", "prefetch_seconds",
    "prefetched", "partials",
)


def measure(scenario, name, batch_size, seed=11):
    """``{service: {field: value}, "requests": {service: n}}`` for one
    statement drained to the end."""
    sql, mode = STATEMENTS[name]
    config = EngineConfig(latency_mode=mode, batch_size=batch_size)
    session = TweeQL.for_scenarios(scenario, config=config, seed=seed)
    handle = session.query(sql)
    handle.all()
    handle.close()
    out = {
        service: {field: stats[field] for field in FIELDS}
        for service, stats in sorted(handle.service_stats.items())
    }
    out["requests"] = {
        "geocode": session.geocode_service.stats.requests,
        "entities": session.entities_service.stats.requests,
    }
    return out


def stats(*values):
    return dict(zip(FIELDS, values))


#: Captured before the prefetch stage was folded into ``resolve``; the
#: column path must reproduce it exactly.
GOLDEN = {
    "async-256": {
        "entities": stats(1229, 1229, 537, 33.076144, 0.0, 564, 0),
        "geocode": stats(0, 0, 0, 0.0, 0.0, 0, 0),
        "requests": {"geocode": 0, "entities": 564},
    },
    "async-1": {
        "entities": stats(1229, 1229, 564, 250.051255, 0.0, 564, 0),
        "geocode": stats(0, 0, 0, 0.0, 0.0, 0, 0),
        "requests": {"geocode": 0, "entities": 564},
    },
    "batched-256": {
        "entities": stats(0, 0, 0, 0.0, 0.0, 0, 0),
        "geocode": stats(2634, 2634, 0, 0.0, 3.459453, 164, 0),
        "requests": {"geocode": 9, "entities": 0},
    },
    "batched-1": {
        "entities": stats(0, 0, 0, 0.0, 0.0, 0, 0),
        "geocode": stats(2634, 2634, 0, 0.0, 46.791058, 164, 0),
        "requests": {"geocode": 164, "entities": 0},
    },
    "cached-256": {
        "entities": stats(0, 0, 0, 0.0, 0.0, 0, 0),
        "geocode": stats(2384, 2220, 164, 46.791058, 0.0, 0, 0),
        "requests": {"geocode": 164, "entities": 0},
    },
    "cached-1": {
        "entities": stats(0, 0, 0, 0.0, 0.0, 0, 0),
        "geocode": stats(2384, 2220, 164, 46.791058, 0.0, 0, 0),
        "requests": {"geocode": 164, "entities": 0},
    },
}


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("name", sorted(STATEMENTS))
def test_service_stats_golden(soccer, name, batch_size):
    assert measure(soccer, name, batch_size) == GOLDEN[f"{name}-{batch_size}"]


def test_small_cache_repeats_requests_not_answers(soccer):
    """Two call sites on one key column resolve one after the other. When
    a batch's distinct keys overflow the cache, the second site
    re-requests keys the first one warmed: more round trips, the same
    rows."""

    def run(cache_capacity):
        config = EngineConfig(
            latency_mode="batched", cache_capacity=cache_capacity
        )
        session = TweeQL.for_scenarios(soccer, config=config, seed=11)
        rows = session.query(STATEMENTS["batched"][0]).all()
        return rows, session.geocode_service.stats.items

    rows, items = run(8)
    roomy_rows, roomy_items = run(10_000)
    assert rows == roomy_rows
    assert roomy_items == 164  # each distinct location once
    assert items > 2 * roomy_items


def test_confidence_avg_resolves_a_batch_at_a_time(soccer):
    """Confidence-triggered AVG reads its argument as a column, so a
    batched geocoder still sees a batch of keys per round trip."""

    def run(batch_size):
        config = EngineConfig(
            latency_mode="batched",
            batch_size=batch_size,
        )
        session = TweeQL.for_scenarios(soccer, config=config, seed=11)
        rows = session.query(
            "SELECT AVG(latitude(loc)) AS la, lang FROM twitter "
            "WHERE text CONTAINS 'goal' GROUP BY lang WINDOW CONFIDENCE 2;"
        ).all()
        return rows, session.geocode_service.stats.batch_requests

    rows, round_trips = run(256)
    row_rows, row_round_trips = run(1)
    assert rows == row_rows
    # 164 distinct locations: one round trip each at one row per batch.
    assert (round_trips, row_round_trips) == (9, 164)


if __name__ == "__main__":  # pragma: no cover - golden regeneration
    import pprint

    from repro.twitter.users import UserPopulation
    from repro.twitter.workloads import soccer_match_scenario

    soccer = soccer_match_scenario(
        seed=11, population=UserPopulation(size=1200, seed=11), intensity=0.4
    )
    pprint.pprint(
        {
            f"{name}-{batch}": measure(soccer, name, batch)
            for name in sorted(STATEMENTS)
            for batch in BATCH_SIZES
        },
        sort_dicts=False,
    )
