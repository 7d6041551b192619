"""A shared scan is deterministic: same inputs, same everything.

Service-backed tenants advance the session's virtual clock and share the
service caches, so any scheduling freedom between the scan and the
tenant bodies would show up as different stall accounting, clock
readings or trace timestamps between two identical runs. The group runs
on its consumers' thread in consumer order, so two runs must agree on
every byte — in each latency mode that routes calls differently.
"""

from __future__ import annotations

import json

import pytest

from repro import EngineConfig, TweeQL
from repro.obs.export import chrome_trace

from tests.multitenant.conftest import SEED, clean

#: Three tenants on the geocoder and the classifier: tenant-side
#: latitude / longitude / sentiment calls, and one fanout-side geocoding
#: conjunct so the fanout's own service mirror moves too.
SERVICE_SQLS = [
    "SELECT latitude(loc) AS la, text FROM twitter WHERE text contains 'goal';",
    "SELECT longitude(loc) AS lo FROM twitter "
    "WHERE text contains 'goal' AND latitude(loc) > -90.0;",
    "SELECT sentiment(text) AS s, longitude(loc) AS lo FROM twitter "
    "WHERE text contains 'tevez';",
]


def _run(scenario, mode):
    config = EngineConfig(latency_mode=mode, tracing=True)
    session = TweeQL.for_scenarios(
        scenario, config=config, delivery_ratio=1.0, seed=SEED
    )
    group = session.shared()
    handles = [group.query(sql) for sql in SERVICE_SQLS]
    try:
        rows = [clean(handle.all()) for handle in handles]
    finally:
        group.close()
    traces = [("fanout", group.tracer)] + [
        (f"tenant-{index}", handle.tracer)
        for index, handle in enumerate(handles)
    ]
    return {
        "rows": rows,
        "service_stats": [handle.service_stats for handle in handles],
        "fanout_service_stats": {
            name: stats.as_dict()
            for name, stats in group.fanout_service_stats.items()
        },
        "clock": session.clock.now,
        "trace": json.dumps(chrome_trace(traces), sort_keys=True).encode(),
    }


@pytest.mark.parametrize("mode", ["blocking", "async", "batched"])
def test_identical_shared_runs_agree_on_every_byte(mini_soccer, mode):
    first = _run(mini_soccer, mode)
    second = _run(mini_soccer, mode)
    assert all(first["rows"]), "every tenant should produce rows"
    assert first["fanout_service_stats"]["geocode"]["calls"] > 0
    for key in first:
        assert first[key] == second[key], f"{mode}: {key} differs"
