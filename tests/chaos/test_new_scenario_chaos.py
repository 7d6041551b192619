"""Chaos equivalence for the fidelity harness's high-stress scenarios.

The same property the core chaos suite pins, swept over the three new
generators (election night, breaking-news cascade, bot flood): a run
under a deterministic fault plan with a covering retry budget must emit
**exactly** the rows of the fault-free baseline — at batch sizes 1 and
256.
"""

from __future__ import annotations

import pytest

from repro import EngineConfig, TweeQL
from repro.engine.resilience import FaultPlan, ServiceFaultModel, StreamDrop

pytestmark = pytest.mark.chaos

SEED = 11
GRID = [1, 256]

#: Scenario fixture name → the query its chaos sweep runs. Keyword
#: filters keep the geocoded row counts in the hundreds.
SCENARIO_SQL = {
    "election_small": (
        "SELECT sentiment(text) AS s, latitude(loc) AS lat, text "
        "FROM twitter WHERE text contains 'precinct';"
    ),
    "cascade_small": (
        "SELECT sentiment(text) AS s, latitude(loc) AS lat, text "
        "FROM twitter WHERE text contains 'evacuation';"
    ),
    "botflood_small": (
        "SELECT sentiment(text) AS s, latitude(loc) AS lat, text "
        "FROM twitter WHERE text contains 'giveaway';"
    ),
}


def fault_plan() -> FaultPlan:
    return FaultPlan(
        seed=307,
        services={
            "*": ServiceFaultModel(
                failure_rate=0.2,
                max_burst=2,
                retry_after_seconds=0.4,
                latency_spike_rate=0.1,
            )
        },
        stream_drops=(
            StreamDrop(after_delivered=50, gap=10),
            StreamDrop(after_delivered=250, gap=5),
        ),
    )


def run_rows(scenario, config=None, sql=None):
    session = TweeQL.for_scenarios(scenario, config=config, seed=SEED)
    handle = session.query(sql)
    rows = [
        {k: v for k, v in row.items() if not k.startswith("__")}
        for row in handle
    ]
    handle.close()
    return rows, session


@pytest.fixture(
    scope="module", params=sorted(SCENARIO_SQL), ids=lambda name: name.removesuffix("_small")
)
def scenario_case(request):
    """(scenario, sql, fault-free baseline rows) per new generator."""
    scenario = request.getfixturevalue(request.param)
    sql = SCENARIO_SQL[request.param]
    baseline, _session = run_rows(scenario, sql=sql)
    assert baseline, f"{request.param} baseline produced no rows"
    return scenario, sql, baseline


@pytest.mark.parametrize("batch_size", GRID)
def test_faults_invisible_across_the_grid(scenario_case, batch_size):
    scenario, sql, baseline = scenario_case
    config = EngineConfig(
        retries=3,
        fault_plan=fault_plan(),
        batch_size=batch_size,
    )
    rows, session = run_rows(scenario, config=config, sql=sql)
    assert rows == baseline
    # The sweep actually exercised the fault plan, not a quiet run.
    injector = session.geocode_service.fault_injector
    assert any(kind == "fail" for _k, _a, kind in injector.trace)
    assert session.geocode_resilient.resilience.giveups == 0
