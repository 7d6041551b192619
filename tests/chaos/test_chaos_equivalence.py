"""The tentpole property: faults + retries are invisible in the output.

A retry budget covering the fault plan's worst burst (``retries >=
max_burst``) plus auto-reconnecting streams means every service key
eventually resolves to its true value and every gap tweet is recovered —
so a faulted run must emit **exactly** the rows of the fault-free
baseline, at every batch size. Faults are keyed on request content,
never arrival order, which is what makes the property hold across
execution schedules.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import EngineConfig
from repro.engine.resilience import FaultPlan, ServiceFaultModel, StreamDrop

pytestmark = pytest.mark.chaos

#: The acceptance grid: row-at-a-time and large batches.
GRID = [1, 256]


def faulted_config(plan: FaultPlan, batch_size: int) -> EngineConfig:
    return EngineConfig(
        retries=3,  # covers every plan's max_burst (<= 2 below)
        fault_plan=plan,
        batch_size=batch_size,
    )


@pytest.fixture(scope="module")
def baseline(small_chatter):
    """Fault-free reference rows, computed once."""
    from repro import TweeQL

    from .conftest import CHAOS_SQL, SEED

    session = TweeQL.for_scenarios(small_chatter, seed=SEED)
    handle = session.query(CHAOS_SQL)
    rows = [
        {k: v for k, v in row.items() if not k.startswith("__")}
        for row in handle
    ]
    handle.close()
    assert rows, "baseline produced no rows — the scenario is broken"
    return rows


@pytest.mark.parametrize("batch_size", GRID)
def test_fixed_plan_equivalence_across_the_grid(
    run_rows, fault_plan, baseline, batch_size
):
    rows, session = run_rows(config=faulted_config(fault_plan, batch_size))
    assert rows == baseline
    # The run was actually exercised: faults were injected and retried.
    injector = session.geocode_service.fault_injector
    assert any(kind == "fail" for _k, _a, kind in injector.trace)
    resilient = session.geocode_resilient
    assert resilient.resilience.recovered > 0
    assert resilient.resilience.giveups == 0


@pytest.mark.parametrize("latency_mode", ["blocking", "batched", "async"])
def test_fixed_plan_equivalence_across_latency_modes(
    run_rows, fault_plan, baseline, latency_mode
):
    config = EngineConfig(
        retries=3, fault_plan=fault_plan, latency_mode=latency_mode
    )
    rows, _session = run_rows(config=config)
    assert rows == baseline


def test_without_retries_faults_degrade_to_null(run_rows, fault_plan):
    """The contrast case: no retry budget means injected failures surface
    as NULLs (graceful degradation), so the output *differs* from the
    baseline — proving the equivalence above is the retry layer's doing."""
    degraded, session = run_rows(
        config=EngineConfig(retries=0, fault_plan=fault_plan)
    )
    assert any(kind == "fail" for _k, _a, kind in
               session.geocode_service.fault_injector.trace)
    null_lats = sum(1 for row in degraded if row["lat"] is None)
    clean, _ = run_rows(config=None)
    baseline_nulls = sum(1 for row in clean if row["lat"] is None)
    assert null_lats > baseline_nulls


plans = st.builds(
    FaultPlan,
    seed=st.integers(0, 2**16),
    services=st.fixed_dictionaries(
        {
            "*": st.builds(
                ServiceFaultModel,
                failure_rate=st.floats(0.05, 0.3),
                max_burst=st.integers(1, 2),
                retry_after_seconds=st.sampled_from([None, 0.5]),
                latency_spike_rate=st.floats(0.0, 0.2),
            )
        }
    ),
    stream_drops=st.lists(
        st.builds(
            StreamDrop,
            after_delivered=st.integers(0, 300),
            gap=st.integers(0, 25),
        ),
        min_size=1,
        max_size=3,
    ).map(tuple),
)


@pytest.mark.slow
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(plan=plans, batch_size=st.sampled_from(GRID))
def test_generated_plans_preserve_the_baseline(
    run_rows, baseline, plan, batch_size
):
    rows, _session = run_rows(config=faulted_config(plan, batch_size))
    assert rows == baseline
