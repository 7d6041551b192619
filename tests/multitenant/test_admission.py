"""Admission control: typed TQL4xx rejections and group lifecycle rules."""

from __future__ import annotations

import dataclasses

import pytest

from repro import EngineConfig
from repro.errors import AdmissionError, PlanError, UnknownSourceError

from tests.multitenant.conftest import QUERY_POOL


def test_capacity_rejection_is_tql401(shared_session):
    group = shared_session.shared(max_tenants=2)
    group.query(QUERY_POOL[0])
    group.query(QUERY_POOL[1])
    with pytest.raises(AdmissionError) as err:
        group.query(QUERY_POOL[2])
    assert err.value.code == "TQL401"
    assert "capacity" in str(err.value)
    assert "TweeQL.shared(max_tenants=" in str(err.value)
    assert group.stats.admitted == 2
    assert group.stats.rejected == 1
    group.close()
    default = shared_session.shared()
    assert default.max_tenants == 16
    default.close()


@pytest.mark.parametrize(
    "sql, needle",
    [
        (
            "SELECT text FROM twitter WHERE created_at < now();",
            "now()",
        ),
        (
            "SELECT text FROM twitter INTO STREAM shouts;",
            "INTO STREAM",
        ),
    ],
)
def test_unshareable_statements_are_tql402(shared_session, sql, needle):
    group = shared_session.shared()
    with pytest.raises(AdmissionError) as err:
        group.query(sql)
    assert err.value.code == "TQL402"
    assert needle in str(err.value)
    group.close()


def test_foreign_source_is_tql402(shared_session):
    shared_session.register_source("logs", lambda: iter(()), ("text",))
    group = shared_session.shared()
    with pytest.raises(AdmissionError) as err:
        group.query("SELECT text FROM logs;")
    assert err.value.code == "TQL402"
    assert "logs" in str(err.value)
    group.close()


def test_late_admission_is_tql403(shared_session):
    group = shared_session.shared()
    handle = group.query(QUERY_POOL[4])
    handle.all()
    with pytest.raises(AdmissionError) as err:
        group.query(QUERY_POOL[0])
    assert err.value.code == "TQL403"
    assert "already streaming" in str(err.value)
    group.close()


def test_closed_group_is_tql403(shared_session):
    group = shared_session.shared()
    group.close()
    with pytest.raises(AdmissionError) as err:
        group.query(QUERY_POOL[0])
    assert err.value.code == "TQL403"
    assert "closed" in str(err.value)


def test_every_rejection_counts(shared_session):
    """The rejected counter moves once per AdmissionError, whatever kind."""
    group = shared_session.shared(max_tenants=1)
    group.query(QUERY_POOL[0])
    for sql in (QUERY_POOL[1], QUERY_POOL[2]):
        with pytest.raises(AdmissionError):
            group.query(sql)
    assert group.stats.rejected == 2
    group.close()


def test_analyzer_errors_keep_their_diagnostics(shared_session):
    """Non-admission validation still raises the analyzer's typed error,
    not an AdmissionError, and admits nothing."""
    group = shared_session.shared()
    with pytest.raises(PlanError) as err:
        group.query("SELECT bogus_column FROM twitter;")
    assert not isinstance(err.value, AdmissionError)
    assert group.stats.admitted == 0
    group.close()


def test_each_tenant_is_analyzed_once(shared_session, monkeypatch):
    """Admitting a tenant analyzes its statement once, as a plain
    ``session.query`` does."""
    from repro.sql import analysis

    calls = []
    analyze = analysis.analyze_statement

    def counted(statement, *args, **kwargs):
        calls.append(statement.to_sql())
        return analyze(statement, *args, **kwargs)

    monkeypatch.setattr(analysis, "analyze_statement", counted)
    shared_session.query(QUERY_POOL[1]).close()
    assert len(calls) == 1
    calls.clear()
    group = shared_session.shared()
    for sql in QUERY_POOL[:3]:
        group.query(sql)
    assert len(calls) == 3 and len(set(calls)) == 3
    group.close()


def test_group_parameter_validation(shared_session):
    with pytest.raises(ValueError):
        shared_session.shared(max_tenants=0)
    with pytest.raises(UnknownSourceError):
        shared_session.shared(source="nope")


def test_the_backpressure_knobs_are_gone(shared_session):
    """The shared scan runs on its consumers' thread, so nothing can lag
    behind it: no buffer bound, no stall budget, no eviction."""
    with pytest.raises(TypeError):
        EngineConfig(shared_buffer_batches=4)
    with pytest.raises(TypeError):
        EngineConfig(shared_stall_seconds=1.0)
    with pytest.raises(TypeError):
        shared_session.shared(stall_seconds=1.0)
    with pytest.raises(TypeError):
        shared_session.shared(buffer_batches=4)
    fields = {f.name for f in dataclasses.fields(EngineConfig)}
    assert len(fields) == 20
    assert not {"shared_buffer_batches", "shared_stall_seconds"} & fields
    # Knobs no caller set are module constants or defaults instead (the
    # group's capacity is ``TweeQL.shared(max_tenants=...)``).
    assert not {
        "sample_rate", "sample_limit", "shared_max_tenants",
        "breaker_threshold", "backoff_base_seconds", "backoff_cap_seconds",
    } & fields


def test_admission_error_is_a_plan_error():
    """Callers catching PlanError keep working when groups reject."""
    assert issubclass(AdmissionError, PlanError)


def test_empty_group_refuses_to_start(shared_session):
    from repro.errors import ExecutionError

    group = shared_session.shared()
    with pytest.raises(ExecutionError):
        group.start()
    group.close()
