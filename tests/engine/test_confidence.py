"""Confidence-triggered group emission (the 'Uneven Aggregate Groups'
construct)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import VirtualClock
from repro.engine.confidence import (
    ConfidenceAggregateOperator,
    ConfidencePolicy,
    normal_halfwidth,
)
from repro.engine.types import EvalContext, batch_rows, iter_rows


@pytest.fixture()
def ctx():
    return EvalContext(clock=VirtualClock(start=0.0))


def stream(groups):
    """Interleave (time, group, value) tuples into rows."""
    return [
        {"created_at": t, "g": g, "v": v}
        for t, g, v in sorted(groups, key=lambda x: x[0])
    ]


def operator(rows, ctx, policy, batch_size=7):
    return iter_rows(ConfidenceAggregateOperator(
        batch_rows(rows, batch_size),
        group_evals=[lambda r, _c: r["g"]],
        value_eval=lambda r, _c: r["v"],
        output_items=[
            ("g", lambda r, _c: r["g"]),
            ("mean", lambda r, _c: r["__agg0"]),
        ],
        ctx=ctx,
        policy=policy,
    ))


def test_dense_group_emits_on_confidence(ctx):
    rng = random.Random(1)
    rows = stream(
        [(float(i), "tokyo", rng.gauss(0.5, 0.1)) for i in range(500)]
    )
    policy = ConfidencePolicy(ci_halfwidth=0.05, max_age_seconds=None)
    out = list(operator(rows, ctx, policy))
    confident = [r for r in out if r["emit_reason"] == "confidence"]
    assert confident
    first = confident[0]
    assert first["ci_halfwidth"] <= 0.05
    assert first["n"] >= policy.min_count
    assert first["mean"] == pytest.approx(0.5, abs=0.1)


def test_group_resets_after_emission(ctx):
    rng = random.Random(2)
    rows = stream(
        [(float(i), "tokyo", rng.gauss(0.0, 0.05)) for i in range(2000)]
    )
    policy = ConfidencePolicy(ci_halfwidth=0.02, max_age_seconds=None)
    out = list(operator(rows, ctx, policy))
    confident = [r for r in out if r["emit_reason"] == "confidence"]
    # High-rate group emits repeatedly, each time from a fresh sample.
    assert len(confident) > 3


def test_sparse_group_flushed_by_age(ctx):
    rows = stream(
        # Cape Town tweets trickle: far too few for the CI target.
        [(i * 400.0, "capetown", 0.4 + 0.2 * (i % 2)) for i in range(12)]
    )
    policy = ConfidencePolicy(
        ci_halfwidth=0.0001, max_age_seconds=1800.0, min_count=2
    )
    out = list(operator(rows, ctx, policy))
    aged = [r for r in out if r["emit_reason"] == "age"]
    assert aged
    assert aged[0]["n"] >= 2


def test_end_of_stream_flush(ctx):
    rows = stream([(1.0, "x", 1.0), (2.0, "x", 2.0)])
    policy = ConfidencePolicy(ci_halfwidth=0.001, max_age_seconds=None)
    out = list(operator(rows, ctx, policy))
    assert len(out) == 1
    assert out[0]["emit_reason"] == "eos"
    assert out[0]["mean"] == pytest.approx(1.5)


def test_null_values_skipped(ctx):
    rows = stream([(1.0, "x", None), (2.0, "x", 4.0)])
    policy = ConfidencePolicy(ci_halfwidth=0.001, max_age_seconds=None)
    out = list(operator(rows, ctx, policy))
    assert out[0]["n"] == 1
    assert out[0]["mean"] == 4.0


def test_confident_beats_fixed_window_on_freshness(ctx):
    """A dense group reaches the CI target long before a 3-hour window
    would close — the paper's argument for the construct."""
    rng = random.Random(3)
    rows = stream(
        [(float(i), "tokyo", rng.gauss(0.3, 0.1)) for i in range(5000)]
    )
    policy = ConfidencePolicy(ci_halfwidth=0.05, max_age_seconds=3 * 3600.0)
    out = list(operator(rows, ctx, policy))
    first = next(r for r in out if r["emit_reason"] == "confidence")
    emit_delay = first["created_at"] - first["group_started"]
    assert emit_delay < 3600.0  # much fresher than the fixed window


def test_policy_validation():
    with pytest.raises(ValueError):
        ConfidencePolicy(ci_halfwidth=0.0)
    with pytest.raises(ValueError):
        ConfidencePolicy(min_count=1)


def test_normal_halfwidth():
    assert normal_halfwidth(1.0, 100) == pytest.approx(0.196)
    with pytest.raises(ValueError):
        normal_halfwidth(1.0, 0)


@settings(max_examples=15, deadline=None)
@given(
    values=st.lists(
        st.tuples(
            st.sampled_from((0.0, 1.0, 45.0, 400.0)),
            st.sampled_from("abc"),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        min_size=5,
        max_size=60,
    ),
    batch_size=st.sampled_from((7, 256)),
)
def test_emission_is_batch_size_invariant(values, batch_size):
    """Age-based flushes fire on *other groups'* rows, so a batch must
    be walked row by row: any batch size emits exactly the one-row-per-
    batch sequence."""
    rows, t = [], 0.0
    for gap, group, value in values:
        t += gap
        rows.append({"created_at": t, "g": group, "v": value})
    policy = ConfidencePolicy(
        ci_halfwidth=0.2, max_age_seconds=300.0, min_count=2
    )

    def run(size):
        ctx = EvalContext(clock=VirtualClock(start=0.0))
        return list(operator(rows, ctx, policy, batch_size=size))

    assert run(batch_size) == run(1)
