"""Builtin functions and the registry."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.clock import DEFAULT_EPOCH, VirtualClock
from repro.engine.functions import MeanDevUDF, default_registry
from repro.engine.types import EvalContext
from repro.errors import UnknownFunctionError


@pytest.fixture()
def ctx():
    return EvalContext(clock=VirtualClock())


def call(name, ctx, *args):
    spec = default_registry().lookup(name)
    return spec.impl(ctx, *args)


def test_math_builtins(ctx):
    assert call("floor", ctx, 3.7) == 3
    assert call("ceil", ctx, 3.2) == 4
    assert call("round", ctx, 3.456, 2) == 3.46
    assert call("abs", ctx, -2) == 2
    assert call("sqrt", ctx, 9) == 3.0


def test_string_builtins(ctx):
    assert call("lower", ctx, "ABC") == "abc"
    assert call("upper", ctx, "abc") == "ABC"
    assert call("length", ctx, "abcd") == 4
    assert call("trim", ctx, "  x ") == "x"
    assert call("replace", ctx, "a-b", "-", "+") == "a+b"
    assert call("concat", ctx, "a", 1, "b") == "a1b"


def test_substr_one_indexed(ctx):
    assert call("substr", ctx, "abcdef", 2, 3) == "bcd"
    assert call("substr", ctx, "abcdef", 3) == "cdef"


def test_nullsafe_wrappers(ctx):
    assert call("floor", ctx, None) is None
    assert call("lower", ctx, None) is None
    assert call("substr", ctx, None, 1) is None


def test_coalesce(ctx):
    assert call("coalesce", ctx, None, None, 5, 6) == 5
    assert call("coalesce", ctx, None) is None


def test_if(ctx):
    assert call("if", ctx, True, "a", "b") == "a"
    assert call("if", ctx, 0, "a", "b") == "b"


def test_first_url(ctx):
    assert call("first_url", ctx, "go http://bit.ly/x now") == "http://bit.ly/x"
    assert call("first_url", ctx, "no links") is None


def test_hashtags(ctx):
    assert call("hashtags", ctx, "#A and #b") == ("a", "b")


def test_point(ctx):
    assert call("point", ctx, 1.0, 2.0) == (1.0, 2.0)
    assert call("point", ctx, None, 2.0) is None


def test_temporal(ctx):
    assert call("hour", ctx, DEFAULT_EPOCH) == 0
    assert call("minute", ctx, DEFAULT_EPOCH + 90) == 1
    assert call("day", ctx, DEFAULT_EPOCH) == 12
    assert call("format_time", ctx, DEFAULT_EPOCH) == "2011-06-12 00:00:00"


def test_now_reads_stream_time(ctx):
    ctx.stream_time = 123.0
    assert call("now", ctx) == 123.0


def test_sentiment_uses_service(ctx):
    ctx.services["sentiment"] = lambda text: 1 if "good" in text else -1
    assert call("sentiment", ctx, "good day") == 1
    assert call("sentiment", ctx, "bad day") == -1
    assert call("sentiment", ctx, None) is None


class Resolver:
    """A managed-service stand-in: ``resolve`` maps ``answer`` over a key
    column, NULL keys to NULL, and ignores the calling plan's context."""

    def __init__(self, answer):
        self.answer = answer
        self.keys = []

    def resolve(self, keys, ctx=None):
        self.keys.extend(keys)
        return [None if key is None else self.answer(key) for key in keys]


def test_latitude_longitude_use_geocode_service(ctx):
    ctx.services["geocode"] = geocode = Resolver(lambda loc: (42.0, -71.0))
    assert call("latitude", ctx, "Boston") == 42.0
    assert call("longitude", ctx, "Boston") == -71.0
    assert call("latitude", ctx, "") is None
    assert geocode.keys == ["Boston", "Boston", None]  # blank → NULL key
    ctx.services["geocode"] = Resolver(lambda loc: None)
    assert call("latitude", ctx, "nowhere") is None


def test_missing_service_raises_clear_error(ctx):
    with pytest.raises(KeyError) as excinfo:
        call("sentiment", ctx, "text")
    assert "sentiment" in str(excinfo.value)


def test_named_entities(ctx):
    ctx.services["entities"] = Resolver(lambda text: ["obama/Person"])
    assert call("named_entities", ctx, "obama spoke") == ("obama/Person",)
    # A failed (NULL) service answer is NULL, like latitude's.
    ctx.services["entities"] = Resolver(lambda text: None)
    assert call("named_entities", ctx, "obama spoke") is None


def test_registry_lookup_unknown():
    with pytest.raises(UnknownFunctionError):
        default_registry().lookup("definitely_not_a_function")


def test_registry_register_and_replace():
    registry = default_registry()
    registry.register("twice", lambda _ctx, x: x * 2)
    assert registry.lookup("twice").impl(None, 4) == 8
    # Intentional override requires the explicit flag.
    registry.register("twice", lambda _ctx, x: x * 3, replace=True)
    assert registry.lookup("twice").impl(None, 4) == 12


def test_registry_register_guards_accidental_shadowing():
    registry = default_registry()
    with pytest.raises(ValueError, match="already registered"):
        registry.register("sentiment", lambda _ctx, s: 0)
    # Name matching is case-insensitive, so this shadows too.
    registry.register("twice", lambda _ctx, x: x * 2)
    with pytest.raises(ValueError, match="replace=True"):
        registry.register("TWICE", lambda _ctx, x: x * 3)
    assert registry.lookup("twice").impl(None, 4) == 8


def test_registry_names_sorted():
    names = default_registry().names()
    assert list(names) == sorted(names)
    assert "sentiment" in names


def test_high_latency_flags():
    registry = default_registry()
    assert registry.lookup("latitude").high_latency
    assert registry.lookup("named_entities").high_latency
    assert not registry.lookup("sentiment").high_latency


def test_meandev_scores_spikes(ctx):
    udf = MeanDevUDF(alpha=0.2)
    for _ in range(20):
        udf(ctx, 10.0)
    spike_score = udf(ctx, 100.0)
    assert spike_score > 2.0
    calm_score = MeanDevUDF()(ctx, 10.0)
    assert calm_score == 0.0


def test_meandev_null_passthrough(ctx):
    assert MeanDevUDF()(ctx, None) is None


#: Runs the statement in a child interpreter, so that a ``round`` whose
#: cost runs away fails the test on its timeout instead of hanging it.
_ROUND_SCRIPT = """
import json
from repro import EngineConfig, TweeQL

values = [0, 7, -49, 1234567, -98765, 10**40, True, 2.5, -3.75e300]
out = []
for batch_size in (1, 256):
    session = TweeQL(config=EngineConfig(batch_size=batch_size))
    session.register_source(
        "s",
        lambda: iter(
            [{"created_at": float(i), "followers": v} for i, v in enumerate(values)]
        ),
        ("created_at", "followers"),
    )
    rows = session.query(
        "SELECT round(followers, -10000000000) AS r FROM s;"
    ).all()
    out.append([[type(row["r"]).__name__, repr(row["r"])] for row in rows])
print(json.dumps(out))
"""


def test_round_with_a_huge_negative_ndigits_returns_at_once():
    """Rounding an integer to -10**10 digits is 0 — the value Python's
    ``round`` gives, were it to finish computing ``10**(10**10)``; for a
    float Python returns at once, and the engine returns the same."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [sys.executable, "-c", _ROUND_SCRIPT],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    expected = [["int", "0"]] * 7 + [
        ["float", repr(round(2.5, -10**10))],
        ["float", repr(round(-3.75e300, -10**10))],
    ]
    assert json.loads(done.stdout) == [expected, expected]
