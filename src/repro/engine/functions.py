"""Scalar functions and the UDF registry.

The paper: "TweeQL … facilitates user-defined functions for deeper
processing of tweets and tweet text" with three flavors it calls out
explicitly — a classification framework (sentiment), web-service UDFs
(geocoding, OpenCalais entities), and stateful UDFs (TwitInfo's peak
detector). The registry models all three:

- ``scalar``: pure functions of their arguments. The engine calls one once
  per row per call site, in row order within the site — possibly a whole
  batch at a time (:func:`~repro.engine.expressions.compile_vector_expr`),
  so the order of calls *across* call sites is not row-major,
- ``stateful``: a factory is instantiated per *call site* per query, so the
  UDF can carry running state across tuples (the peak detector),
- ``high_latency``: the function's cost is a remote round trip. The
  web-service builtins (``latitude``, ``longitude``, ``named_entities``)
  resolve a whole column of keys per batch through the caching/batching/
  async machinery in :mod:`repro.engine.latency`; any other high-latency
  function is called once per row.

Functions receive already-evaluated argument values plus the
:class:`~repro.engine.types.EvalContext` and must treat ``None`` as SQL
NULL (return ``None`` rather than raising).
"""

from __future__ import annotations

import datetime as dt
import math
import re
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.clock import format_timestamp
from repro.engine.types import EvalContext
from repro.errors import UnknownFunctionError
from repro.geo.gazetteer import default_gazetteer


@dataclass(frozen=True)
class FunctionSpec:
    """Registry entry for one function.

    Attributes:
        name: lowercase function name as used in queries.
        impl: for scalars, ``impl(ctx, *args) -> value``; for stateful
            functions, a zero-argument factory returning a callable with
            that signature.
        stateful: instantiate ``impl()`` once per call site per query.
        high_latency: the call is a remote round trip: it runs on the
            column path only through a web-service builtin's column form
            (see :func:`service_column`), else once per row.
        service: name of the context service the implementation uses
            (documentation).
        arg_types: declared parameter types for the static analyzer, one
            of ``"boolean" | "integer" | "float" | "number" | "string" |
            "point" | "list" | "any"`` per positional slot. ``None`` means
            untyped — the analyzer skips signature checks entirely.
        return_type: declared result type (same vocabulary), or ``None``
            for unknown.
        min_args: minimum argument count when trailing parameters are
            optional; defaults to ``len(arg_types)``.
        variadic: the last ``arg_types`` slot repeats (``concat``,
            ``coalesce``); no upper bound on arity.
    """

    name: str
    impl: Callable[..., Any]
    stateful: bool = False
    high_latency: bool = False
    service: str | None = None
    arg_types: tuple[str, ...] | None = None
    return_type: str | None = None
    min_args: int | None = None
    variadic: bool = False


class FunctionRegistry:
    """Named collection of scalar/stateful UDFs.

    Sessions start from :func:`default_registry` and may add their own via
    :meth:`register` — the extensibility story the demo invited the audience
    to try ("build their own UDFs for more advanced processing").
    """

    def __init__(self) -> None:
        self._specs: dict[str, FunctionSpec] = {}

    def register(
        self,
        name: str,
        impl: Callable[..., Any],
        stateful: bool = False,
        high_latency: bool = False,
        service: str | None = None,
        arg_types: tuple[str, ...] | None = None,
        return_type: str | None = None,
        min_args: int | None = None,
        variadic: bool = False,
        replace: bool = False,
    ) -> None:
        """Register a function under ``name`` (lowercased).

        Neither ``stateful`` nor ``high_latency`` makes it a *scalar*: it
        must be a pure function of its arguments, because the engine may
        call it a batch at a time (see the module docstring). A function
        that keeps state or whose call order matters must say so.

        Re-registering an existing name requires ``replace=True``;
        otherwise a :class:`ValueError` flags the accidental shadowing
        (silently clobbering a builtin like ``sentiment`` turns every
        query using it into a different query).
        """
        key = name.lower()
        if key in self._specs and not replace:
            raise ValueError(
                f"function {key!r} is already registered; "
                "pass replace=True to override it"
            )
        self._specs[key] = FunctionSpec(
            name=key,
            impl=impl,
            stateful=stateful,
            high_latency=high_latency,
            service=service,
            arg_types=arg_types,
            return_type=return_type,
            min_args=min_args,
            variadic=variadic,
        )

    def lookup(self, name: str) -> FunctionSpec:
        """Fetch a spec; raises :class:`UnknownFunctionError` when missing,
        with a did-you-mean hint when a registered name is close."""
        try:
            return self._specs[name.lower()]
        except KeyError:
            import difflib

            matches = difflib.get_close_matches(
                name.lower(), self._specs, n=1, cutoff=0.6
            )
            hint = f"did you mean {matches[0]!r}?" if matches else None
            raise UnknownFunctionError(name, hint) from None

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._specs

    def names(self) -> tuple[str, ...]:
        """All registered names, sorted."""
        return tuple(sorted(self._specs))


# ---------------------------------------------------------------------------
# Builtin scalar functions
# ---------------------------------------------------------------------------


def _nullsafe(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Wrap a pure function so any NULL argument yields NULL."""

    def wrapper(_ctx: EvalContext, *args: Any) -> Any:
        if any(a is None for a in args):
            return None
        return fn(*args)

    wrapper.nullsafe_inner = fn  # type: ignore[attr-defined]
    return wrapper


def nullsafe_inner(impl: Callable[..., Any]) -> Callable[..., Any] | None:
    """The context-free function behind a NULL-propagating builtin.

    For an implementation that is exactly "any argument NULL → NULL, else
    ``fn(*args)``" this is ``fn``, so a whole-column caller can inline
    the NULL test and skip the wrapper's per-cell frame; None for
    everything else (user UDFs included, whatever decorators they wear).
    """
    return getattr(impl, "nullsafe_inner", None)


def _fn_substr(_ctx: EvalContext, text: Any, start: Any, length: Any = None) -> Any:
    if text is None or start is None:
        return None
    begin = max(0, int(start) - 1)  # SQL substr is 1-indexed
    if length is None:
        return str(text)[begin:]
    return str(text)[begin : begin + int(length)]


def _round(x: Any, ndigits: Any = 0) -> Any:
    """Python's ``round(x, ndigits)``, in time bounded by the size of ``x``.

    An integer rounded to ``-k`` digits costs ``10**k``: a huge negative
    ``ndigits`` would never return. Once ``10**k`` exceeds ``2 * |x|`` the
    result is 0, so clamping ``k`` at ``(b + 1) // 3 + 1`` for ``b =
    x.bit_length()`` — ``10**k > 2**(b + 1) > 2 * |x|`` there — gives
    Python's value exactly.
    """
    nd = int(ndigits)
    if isinstance(x, int) and nd < 0:
        nd = max(nd, -((x.bit_length() + 1) // 3 + 1))
    return round(x, nd)


def _fn_coalesce(_ctx: EvalContext, *args: Any) -> Any:
    for value in args:
        if value is not None:
            return value
    return None


def _fn_if(_ctx: EvalContext, condition: Any, then: Any, otherwise: Any) -> Any:
    return then if condition else otherwise


# --- web-service UDFs -------------------------------------------------------


def _service_udf(
    service: str, pick: Callable[[Any], Any]
) -> Callable[..., Any]:
    """A web-service UDF, written once over a column of keys.

    The column form normalises each key (NULL or blank → NULL, else
    ``str``), resolves the whole column with one
    :meth:`~repro.engine.latency.ManagedCall.resolve` on the context's
    ``service`` (a shared-scan tenant's context carries its proxy there),
    and maps ``pick`` over the answers, NULL where the service gave NULL.
    The returned scalar implementation is the one-key column.
    """

    def column(ctx: EvalContext, values: list[Any]) -> list[Any]:
        keys = [
            None if value is None or not str(value).strip() else str(value)
            for value in values
        ]
        return [
            None if answer is None else pick(answer)
            for answer in ctx.service(service).resolve(keys)
        ]

    def scalar(ctx: EvalContext, value: Any) -> Any:
        return column(ctx, [value])[0]

    scalar.column = column  # type: ignore[attr-defined]
    return scalar


def service_column(
    impl: Callable[..., Any],
) -> Callable[[EvalContext, list[Any]], list[Any]] | None:
    """The whole-column form of a web-service builtin (see
    :func:`_service_udf`); None for every other implementation."""
    return getattr(impl, "column", None)


#: Geocode a free-text location's latitude / longitude via the geocoding
#: service.
_fn_latitude = _service_udf("geocode", lambda coords: coords[0])
_fn_longitude = _service_udf("geocode", lambda coords: coords[1])
#: Named entities via the simulated OpenCalais service.
_fn_named_entities = _service_udf("entities", tuple)


def _fn_sentiment(ctx: EvalContext, text: Any) -> int | None:
    """Classify tweet text sentiment: +1 positive, -1 negative, 0 neutral."""
    if text is None:
        return None
    return ctx.service("sentiment")(str(text))


def _fn_sentiment_score(ctx: EvalContext, text: Any) -> float | None:
    """Signed classifier confidence in [-1, 1] (negative → negative class)."""
    if text is None:
        return None
    return ctx.service("sentiment_score")(str(text))


def _fn_extract(
    ctx: EvalContext, text: Any, pattern: Any, group: Any = 1
) -> str | None:
    """Regex field extraction — the paper's "extract fields of interest
    from the text". Returns the requested capture group (1 by default; 0 is
    the whole match), or NULL when the pattern does not match.

    Patterns are compiled once and cached per query via ``ctx.state``.
    """
    if text is None or pattern is None:
        return None
    cache = ctx.state.setdefault("__extract_patterns__", {})
    compiled = cache.get(pattern)
    if compiled is None:
        try:
            compiled = re.compile(str(pattern), re.IGNORECASE)
        except re.error:
            return None
        cache[pattern] = compiled
    match = compiled.search(str(text))
    if match is None:
        return None
    index = int(group)
    if index > compiled.groups:
        return None
    return match.group(index)


def _fn_place_name(ctx: EvalContext, lat: Any, lon: Any) -> str | None:
    """Reverse geocoding: nearest gazetteer city for a coordinate pair."""
    if lat is None or lon is None:
        return None
    return default_gazetteer().nearest(float(lat), float(lon)).name


# --- tweet helpers ----------------------------------------------------------

_URL_RE = re.compile(r"https?://\S+")
_HASHTAG_RE = re.compile(r"#(\w+)")


def _fn_first_url(_ctx: EvalContext, text: Any) -> str | None:
    if text is None:
        return None
    match = _URL_RE.search(str(text))
    return match.group(0).rstrip(".,;!?)") if match else None


def _fn_hashtags(_ctx: EvalContext, text: Any) -> tuple[str, ...] | None:
    if text is None:
        return None
    return tuple(m.group(1).lower() for m in _HASHTAG_RE.finditer(str(text)))


def _fn_point(_ctx: EvalContext, lat: Any, lon: Any) -> tuple[float, float] | None:
    if lat is None or lon is None:
        return None
    return (float(lat), float(lon))


# --- temporal helpers --------------------------------------------------------


def _fn_hour(_ctx: EvalContext, timestamp: Any) -> int | None:
    if timestamp is None:
        return None
    return dt.datetime.fromtimestamp(float(timestamp), tz=dt.timezone.utc).hour


def _fn_minute(_ctx: EvalContext, timestamp: Any) -> int | None:
    if timestamp is None:
        return None
    return dt.datetime.fromtimestamp(float(timestamp), tz=dt.timezone.utc).minute


def _fn_day(_ctx: EvalContext, timestamp: Any) -> int | None:
    if timestamp is None:
        return None
    return dt.datetime.fromtimestamp(float(timestamp), tz=dt.timezone.utc).day


def _fn_format_time(_ctx: EvalContext, timestamp: Any) -> str | None:
    if timestamp is None:
        return None
    return format_timestamp(float(timestamp))


def _fn_now(ctx: EvalContext) -> float:
    """Current *stream* time (last tweet's timestamp)."""
    return ctx.stream_time


# ---------------------------------------------------------------------------
# Stateful UDF example: streaming mean deviation (TwitInfo's peak primitive)
# ---------------------------------------------------------------------------


class MeanDevUDF:
    """Streaming mean/mean-deviation tracker.

    ``meandev(x)`` returns how many mean deviations ``x`` sits above the
    running mean *before* updating the running statistics with ``x`` — the
    core signal TwitInfo's peak detection thresholds (see
    :mod:`repro.twitinfo.peaks` for the full algorithm with hysteresis).
    Exponentially weighted with update factor ``alpha``.
    """

    def __init__(self, alpha: float = 0.125) -> None:
        self._alpha = alpha
        self._mean: float | None = None
        self._meandev: float | None = None

    def __call__(self, _ctx: EvalContext, value: Any, alpha: Any = None) -> float | None:
        if value is None:
            return None
        x = float(value)
        if alpha is not None:
            self._alpha = float(alpha)
        if self._mean is None or self._meandev is None or self._meandev == 0.0:
            score = 0.0
        else:
            score = (x - self._mean) / self._meandev
        # Update running statistics (TCP-RTT-style EWMA, as in TwitInfo).
        if self._mean is None:
            self._mean = x
            self._meandev = abs(x) / 2 if x else 1.0
        else:
            deviation = abs(x - self._mean)
            self._meandev = (
                self._alpha * deviation + (1 - self._alpha) * (self._meandev or 1.0)
            )
            self._mean = self._alpha * x + (1 - self._alpha) * self._mean
        return score


def default_registry() -> FunctionRegistry:
    """The builtin function set every session starts from."""
    registry = FunctionRegistry()

    # Math / string scalars.
    registry.register(
        "floor", _nullsafe(math.floor),
        arg_types=("number",), return_type="integer",
    )
    registry.register(
        "ceil", _nullsafe(math.ceil),
        arg_types=("number",), return_type="integer",
    )
    registry.register(
        "round", _nullsafe(_round),
        arg_types=("number", "integer"), return_type="number", min_args=1,
    )
    registry.register(
        "abs", _nullsafe(abs), arg_types=("number",), return_type="number"
    )
    registry.register(
        "sqrt", _nullsafe(math.sqrt), arg_types=("number",), return_type="float"
    )
    registry.register(
        "lower", _nullsafe(lambda s: str(s).lower()),
        arg_types=("string",), return_type="string",
    )
    registry.register(
        "upper", _nullsafe(lambda s: str(s).upper()),
        arg_types=("string",), return_type="string",
    )
    registry.register(
        "length", _nullsafe(lambda s: len(str(s))),
        arg_types=("string",), return_type="integer",
    )
    registry.register(
        "trim", _nullsafe(lambda s: str(s).strip()),
        arg_types=("string",), return_type="string",
    )
    registry.register(
        "replace", _nullsafe(lambda s, a, b: str(s).replace(str(a), str(b))),
        arg_types=("string", "string", "string"), return_type="string",
    )
    registry.register(
        "concat", _nullsafe(lambda *parts: "".join(str(p) for p in parts)),
        arg_types=("any",), return_type="string", min_args=0, variadic=True,
    )
    registry.register(
        "substr", _fn_substr,
        arg_types=("string", "integer", "integer"), return_type="string",
        min_args=2,
    )
    registry.register(
        "coalesce", _fn_coalesce,
        arg_types=("any",), return_type="any", min_args=1, variadic=True,
    )
    registry.register(
        "if", _fn_if,
        arg_types=("any", "any", "any"), return_type="any",
    )

    # Tweet helpers.
    registry.register(
        "first_url", _fn_first_url, arg_types=("string",), return_type="string"
    )
    registry.register(
        "hashtags", _fn_hashtags, arg_types=("string",), return_type="list"
    )
    registry.register(
        "point", _fn_point,
        arg_types=("number", "number"), return_type="point",
    )
    registry.register(
        "extract", _fn_extract,
        arg_types=("string", "string", "integer"), return_type="string",
        min_args=2,
    )
    registry.register(
        "place_name", _fn_place_name,
        arg_types=("number", "number"), return_type="string",
    )

    # Temporal.
    registry.register(
        "hour", _fn_hour, arg_types=("number",), return_type="integer"
    )
    registry.register(
        "minute", _fn_minute, arg_types=("number",), return_type="integer"
    )
    registry.register(
        "day", _fn_day, arg_types=("number",), return_type="integer"
    )
    registry.register(
        "format_time", _fn_format_time,
        arg_types=("number",), return_type="string",
    )
    registry.register("now", _fn_now, arg_types=(), return_type="float")

    # Classification framework.
    registry.register(
        "sentiment", _fn_sentiment, service="sentiment",
        arg_types=("string",), return_type="integer",
    )
    registry.register(
        "sentiment_score", _fn_sentiment_score, service="sentiment_score",
        arg_types=("string",), return_type="float",
    )

    # Web-service UDFs (high latency).
    registry.register(
        "latitude", _fn_latitude, high_latency=True, service="geocode",
        arg_types=("string",), return_type="float",
    )
    registry.register(
        "longitude", _fn_longitude, high_latency=True, service="geocode",
        arg_types=("string",), return_type="float",
    )
    registry.register(
        "named_entities", _fn_named_entities, high_latency=True,
        service="entities", arg_types=("string",), return_type="list",
    )

    # Stateful.
    registry.register(
        "meandev", MeanDevUDF, stateful=True,
        arg_types=("number", "float"), return_type="float", min_args=1,
    )

    return registry


__all__ = [
    "FunctionSpec",
    "FunctionRegistry",
    "MeanDevUDF",
    "default_registry",
]
