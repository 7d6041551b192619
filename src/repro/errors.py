"""Exception hierarchy for the TweeQL/TwitInfo reproduction.

All library-raised exceptions derive from :class:`TweeQLError` so callers can
catch one base class at the API boundary.  Subsystems refine it:

- :class:`ParseError` and :class:`LexError` for the SQL front end,
- :class:`PlanError` and :class:`ExecutionError` for the engine,
- :class:`SanitizerError` for runtime invariant violations (``TWEEQL_SAN``),
- :class:`StreamError` for the simulated Twitter API,
- :class:`ServiceError` for simulated remote web services,
- :class:`GeocodeError` for geocoding lookups.
"""

from __future__ import annotations

from typing import Any


class TweeQLError(Exception):
    """Base class for every error raised by this library.

    Attributes:
        code: stable diagnostic code (``TQL…``) when the error came through
            the static analyzer, else None. See ``docs/ANALYSIS.md``.
        diagnostic: the full :class:`repro.sql.analysis.Diagnostic` record
            (with source span and hint) when available.
    """

    code: str | None = None
    diagnostic: Any = None


class LexError(TweeQLError):
    """Raised when the lexer encounters an unrecognizable character sequence.

    Attributes:
        position: character offset in the query string where lexing failed.
    """

    code = "TQL001"

    def __init__(self, message: str, position: int | None = None) -> None:
        super().__init__(message)
        self.position = position


class ParseError(TweeQLError):
    """Raised when a query is lexically valid but syntactically malformed.

    Attributes:
        token: text of the offending token, if known.
        position: character offset of the offending token.
        end: offset one past the offending token's last character (caret
            rendering); defaults to ``position + 1`` when unknown.
    """

    code = "TQL002"

    def __init__(
        self,
        message: str,
        token: str | None = None,
        position: int | None = None,
        end: int | None = None,
    ) -> None:
        super().__init__(message)
        self.token = token
        self.position = position
        if end is None and position is not None:
            end = position + max(1, len(token or ""))
        self.end = end


class PlanError(TweeQLError):
    """Raised when a syntactically valid query cannot be planned.

    Examples: unknown stream source, unknown function name, aggregate used
    without a window, GROUP BY referencing an unprojected alias.

    Errors surfaced by the static analyzer carry ``code`` (a stable
    ``TQL2xx`` identifier) and ``diagnostic`` (the structured record with
    the source span); errors raised deep inside planning may not.
    """

    def __init__(self, message: str, *, code: str | None = None) -> None:
        super().__init__(message)
        if code is not None:
            self.code = code


class ExecutionError(TweeQLError):
    """Raised when a planned query fails at runtime."""


class SanitizerError(ExecutionError):
    """Raised when the runtime invariant sanitizer detects a violation.

    Carries a stable ``TQL9xx`` code (catalogued in ``docs/ANALYSIS.md``
    and ``docs/SANITIZER.md``), the offending operator/lane, a repro
    hint, and — when the plan was traced — the sanitizer's instant span
    for the violation.
    """

    def __init__(
        self,
        message: str,
        *,
        code: str = "TQL900",
        operator: str | None = None,
        lane: str | None = None,
        hint: str | None = None,
        span: Any = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.operator = operator
        self.lane = lane
        self.hint = hint
        self.span = span


class AdmissionError(PlanError):
    """Raised when a shared-scan group refuses to admit a query.

    Carries a stable ``TQL4xx`` code: ``TQL401`` when the group is at its
    ``max_tenants`` capacity, ``TQL402`` when the statement's shape cannot
    ride a shared scan (joins, ``INTO STREAM``, ``now()``, or a different
    source), ``TQL403`` when the group already started streaming or is
    closed. See :mod:`repro.engine.multitenant`.
    """


class UnknownFunctionError(PlanError):
    """Raised when a query references a function not in the registry."""

    code = "TQL202"

    def __init__(self, name: str, hint: str | None = None) -> None:
        suffix = f" ({hint})" if hint else ""
        super().__init__(f"unknown function: {name!r}{suffix}")
        self.name = name
        self.hint = hint


class UnknownSourceError(PlanError):
    """Raised when a query's FROM clause names an unregistered source."""

    code = "TQL212"

    def __init__(self, name: str, available: tuple[str, ...] = ()) -> None:
        hint = f" (available: {', '.join(available)})" if available else ""
        super().__init__(f"unknown stream source: {name!r}{hint}")
        self.name = name
        self.available = available


class UnknownFieldError(PlanError):
    """Raised when an expression references a field absent from the schema.

    Every raise site must pass ``available`` so the message always carries
    the did-you-mean hint (tested in ``tests/engine/test_error_hints.py``).
    """

    code = "TQL201"

    def __init__(self, name: str, available: tuple[str, ...] = ()) -> None:
        hint = f" (available: {', '.join(available)})" if available else ""
        super().__init__(f"unknown field: {name!r}{hint}")
        self.name = name
        self.available = available


class StreamError(TweeQLError):
    """Raised by the simulated Twitter streaming API.

    Examples: more than one filter type on a single connection, connecting
    to an exhausted stream, exceeding the connection limit.
    """


class RateLimitError(StreamError):
    """Raised when a simulated API client exceeds its request budget."""

    def __init__(self, message: str, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class ServiceError(TweeQLError):
    """Raised by a simulated remote web service (transient failure, etc.).

    Attributes:
        retry_after: server-suggested wait in (virtual) seconds before the
            next attempt, when the failure carried one (HTTP Retry-After).
            The retry layer's backoff treats it as a floor on the wait; see
            :class:`repro.engine.resilience.RetryPolicy`.
    """

    def __init__(self, message: str, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class CircuitOpenError(ServiceError):
    """Raised when a circuit breaker short-circuits a call without trying.

    ``retry_after`` carries the time until the breaker's half-open probe is
    permitted, so a retry loop that honors it naturally waits out the open
    window instead of hammering a service that is known to be down.
    """

    def __init__(self, service: str, retry_after: float | None = None) -> None:
        super().__init__(
            f"{service}: circuit breaker is open", retry_after=retry_after
        )
        self.service = service


class GeocodeError(ServiceError):
    """Raised when a location string cannot be geocoded."""

    def __init__(self, location: str) -> None:
        super().__init__(f"could not geocode location: {location!r}")
        self.location = location


class StorageError(TweeQLError):
    """Raised by persistence backends (tweet log, caches)."""
