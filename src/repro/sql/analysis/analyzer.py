"""Analysis entry points and the planner's validation gate.

:func:`analyze_sql` / :func:`analyze_statement` run the full pipeline —
parse (syntax problems become ``TQL001``/``TQL002`` diagnostics), type
inference, semantic validation, lints — and return an
:class:`AnalysisResult` holding every finding.

The planner calls :meth:`AnalysisResult.raise_first_error` before
building a pipeline, and rejects nothing itself, so every plan-time
rejection carries a stable code and source span while raising the
exception types (``UnknownSourceError``, ``UnknownFieldError``,
``UnknownFunctionError``, ``PlanError``) callers catch. No gating error
depends on the session's configuration: what a query means is in its
text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.engine.functions import FunctionRegistry, default_registry
from repro.errors import (
    LexError,
    ParseError,
    PlanError,
    UnknownFieldError,
    UnknownFunctionError,
    UnknownSourceError,
)
from repro.sql import ast
from repro.sql.analysis.catalog import Catalog, SourceInfo
from repro.sql.analysis.diagnostics import Diagnostic, DiagnosticSink, Severity
from repro.sql.analysis.lints import run_lints
from repro.sql.analysis.semantic import check_statement, resolve_statement_schema
from repro.sql.ast import Span
from repro.sql.parser import parse


@dataclass(frozen=True)
class AnalysisResult:
    """Everything one analysis pass found.

    Attributes:
        source_sql: the analyzed query text, when known (enables caret
            snippets in :meth:`render`).
        statement: the parsed statement, or None when parsing failed.
        diagnostics: every finding, errors first, then by position.
    """

    source_sql: str | None
    statement: ast.SelectStatement | None
    diagnostics: tuple[Diagnostic, ...]

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(
            d for d in self.diagnostics if d.severity is Severity.ERROR
        )

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(
            d for d in self.diagnostics if d.severity is Severity.WARNING
        )

    @property
    def infos(self) -> tuple[Diagnostic, ...]:
        return tuple(
            d for d in self.diagnostics if d.severity is Severity.INFO
        )

    def ok(self, strict: bool = False) -> bool:
        """No errors — and, under ``strict``, no warnings either."""
        if self.errors:
            return False
        return not (strict and self.warnings)

    def render(self) -> str:
        """All diagnostics with caret snippets, one blank line apart."""
        if not self.diagnostics:
            return "no issues found"
        return "\n\n".join(
            d.render(self.source_sql) for d in self.diagnostics
        )

    def as_dict(self) -> dict[str, object]:
        """JSON-ready representation (``tweeql check --format=json``)."""
        return {
            "ok": self.ok(),
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }

    # -- the planner gate ----------------------------------------------------

    def raise_first_error(self) -> None:
        """Raise the first gating error, typed and coded.

        "First" is in validation order (source resolution, then join
        shape, then expression compilation, then aggregate rules), so a
        statement with several errors raises the same exception type
        whatever their positions; it carries ``code``/``diagnostic``. Syntax
        diagnostics (``TQL001``/``TQL002``) re-raise as
        :class:`LexError`/:class:`ParseError`.
        """
        errors = self.errors
        if not errors:
            return
        diag = min(errors, key=_planner_order)
        payload = dict(diag.payload or {})
        exc: Exception
        if diag.code == "TQL001":
            exc = LexError(
                diag.message,
                position=diag.span.start if diag.span else None,
            )
        elif diag.code == "TQL002":
            exc = ParseError(
                diag.message,
                position=diag.span.start if diag.span else None,
                end=diag.span.end if diag.span else None,
            )
        elif diag.code == "TQL212":
            exc = UnknownSourceError(
                str(payload.get("name", "")),
                tuple(payload.get("available", ())),  # type: ignore[arg-type]
            )
        elif diag.code == "TQL201":
            exc = UnknownFieldError(
                str(payload.get("name", "")),
                tuple(payload.get("available", ())),  # type: ignore[arg-type]
            )
        elif diag.code == "TQL202":
            hint = payload.get("hint")
            exc = UnknownFunctionError(
                str(payload.get("name", "")),
                str(hint) if hint is not None else None,
            )
        else:
            exc = PlanError(diag.message, code=diag.code)
        exc.diagnostic = diag
        raise exc


#: Codes the gate enforces, in validation order: source resolution, join
#: shape, expression compilation (unknown names, misplaced aggregates,
#: pattern/box literals), then statement shape.
#: TQL1xx type findings are advisory and never gate planning, with the
#: one exception the engine itself enforces at runtime boundaries.
_PLANNER_ORDER: dict[str, int] = {
    code: index
    for index, code in enumerate(
        (
            "TQL001", "TQL002",
            "TQL212",
            "TQL215", "TQL216", "TQL214",
            "TQL202", "TQL201", "TQL203",
            "TQL209", "TQL210", "TQL208",
            "TQL206", "TQL211",
            "TQL204", "TQL205",
            "TQL207", "TQL213", "TQL217",
        )
    )
}


def _planner_order(diag: Diagnostic) -> tuple[int, int]:
    order = _PLANNER_ORDER.get(diag.code)
    if order is None:
        # Non-gating codes sort last; gate_result() filters them out
        # before the planner calls raise_first_error().
        order = len(_PLANNER_ORDER)
    position = diag.span.start if diag.span is not None else 1 << 30
    return (order, position)


#: Error codes the planner enforces. TQL1xx findings never block: the
#: engine tolerates type oddities at runtime (NULL propagation), so
#: rejecting them would refuse queries that execute fine today.
_GATING_CODES = frozenset(_PLANNER_ORDER)


def gate_result(result: AnalysisResult) -> AnalysisResult:
    """The result restricted to diagnostics the planner enforces."""
    return AnalysisResult(
        source_sql=result.source_sql,
        statement=result.statement,
        diagnostics=tuple(
            d
            for d in result.diagnostics
            if d.severity is Severity.ERROR and d.code in _GATING_CODES
        ),
    )


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def analyze_statement(
    statement: ast.SelectStatement,
    *,
    catalog: Catalog | None = None,
    registry: FunctionRegistry | None = None,
    config: Any = None,
    source_sql: str | None = None,
) -> AnalysisResult:
    """Analyze a parsed statement against a catalog and registry.

    Args:
        statement: the parsed query.
        catalog: addressable sources; defaults to the live tweet stream
            only (:meth:`Catalog.default`).
        registry: UDF registry; defaults to the builtin set.
        config: the session's ``EngineConfig`` (enables the
            configuration-dependent lints; no error depends on it); None
            for session-less analysis.
        source_sql: original query text for caret snippets.
    """
    catalog = catalog or Catalog.default()
    registry = registry or default_registry()
    sink = DiagnosticSink()
    schema = resolve_statement_schema(statement, catalog, sink)
    check_statement(statement, schema, registry, sink)
    run_lints(statement, schema, registry, sink, catalog, config)
    return AnalysisResult(
        source_sql=source_sql,
        statement=statement,
        diagnostics=sink.collect(),
    )


def analyze_sql(
    sql: str,
    *,
    catalog: Catalog | None = None,
    registry: FunctionRegistry | None = None,
    config: Any = None,
) -> AnalysisResult:
    """Analyze a query string; syntax problems become diagnostics too."""
    try:
        statement = parse(sql)
    except LexError as exc:
        span = (
            Span(exc.position, exc.position + 1)
            if exc.position is not None
            else None
        )
        return AnalysisResult(
            source_sql=sql,
            statement=None,
            diagnostics=(
                Diagnostic("TQL001", Severity.ERROR, str(exc), span),
            ),
        )
    except ParseError as exc:
        span = (
            Span(exc.position, exc.end or exc.position + 1)
            if exc.position is not None
            else None
        )
        return AnalysisResult(
            source_sql=sql,
            statement=None,
            diagnostics=(
                Diagnostic("TQL002", Severity.ERROR, str(exc), span),
            ),
        )
    return analyze_statement(
        statement,
        catalog=catalog,
        registry=registry,
        config=config,
        source_sql=sql,
    )


def catalog_from_sources(sources: dict[str, Any]) -> Catalog:
    """Build a catalog from a session's ``SourceBinding`` map."""
    return Catalog(
        sources=tuple(
            SourceInfo(
                name=name,
                schema=tuple(binding.schema),
                live=getattr(binding, "api", None) is not None,
            )
            for name, binding in sorted(sources.items())
        )
    )
