"""Statement-level semantic validation (``TQL2xx``).

This is the one place a statement is rejected: unknown sources,
aggregate/window/HAVING/ORDER BY shape rules, join shape and field
resolution, bounding boxes, LIKE/MATCHES pattern rules, and the
``WINDOW CONFIDENCE`` restrictions. Every violation is *collected*, not
raised on the first. The planner raises the first gating error through
:meth:`repro.sql.analysis.analyzer.AnalysisResult.raise_first_error`
before it builds anything and re-checks none of these rules, so a query
that produces no gating error here is exactly a query the planner
accepts (the no-drift property tested in
``tests/sql/analysis/test_no_drift.py``).

Clause-by-clause alias and aggregate scoping copies the engine:

- WHERE resolves against the (join-merged) stream schema only, never
  aliases, and admits no aggregates;
- in an aggregate query, GROUP BY / HAVING / ORDER BY / SELECT items may
  reference non-aggregate select aliases;
- HAVING and ORDER BY admit aggregates only in aggregate queries;
  GROUP BY never does.
"""

from __future__ import annotations

import re

from repro.engine.aggregates import AGGREGATE_NAMES
from repro.engine.functions import FunctionRegistry
from repro.engine.windows import MAX_WINDOWS_PER_ROW, windows_per_row
from repro.geo.bbox import BoundingBox, named_box
from repro.sql import ast
from repro.sql.analysis.catalog import Catalog
from repro.sql.analysis.diagnostics import DiagnosticSink
from repro.sql.analysis.typeinfer import (
    SqlType,
    TypeInferencer,
    field_types_for,
    suggest,
)
from repro.sql.ast import span_of


def statement_has_aggregates(statement: ast.SelectStatement) -> bool:
    """The aggregate-mode test the planner, analyzer and lints share."""
    from repro.engine.expressions import contains_aggregate

    return bool(statement.group_by) or any(
        not isinstance(item.expr, ast.Star) and contains_aggregate(item.expr)
        for item in statement.select
    )


def _aggregate_sites(statement: ast.SelectStatement) -> list[ast.FuncCall]:
    """Distinct outermost aggregate calls across SELECT/HAVING/ORDER BY,
    keyed by rendered SQL exactly like the planner's rewrite."""
    sites: list[ast.FuncCall] = []
    seen: set[str] = set()

    def visit(expr: ast.Expr) -> None:
        if isinstance(expr, ast.FuncCall) and expr.name in AGGREGATE_NAMES:
            key = expr.to_sql()
            if key not in seen:
                seen.add(key)
                sites.append(expr)
            return  # outermost only; nested aggregates are a TQL203
        if isinstance(expr, ast.FuncCall):
            for arg in expr.args:
                visit(arg)
        elif isinstance(expr, ast.BinaryOp):
            visit(expr.left)
            visit(expr.right)
        elif isinstance(expr, ast.UnaryOp):
            visit(expr.operand)
        elif isinstance(expr, ast.InList):
            visit(expr.operand)
            for value in expr.values:
                visit(value)

    for item in statement.select:
        if not isinstance(item.expr, ast.Star):
            visit(item.expr)
    if statement.having is not None:
        visit(statement.having)
    for expr, _desc in statement.order_by:
        visit(expr)
    return sites


def resolve_statement_schema(
    statement: ast.SelectStatement,
    catalog: Catalog,
    sink: DiagnosticSink,
) -> tuple[str, ...]:
    """The schema downstream clauses resolve against, reporting ``TQL212``
    for unknown sources and applying the join's schema merge.

    Unknown sources fall back to the default tweet schema so the rest of
    the statement still gets analyzed in one pass.
    """
    binding = catalog.get(statement.source)
    if binding is None:
        available = catalog.names()
        sink.error(
            "TQL212",
            f"unknown stream source: {statement.source!r} "
            f"(available: {', '.join(available)})",
            None,
            suggest(statement.source, available),
            payload={"name": statement.source, "available": available},
        )
        schema: tuple[str, ...] = Catalog.default().sources[0].schema
    else:
        schema = binding.schema
    schema = tuple(name.lower() for name in schema)

    join = statement.join
    if join is None:
        return schema
    right = catalog.get(join.source)
    if right is None:
        available = catalog.names()
        sink.error(
            "TQL212",
            f"unknown stream source: {join.source!r} "
            f"(available: {', '.join(available)})",
            None,
            suggest(join.source, available),
            payload={"name": join.source, "available": available},
        )
        return schema
    right_schema = tuple(name.lower() for name in right.schema)
    _check_join(statement, schema, right_schema, sink)
    left_names = set(schema)
    return schema + tuple(
        f"r_{name}" if name in left_names else name
        for name in right_schema
        if name != "created_at"
    )


def _check_join(
    statement: ast.SelectStatement,
    left_schema: tuple[str, ...],
    right_schema: tuple[str, ...],
    sink: DiagnosticSink,
) -> None:
    join = statement.join
    assert join is not None
    is_lookup = "created_at" not in set(right_schema)
    if not is_lookup and (
        statement.window is None or statement.window.count_based
    ):
        sink.error(
            "TQL214",
            "stream-stream JOIN requires a *time* WINDOW clause (streams "
            "join within a time band)",
            span_of(statement.window) if statement.window else None,
            "add e.g. WINDOW 60 SECONDS, or drop created_at from the right "
            "source to make it a lookup table",
        )
    condition = join.condition
    if not (
        isinstance(condition, ast.BinaryOp)
        and condition.op == "="
        and isinstance(condition.left, ast.FieldRef)
        and isinstance(condition.right, ast.FieldRef)
    ):
        sink.error(
            "TQL215",
            "JOIN ON must be an equality between two field references",
            span_of(condition),
        )
        return
    left_names = set(left_schema)
    right_names = set(right_schema)
    names = (condition.left.name.lower(), condition.right.name.lower())
    if not (
        (names[0] in left_names and names[1] in right_names)
        or (names[1] in left_names and names[0] in right_names)
    ):
        sink.error(
            "TQL216",
            f"cannot resolve join fields {names[0]!r}, {names[1]!r} "
            "against the two sources",
            span_of(condition),
        )


def check_statement(
    statement: ast.SelectStatement,
    schema: tuple[str, ...],
    registry: FunctionRegistry,
    sink: DiagnosticSink,
) -> None:
    """Run every ``TQL2xx`` / ``TQL1xx`` check over one statement.

    ``schema`` is the effective (join-merged) stream schema from
    :func:`resolve_statement_schema`.
    """
    field_types = field_types_for(schema)
    has_aggregates = statement_has_aggregates(statement)

    def inferencer(
        aliases: dict[str, SqlType] | None = None,
        allow_aggregates: bool = False,
    ) -> TypeInferencer:
        return TypeInferencer(
            registry, field_types, sink,
            aliases=aliases, allow_aggregates=allow_aggregates,
        )

    # ---- select list --------------------------------------------------------
    alias_types: dict[str, SqlType] = {}
    if has_aggregates:
        from repro.engine.expressions import contains_aggregate

        # First pass builds alias types exactly like the planner builds
        # alias_evals: only non-aggregate aliased items participate.
        for item in statement.select:
            if isinstance(item.expr, ast.Star):
                continue
            if item.alias and not contains_aggregate(item.expr):
                quiet = DiagnosticSink()  # typed on the plain schema;
                alias_types[item.alias] = TypeInferencer(
                    registry, field_types, quiet
                ).infer(item.expr)
        for item in statement.select:
            if isinstance(item.expr, ast.Star):
                sink.error(
                    "TQL206",
                    "SELECT * cannot be combined with aggregates",
                    span_of(item.expr) or span_of(item),
                    "name the grouped columns explicitly",
                )
                continue
            inferencer(alias_types, allow_aggregates=True).infer(item.expr)
    else:
        for item in statement.select:
            if isinstance(item.expr, ast.Star):
                continue
            inferencer().infer(item.expr)

    # ---- WHERE: schema only, no aliases, no aggregates ----------------------
    if statement.where is not None:
        predicate_type = inferencer().infer(statement.where)
        _check_predicate_type(statement.where, predicate_type, sink, "WHERE")

    # ---- GROUP BY: aliases yes, aggregates no -------------------------------
    for expr in statement.group_by:
        inferencer(alias_types).infer(expr)

    # ---- HAVING / ORDER BY --------------------------------------------------
    if statement.having is not None:
        if not has_aggregates:
            sink.error(
                "TQL204",
                "HAVING requires aggregation",
                span_of(statement.having),
                "add an aggregate to the SELECT list or use WHERE",
            )
        having_type = inferencer(alias_types, allow_aggregates=True).infer(
            statement.having
        )
        if has_aggregates:
            _check_predicate_type(statement.having, having_type, sink, "HAVING")

    if statement.order_by and not has_aggregates:
        sink.error(
            "TQL205",
            "ORDER BY requires a windowed aggregate query (streams have no "
            "global order to sort)",
            span_of(statement.order_by[0][0]),
            "aggregate over a WINDOW, then ORDER BY within each window",
        )
    for expr, _desc in statement.order_by:
        inferencer(alias_types, allow_aggregates=True).infer(expr)

    # ---- aggregate mode rules ----------------------------------------------
    sites = _aggregate_sites(statement)
    confidence = statement.confidence
    if confidence is not None:
        if len(sites) != 1 or sites[0].name != "avg":
            sink.error(
                "TQL213",
                "WINDOW CONFIDENCE supports exactly one AVG aggregate; use a "
                "time or tweet-count WINDOW for other aggregate mixes",
                span_of(sites[0]) if sites else confidence.span,
            )
        if statement.having is not None:
            sink.error(
                "TQL213",
                "HAVING is not supported with WINDOW CONFIDENCE",
                span_of(statement.having),
            )
        if statement.order_by or statement.limit is not None:
            sink.error(
                "TQL213",
                "ORDER BY / LIMIT are not supported with WINDOW CONFIDENCE",
                span_of(statement.order_by[0][0])
                if statement.order_by
                else None,
            )
    elif has_aggregates and statement.window is None:
        sink.error(
            "TQL207",
            "aggregate queries need a WINDOW clause (or WINDOW CONFIDENCE "
            "for one AVG)",
            span_of(sites[0]) if sites else None,
            "add e.g. WINDOW 60 SECONDS EVERY 10 SECONDS",
        )

    # ---- window fan-out -----------------------------------------------------
    window = statement.window
    if window is not None:
        fan_out = windows_per_row(window)
        if fan_out > MAX_WINDOWS_PER_ROW:
            sink.error(
                "TQL217",
                f"window size / slide puts every row in {fan_out} windows; "
                f"at most {MAX_WINDOWS_PER_ROW} are allowed",
                span_of(window),
                "use a longer EVERY slide or a shorter window",
            )

    # ---- string-operator literal rules --------------------------------------
    exprs = ast.statement_exprs(statement)
    if statement.join is not None:
        exprs.append(statement.join.condition)
    for clause in exprs:
        for node in ast.walk(clause):
            _check_patterns(node, sink)


def _check_predicate_type(
    expr: ast.Expr, inferred: SqlType, sink: DiagnosticSink, clause: str
) -> None:
    if inferred.known and inferred is not SqlType.BOOLEAN:
        sink.warning(
            "TQL106",
            f"{clause} predicate has type {inferred.value}; the engine "
            "applies SQL truthiness (non-zero / non-empty is true)",
            span_of(expr),
        )


def _check_patterns(node: ast.Expr, sink: DiagnosticSink) -> None:
    """LIKE literal rule, MATCHES regex validity, bounding-box validity."""
    if isinstance(node, ast.BBox):
        _check_bbox(node, sink)
        return
    if not isinstance(node, ast.BinaryOp):
        return
    if node.op == "LIKE":
        if not (
            isinstance(node.right, ast.Literal)
            and isinstance(node.right.value, str)
        ):
            sink.error(
                "TQL209",
                "LIKE requires a string literal pattern",
                span_of(node.right) or span_of(node),
                "use MATCHES for dynamic patterns",
            )
    elif node.op == "MATCHES":
        if isinstance(node.right, ast.Literal) and isinstance(
            node.right.value, str
        ):
            try:
                re.compile(node.right.value, re.IGNORECASE)
            except re.error as exc:
                sink.error(
                    "TQL210",
                    f"invalid regular expression {node.right.value!r}: {exc}",
                    span_of(node.right) or span_of(node),
                )


def _check_bbox(node: ast.BBox, sink: DiagnosticSink) -> None:
    if node.coords is not None:
        south, west, north, east = node.coords
        try:
            BoundingBox(south, west, north, east)
        except ValueError as exc:
            sink.error("TQL208", f"invalid bounding box: {exc}", span_of(node))
        return
    assert node.name is not None
    try:
        named_box(node.name)
    except KeyError as exc:
        sink.error("TQL208", str(exc.args[0]), span_of(node))
