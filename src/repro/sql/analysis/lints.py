"""Streamability / performance / safety lints (``TQL3xx``).

These never block planning — they flag queries that run but behave worse
than the author probably expects on an unbounded stream:

- ``TQL301`` ``WINDOW CONFIDENCE`` emits approximations;
- ``TQL302`` a high-latency web-service UDF predicate ordered before
  cheap predicates (every tweet pays the round trip);
- ``TQL303`` regex shapes prone to catastrophic backtracking;
- ``TQL304`` no streaming-API-eligible predicate → firehose scan;
- ``TQL305`` constant predicates (always true / always false);
- ``TQL306`` redundant or field-shadowing select aliases;
- ``TQL307`` ``now()`` pins execution to one row per batch;
- ``TQL311`` backfill enabled but no ``created_at`` lower bound — the
  whole historical store is replayed before the live tail.

The API-eligibility matchers are deliberately *reimplemented* here (same
shapes as :mod:`repro.engine.planner`'s ``_track_keywords`` /
``_bbox_filter`` / ``_follow_ids``) rather than imported: the planner
imports this package for its validation gate, so the dependency must
point engine ← analysis only.
"""

from __future__ import annotations

import re
from typing import Any

from repro.engine.aggregates import AGGREGATE_NAMES
from repro.engine.expressions import ARITHMETIC
from repro.engine.functions import FunctionRegistry
from repro.sql import ast
from repro.sql.analysis.catalog import Catalog
from repro.sql.analysis.diagnostics import DiagnosticSink
from repro.sql.ast import span_of, split_conjuncts, statement_exprs


def run_lints(
    statement: ast.SelectStatement,
    schema: tuple[str, ...],
    registry: FunctionRegistry,
    sink: DiagnosticSink,
    catalog: Catalog,
    config: Any = None,
) -> None:
    """Run every lint over one statement.

    ``config`` is the session's ``EngineConfig`` (or None for
    session-less analysis; lints that depend on configuration use the
    engine's defaults then).
    """
    conjuncts = split_conjuncts(statement.where)
    _lint_confidence_aggregate(statement, sink)
    _lint_latency_ordering(conjuncts, registry, sink)
    _lint_regex_shapes(statement, sink)
    _lint_firehose(statement, conjuncts, catalog, sink)
    _lint_constant_predicates(conjuncts, statement, sink)
    _lint_aliases(statement, schema, sink)
    _lint_now_pinning(statement, sink, config)
    _lint_unbounded_backfill(statement, conjuncts, sink, config)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _calls_function(
    statement: ast.SelectStatement, predicate: Any
) -> ast.FuncCall | None:
    for expr in statement_exprs(statement):
        for node in ast.walk(expr):
            if isinstance(node, ast.FuncCall) and predicate(node):
                return node
    return None


# ---------------------------------------------------------------------------
# TQL301 — WINDOW CONFIDENCE aggregation is approximate
# ---------------------------------------------------------------------------


def _lint_confidence_aggregate(
    statement: ast.SelectStatement, sink: DiagnosticSink
) -> None:
    if statement.confidence is not None:
        sink.info(
            "TQL301",
            "WINDOW CONFIDENCE runs in confidence-triggered mode: groups "
            "emit when their confidence interval tightens, so results are "
            "approximations with attached CI columns",
            statement.confidence.span,
            "use a time WINDOW for exact per-window results",
        )


# ---------------------------------------------------------------------------
# TQL302 — high-latency UDF ordered before cheap predicates
# ---------------------------------------------------------------------------


def _is_high_latency(expr: ast.Expr, registry: FunctionRegistry) -> bool:
    for node in ast.walk(expr):
        if (
            isinstance(node, ast.FuncCall)
            and node.name not in AGGREGATE_NAMES
            and node.name in registry
            and registry.lookup(node.name).high_latency
        ):
            return True
    return False


def _lint_latency_ordering(
    conjuncts: list[ast.Expr], registry: FunctionRegistry, sink: DiagnosticSink
) -> None:
    first_slow: int | None = None
    for index, conjunct in enumerate(conjuncts):
        slow = _is_high_latency(conjunct, registry)
        if slow and first_slow is None:
            first_slow = index
        elif not slow and first_slow is not None:
            sink.warning(
                "TQL302",
                "a high-latency web-service UDF predicate is ordered before "
                "a cheap predicate; every tweet pays the round trip before "
                "the cheap filter can discard it",
                span_of(conjuncts[first_slow]),
                "move cheap predicates first in the WHERE conjunction",
            )
            return


# ---------------------------------------------------------------------------
# TQL303 — catastrophic-backtracking regex shapes
# ---------------------------------------------------------------------------

#: Quantified group that itself contains an unbounded quantifier —
#: ``(a+)+``, ``(a*)*``, ``(a+)*``, ``(.*)+``, ``(a|aa)+``-style shapes.
_NESTED_QUANTIFIER = re.compile(r"\([^()]*[+*}][^()]*\)\s*[+*{]")
#: Adjacent unbounded quantifiers over overlapping atoms: ``.*.*``, ``.+.*``.
_ADJACENT_GREEDY = re.compile(r"\.\s*[+*]\s*\.\s*[+*]")


def _suspicious_regex(pattern: str) -> str | None:
    """Why the pattern risks catastrophic backtracking, or None."""
    if _NESTED_QUANTIFIER.search(pattern):
        return "a quantified group containing another quantifier"
    if _ADJACENT_GREEDY.search(pattern):
        return "adjacent unbounded wildcards"
    alternation = re.search(r"\(([^()|]+)\|([^()|]+)\)[+*]", pattern)
    if alternation and (
        alternation.group(1).startswith(alternation.group(2))
        or alternation.group(2).startswith(alternation.group(1))
    ):
        return "a quantified alternation with overlapping branches"
    return None


def _lint_regex_shapes(
    statement: ast.SelectStatement, sink: DiagnosticSink
) -> None:
    for expr in statement_exprs(statement):
        for node in ast.walk(expr):
            if (
                isinstance(node, ast.BinaryOp)
                and node.op == "MATCHES"
                and isinstance(node.right, ast.Literal)
                and isinstance(node.right.value, str)
            ):
                reason = _suspicious_regex(node.right.value)
                if reason is not None:
                    sink.warning(
                        "TQL303",
                        f"regex {node.right.value!r} contains {reason}, a "
                        "catastrophic-backtracking shape; one adversarial "
                        "tweet can stall the stream",
                        span_of(node.right) or span_of(node),
                        "rewrite without nested/overlapping unbounded "
                        "quantifiers",
                    )


# ---------------------------------------------------------------------------
# TQL304 — no API-eligible predicate: firehose scan
# ---------------------------------------------------------------------------
# Shape matchers mirror repro.engine.planner (see module docstring).


def _track_keywords(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.BinaryOp) and expr.op == "OR":
        return _track_keywords(expr.left) and _track_keywords(expr.right)
    return (
        isinstance(expr, ast.BinaryOp)
        and expr.op == "CONTAINS"
        and isinstance(expr.left, ast.FieldRef)
        and expr.left.name.lower() == "text"
        and isinstance(expr.right, ast.Literal)
        and isinstance(expr.right.value, str)
    )


def _bbox_filter(expr: ast.Expr) -> bool:
    return (
        isinstance(expr, ast.BinaryOp)
        and expr.op == "IN_BBOX"
        and isinstance(expr.left, ast.FieldRef)
        and expr.left.name.lower() in ("location", "geo", "point")
        and isinstance(expr.right, ast.BBox)
    )


def _follow_ids(expr: ast.Expr) -> bool:
    if (
        isinstance(expr, ast.BinaryOp)
        and expr.op == "="
        and isinstance(expr.left, ast.FieldRef)
        and expr.left.name.lower() == "user_id"
        and isinstance(expr.right, ast.Literal)
        and isinstance(expr.right.value, int)
    ):
        return True
    return (
        isinstance(expr, ast.InList)
        and isinstance(expr.operand, ast.FieldRef)
        and expr.operand.name.lower() == "user_id"
        and all(
            isinstance(v, ast.Literal) and isinstance(v.value, int)
            for v in expr.values
        )
    )


def _api_eligible(expr: ast.Expr) -> bool:
    return _track_keywords(expr) or _bbox_filter(expr) or _follow_ids(expr)


def _lint_firehose(
    statement: ast.SelectStatement,
    conjuncts: list[ast.Expr],
    catalog: Catalog,
    sink: DiagnosticSink,
) -> None:
    binding = catalog.get(statement.source)
    if binding is None or not binding.live:
        return
    if any(_api_eligible(conjunct) for conjunct in conjuncts):
        return
    sink.warning(
        "TQL304",
        "no predicate is expressible as a streaming-API filter (keyword "
        "track, location box, or user follow); the query must scan the "
        "full firehose",
        span_of(statement.where) if statement.where is not None else None,
        "add a conjunct shaped like text CONTAINS '…', location IN "
        "[bounding box …], or user_id = n",
    )


# ---------------------------------------------------------------------------
# TQL305 — constant predicates via constant folding
# ---------------------------------------------------------------------------

_UNKNOWN = object()


def fold_constant(expr: ast.Expr) -> Any:
    """Evaluate a field-free, call-free expression; ``_UNKNOWN`` otherwise.

    Mirrors the evaluator's semantics for the folded subset (three-valued
    logic, NULL propagation, division by zero → NULL) so "always
    true/false" verdicts match what the engine would compute per row.
    """
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.UnaryOp):
        inner = fold_constant(expr.operand)
        if inner is _UNKNOWN:
            return _UNKNOWN
        if expr.op == "NOT":
            return None if inner is None else not bool(inner)
        if expr.op == "NEG":
            if inner is None:
                return None
            return -inner if isinstance(inner, (int, float)) else _UNKNOWN
        if expr.op == "IS NULL":
            return inner is None
        if expr.op == "IS NOT NULL":
            return inner is not None
        return _UNKNOWN
    if isinstance(expr, ast.InList):
        needle = fold_constant(expr.operand)
        values = [fold_constant(v) for v in expr.values]
        if needle is _UNKNOWN or any(v is _UNKNOWN for v in values):
            return _UNKNOWN
        return None if needle is None else needle in values
    if not isinstance(expr, ast.BinaryOp):
        return _UNKNOWN

    op = expr.op
    if op in ("AND", "OR"):
        lhs, rhs = fold_constant(expr.left), fold_constant(expr.right)
        if lhs is _UNKNOWN or rhs is _UNKNOWN:
            # Short-circuit still decides some mixed cases.
            known = lhs if rhs is _UNKNOWN else rhs
            if known is _UNKNOWN:
                return _UNKNOWN
            if op == "AND" and known is not None and not bool(known):
                return False
            if op == "OR" and known is not None and bool(known):
                return True
            return _UNKNOWN
        if op == "AND":
            if (lhs is not None and not bool(lhs)) or (
                rhs is not None and not bool(rhs)
            ):
                return False
            return None if lhs is None or rhs is None else True
        if (lhs is not None and bool(lhs)) or (rhs is not None and bool(rhs)):
            return True
        return None if lhs is None or rhs is None else False

    lhs, rhs = fold_constant(expr.left), fold_constant(expr.right)
    if lhs is _UNKNOWN or rhs is _UNKNOWN:
        return _UNKNOWN
    if lhs is None or rhs is None:
        return None
    try:
        if op == "=":
            return lhs == rhs
        if op in ("!=", "<>"):
            return lhs != rhs
        if op == "<":
            return lhs < rhs
        if op == "<=":
            return lhs <= rhs
        if op == ">":
            return lhs > rhs
        if op == ">=":
            return lhs >= rhs
        if op == "CONTAINS":
            return str(rhs).casefold() in str(lhs).casefold()
        if op in ARITHMETIC:
            return ARITHMETIC[op](lhs, rhs)
        if op == "/":
            return None if rhs == 0 else lhs / rhs
    except (TypeError, ZeroDivisionError):
        return None
    return _UNKNOWN


def _lint_constant_predicates(
    conjuncts: list[ast.Expr],
    statement: ast.SelectStatement,
    sink: DiagnosticSink,
) -> None:
    checked: list[tuple[str, ast.Expr]] = [
        ("WHERE", conjunct) for conjunct in conjuncts
    ]
    if statement.having is not None:
        checked.append(("HAVING", statement.having))
    for clause, expr in checked:
        value = fold_constant(expr)
        if value is _UNKNOWN:
            continue
        if value is None or not bool(value):
            sink.warning(
                "TQL305",
                f"{clause} predicate {expr.to_sql()!r} is never true; the "
                "query can never emit a row",
                span_of(expr),
            )
        else:
            sink.warning(
                "TQL305",
                f"{clause} predicate {expr.to_sql()!r} is always true and "
                "filters nothing",
                span_of(expr),
                "drop the predicate",
            )


# ---------------------------------------------------------------------------
# TQL306 — redundant / shadowing select aliases
# ---------------------------------------------------------------------------


def _lint_aliases(
    statement: ast.SelectStatement,
    schema: tuple[str, ...],
    sink: DiagnosticSink,
) -> None:
    schema_set = {name.lower() for name in schema}
    for item in statement.select:
        if not item.alias:
            continue
        alias = item.alias.lower()
        if (
            isinstance(item.expr, ast.FieldRef)
            and item.expr.name.lower() == alias
        ):
            sink.info(
                "TQL306",
                f"alias {item.alias!r} is redundant (it renames the field "
                "to its own name)",
                span_of(item) or span_of(item.expr),
                "drop the AS clause",
            )
        elif alias in schema_set and not (
            isinstance(item.expr, ast.FieldRef)
            and item.expr.name.lower() == alias
        ):
            sink.warning(
                "TQL306",
                f"alias {item.alias!r} shadows a stream field of the same "
                "name; GROUP BY / HAVING references to it bind to the "
                "alias, not the field",
                span_of(item) or span_of(item.expr),
                "pick an alias that is not a schema field name",
            )


# ---------------------------------------------------------------------------
# TQL307 — now() pins batch size to 1
# ---------------------------------------------------------------------------


def _lint_now_pinning(
    statement: ast.SelectStatement, sink: DiagnosticSink, config: Any
) -> None:
    batch_size = getattr(config, "batch_size", None)
    if batch_size == 1:
        return  # already row-at-a-time by configuration
    call = _calls_function(statement, lambda node: node.name == "now")
    if call is not None:
        sink.info(
            "TQL307",
            "now() reads stream time row by row, so the engine falls back "
            "to one row per batch for this query (batched execution is "
            "disabled)",
            span_of(call),
            "use created_at where per-row arrival time is what you mean",
        )


# ---------------------------------------------------------------------------
# TQL311 — unbounded backfill scans the whole historical store
# ---------------------------------------------------------------------------


def _created_at_lower_bound(expr: ast.Expr) -> bool:
    """True when ``expr`` is ``created_at >=/> <literal>`` (either
    orientation) — the bound that lets the backfill split range-scan the
    store instead of reading it from the beginning of time."""
    if not isinstance(expr, ast.BinaryOp):
        return False
    left, right, op = expr.left, expr.right, expr.op
    if op in (">=", ">"):
        field, literal = left, right
    elif op in ("<=", "<"):
        # ``<literal> <= created_at`` is a lower bound too.
        field, literal = right, left
    else:
        return False
    return (
        isinstance(field, ast.FieldRef)
        and field.name.lower() == "created_at"
        and isinstance(literal, ast.Literal)
        and isinstance(literal.value, (int, float))
        and not isinstance(literal.value, bool)
    )


def _lint_unbounded_backfill(
    statement: ast.SelectStatement,
    conjuncts: list[ast.Expr],
    sink: DiagnosticSink,
    config: Any,
) -> None:
    if config is None or not getattr(config, "backfill", False):
        return
    if getattr(config, "storage_path", None) is None:
        return
    if statement.source.lower() != "twitter":
        return
    if any(_created_at_lower_bound(conjunct) for conjunct in conjuncts):
        return
    sink.info(
        "TQL311",
        "backfill is enabled but this query has no created_at lower "
        "bound: the entire historical store is replayed before the live "
        "tail",
        span_of(statement.where) if statement.where is not None else None,
    )
