"""Expression compilation.

``compile_expr`` turns an AST expression into a closure
``(row, ctx) -> value`` with SQL semantics:

- ``None`` is NULL and propagates through arithmetic, comparisons, and
  string operators;
- ``AND``/``OR``/``NOT`` follow three-valued logic (``NULL OR TRUE`` is
  TRUE, ``NULL AND FALSE`` is FALSE, otherwise NULL);
- ``CONTAINS`` is the paper's case-insensitive substring operator;
- ``MATCHES`` is regular-expression search (compiled once per call site);
- ``LIKE`` matches the whole string with ``%`` and ``_`` wildcards,
  case-insensitively, in time linear in the text;
- ``IN_BBOX`` tests a (lat, lon) point against a bounding-box literal;
- division by zero yields NULL rather than killing a long-running stream
  query (documented divergence from strict SQL, matching the original
  TweeQL's forgiving behaviour on dirty stream data).

Compilation resolves field references against the schema eagerly, so typos
fail at plan time with the available fields listed, not tuple-by-tuple at
runtime.
"""

from __future__ import annotations

import itertools
import operator
import re
from collections.abc import Callable
from typing import Any

from repro.engine.aggregates import AGGREGATE_NAMES
from repro.engine.functions import (
    FunctionRegistry,
    nullsafe_inner,
    service_column,
)
from repro.engine.types import ColumnBatch, EvalContext, Row
from repro.errors import PlanError, UnknownFieldError
from repro.geo.bbox import BoundingBox, named_box
from repro.sql import ast

Evaluator = Callable[[Row, EvalContext], Any]

#: A vectorized evaluator: batch in, one value per row out (or a
#: :class:`Broadcast` when every row shares the value).
VectorEvaluator = Callable[[ColumnBatch, EvalContext], Any]

_call_site_counter = itertools.count(1)


class Broadcast:
    """A whole-batch constant, avoiding ``[value] * n`` materialization."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value


def expand_column(result: Any, length: int) -> list[Any]:
    """Normalize a vector result to a plain per-row list."""
    if isinstance(result, Broadcast):
        return [result.value] * length
    return result


def key_column(
    vectors: list[VectorEvaluator], batch: ColumnBatch, ctx: EvalContext
) -> list[tuple]:
    """One grouping-key tuple per row of ``batch``, from the keys'
    whole-column evaluators."""
    n = batch.length
    if not vectors:
        return [()] * n
    return list(zip(*(expand_column(vec(batch, ctx), n) for vec in vectors)))


def resolve_bbox(node: ast.BBox) -> BoundingBox:
    """Turn a bbox AST literal into a concrete box.

    Raises:
        PlanError: when a named box is unknown.
    """
    if node.coords is not None:
        south, west, north, east = node.coords
        try:
            return BoundingBox(south, west, north, east)
        except ValueError as exc:
            raise PlanError(f"invalid bounding box: {exc}") from exc
    assert node.name is not None
    try:
        return named_box(node.name)
    except KeyError as exc:
        raise PlanError(str(exc.args[0])) from exc


def _like_matcher(pattern: str) -> Callable[[str], bool]:
    """A whole-string, case-insensitive ``LIKE`` test, linear in the text.

    ``%`` splits the pattern into segments, and each segment matches a
    fixed number of characters (``_`` is any one). So the first segment
    is anchored at the start, the last at the end, and each middle one is
    placed at its leftmost match after the one before: a later placement
    never leaves more room. ``re`` matches each segment, so case folding
    is ``re.IGNORECASE``'s own.
    """

    def segment(text: str) -> re.Pattern[str]:
        return re.compile(
            "".join("." if char == "_" else re.escape(char) for char in text),
            re.IGNORECASE | re.DOTALL,
        )

    first, *rest = pattern.split("%")
    head = segment(first)
    if not rest:
        return lambda text: head.fullmatch(text) is not None
    *inner, last = rest
    tail = segment(last)
    middles = [segment(part) for part in inner if part]

    def like(text: str) -> bool:
        end = len(text) - len(last)
        if (
            end < len(first)
            or head.match(text) is None
            or tail.fullmatch(text, end) is None
        ):
            return False
        pos = len(first)
        for middle in middles:
            found = middle.search(text, pos, end)
            if found is None:
                return False
            pos = found.end()
        return True

    return like


_SEQUENCES = (str, bytes, tuple, list)


def _mul(lhs: Any, rhs: Any) -> Any:
    """``*`` over numbers. Python would also repeat a string, tuple or
    list by an integer, into a result as long as the count asks for, so
    that raises TypeError like any other non-numeric arithmetic."""
    if isinstance(lhs, _SEQUENCES) or isinstance(rhs, _SEQUENCES):
        raise TypeError(
            f"unsupported operand type(s) for *: {type(lhs).__name__!r} "
            f"and {type(rhs).__name__!r}"
        )
    return lhs * rhs


def _mod(lhs: Any, rhs: Any) -> Any:
    """``%`` over numbers. Python would printf-format a string left
    operand, whose width fields (``'%999999999d'``) allocate without
    bound, so that raises TypeError like any other non-numeric
    arithmetic."""
    if isinstance(lhs, (str, bytes)):
        raise TypeError(
            f"unsupported operand type(s) for %: {type(lhs).__name__!r} "
            f"and {type(rhs).__name__!r}"
        )
    return lhs % rhs


#: The arithmetic operators, with the evaluator's semantics (the static
#: analyzer's constant folder evaluates through the same table).
ARITHMETIC: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": _mul,
    "%": _mod,
}

_COMPARE: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def compile_expr(
    expr: ast.Expr,
    registry: FunctionRegistry,
    schema: tuple[str, ...],
    ctx: EvalContext,
    aliases: dict[str, Evaluator] | None = None,
) -> Evaluator:
    """Compile an AST expression to an evaluator closure.

    Args:
        expr: the expression tree.
        registry: function registry for FuncCall resolution.
        schema: available field names (lowercase).
        ctx: the query's evaluation context; needed at compile time so
            stateful UDFs can be instantiated once per call site.
        aliases: select-alias name → evaluator, letting GROUP BY / HAVING /
            ORDER BY reference projected expressions by alias.

    Raises:
        PlanError: aggregates in a scalar position, unknown functions.
        UnknownFieldError: a field reference matching neither schema nor
            aliases.
    """
    aliases = aliases or {}
    schema_set = {name.lower() for name in schema}

    def compile_node(node: ast.Expr) -> Evaluator:
        if isinstance(node, ast.Literal):
            value = node.value
            return lambda _row, _ctx: value

        if isinstance(node, ast.FieldRef):
            key = node.name.lower()
            if key in schema_set:
                return lambda row, _ctx, key=key: row.get(key)
            if node.name in aliases:
                return aliases[node.name]
            lowered = {name.lower(): fn for name, fn in aliases.items()}
            if key in lowered:
                return lowered[key]
            raise UnknownFieldError(
                node.name, tuple(sorted(schema_set | set(aliases)))
            )

        if isinstance(node, ast.Star):
            raise PlanError("'*' is only valid in SELECT lists and COUNT(*)")

        if isinstance(node, ast.FuncCall):
            if node.name in AGGREGATE_NAMES:
                raise PlanError(
                    f"aggregate {node.name}() is not allowed here; aggregates "
                    "belong in the SELECT list or HAVING of a windowed query"
                )
            spec = registry.lookup(node.name)
            arg_evals = [compile_node(arg) for arg in node.args]
            if spec.stateful:
                # One instance per call site per query.
                site = next(_call_site_counter)
                instance = spec.impl()
                ctx.state[site] = instance

                def eval_stateful(
                    row: Row, context: EvalContext, instance=instance, arg_evals=arg_evals
                ) -> Any:
                    return instance(
                        context, *(e(row, context) for e in arg_evals)
                    )

                return eval_stateful

            impl = spec.impl

            def eval_call(
                row: Row, context: EvalContext, impl=impl, arg_evals=arg_evals
            ) -> Any:
                return impl(context, *(e(row, context) for e in arg_evals))

            return eval_call

        if isinstance(node, ast.UnaryOp):
            inner = compile_node(node.operand)
            if node.op == "NOT":

                def eval_not(row: Row, context: EvalContext) -> Any:
                    value = inner(row, context)
                    return None if value is None else not _truthy(value)

                return eval_not
            if node.op == "NEG":

                def eval_neg(row: Row, context: EvalContext) -> Any:
                    value = inner(row, context)
                    return None if value is None else -value

                return eval_neg
            if node.op == "IS NULL":
                return lambda row, context: inner(row, context) is None
            if node.op == "IS NOT NULL":
                return lambda row, context: inner(row, context) is not None
            raise PlanError(f"unknown unary operator {node.op!r}")

        if isinstance(node, ast.InList):
            operand = compile_node(node.operand)
            value_evals = [compile_node(v) for v in node.values]

            def eval_in(row: Row, context: EvalContext) -> Any:
                needle = operand(row, context)
                if needle is None:
                    return None
                values = [e(row, context) for e in value_evals]
                return needle in values

            return eval_in

        if isinstance(node, ast.BBox):
            box = resolve_bbox(node)
            return lambda _row, _ctx, box=box: box

        if isinstance(node, ast.BinaryOp):
            return compile_binary(node)

        raise PlanError(f"cannot compile expression node {node!r}")

    def compile_binary(node: ast.BinaryOp) -> Evaluator:
        op = node.op
        if op == "AND":
            left, right = compile_node(node.left), compile_node(node.right)

            def eval_and(row: Row, context: EvalContext) -> Any:
                lhs = left(row, context)
                if lhs is not None and not _truthy(lhs):
                    return False
                rhs = right(row, context)
                if rhs is not None and not _truthy(rhs):
                    return False
                if lhs is None or rhs is None:
                    return None
                return True

            return eval_and
        if op == "OR":
            left, right = compile_node(node.left), compile_node(node.right)

            def eval_or(row: Row, context: EvalContext) -> Any:
                lhs = left(row, context)
                if lhs is not None and _truthy(lhs):
                    return True
                rhs = right(row, context)
                if rhs is not None and _truthy(rhs):
                    return True
                if lhs is None or rhs is None:
                    return None
                return False

            return eval_or

        if op == "CONTAINS":
            left, right = compile_node(node.left), compile_node(node.right)

            def eval_contains(row: Row, context: EvalContext) -> Any:
                text, needle = left(row, context), right(row, context)
                if text is None or needle is None:
                    return None
                return str(needle).casefold() in str(text).casefold()

            return eval_contains

        if op == "MATCHES":
            left = compile_node(node.left)
            if isinstance(node.right, ast.Literal) and isinstance(
                node.right.value, str
            ):
                try:
                    pattern = re.compile(node.right.value, re.IGNORECASE)
                except re.error as exc:
                    raise PlanError(
                        f"invalid regular expression {node.right.value!r}: {exc}"
                    ) from exc

                def eval_matches(row: Row, context: EvalContext) -> Any:
                    text = left(row, context)
                    if text is None:
                        return None
                    return pattern.search(str(text)) is not None

                return eval_matches
            right = compile_node(node.right)

            def eval_matches_dyn(row: Row, context: EvalContext) -> Any:
                text, pat = left(row, context), right(row, context)
                if text is None or pat is None:
                    return None
                return re.search(str(pat), str(text), re.IGNORECASE) is not None

            return eval_matches_dyn

        if op == "LIKE":
            left = compile_node(node.left)
            if not (
                isinstance(node.right, ast.Literal)
                and isinstance(node.right.value, str)
            ):
                raise PlanError("LIKE requires a string literal pattern")
            like = _like_matcher(node.right.value)

            def eval_like(row: Row, context: EvalContext) -> Any:
                text = left(row, context)
                if text is None:
                    return None
                return like(str(text))

            return eval_like

        if op == "IN_BBOX":
            left = compile_node(node.left)
            if not isinstance(node.right, ast.BBox):
                raise PlanError("IN [bounding box …] requires a bbox literal")
            box = resolve_bbox(node.right)

            def eval_in_bbox(row: Row, context: EvalContext) -> Any:
                point = left(row, context)
                if point is None:
                    return None
                try:
                    lat, lon = point
                except (TypeError, ValueError):
                    return None
                if lat is None or lon is None:
                    return None
                return box.contains(float(lat), float(lon))

            return eval_in_bbox

        if op in _COMPARE:
            left, right = compile_node(node.left), compile_node(node.right)
            compare = _COMPARE[op]

            def eval_compare(row: Row, context: EvalContext) -> Any:
                lhs, rhs = left(row, context), right(row, context)
                if lhs is None or rhs is None:
                    return None
                try:
                    return compare(lhs, rhs)
                except TypeError:
                    return None

            return eval_compare

        if op in ARITHMETIC:
            left, right = compile_node(node.left), compile_node(node.right)
            arith = ARITHMETIC[op]

            def eval_arith(row: Row, context: EvalContext) -> Any:
                lhs, rhs = left(row, context), right(row, context)
                if lhs is None or rhs is None:
                    return None
                try:
                    return arith(lhs, rhs)
                except ZeroDivisionError:
                    return None

            return eval_arith

        if op == "/":
            left, right = compile_node(node.left), compile_node(node.right)

            def eval_div(row: Row, context: EvalContext) -> Any:
                lhs, rhs = left(row, context), right(row, context)
                if lhs is None or rhs is None or rhs == 0:
                    return None
                return lhs / rhs

            return eval_div
        raise PlanError(f"unknown binary operator {op!r}")

    return compile_node(expr)


class _VectorNode:
    """A compiled vector sub-expression.

    ``total`` marks evaluators that cannot raise on any row of the
    engine's value domain. Scalar AND/OR short-circuit (a False left arm
    skips the right arm entirely), so the vector form — which evaluates
    both arms over the whole column — is only allowed to combine *total*
    arms; otherwise a row the scalar path would never touch could raise.
    """

    __slots__ = ("fn", "total")

    def __init__(self, fn: VectorEvaluator, total: bool) -> None:
        self.fn = fn
        self.total = total


def _vec_unary(child: _VectorNode, cell: Callable[[Any], Any]) -> VectorEvaluator:
    def fn(batch: ColumnBatch, ctx: EvalContext) -> Any:
        result = child.fn(batch, ctx)
        if isinstance(result, Broadcast):
            return Broadcast(cell(result.value))
        return [cell(value) for value in result]

    return fn


def _vec_binary(
    left: _VectorNode, right: _VectorNode, cell: Callable[[Any, Any], Any]
) -> VectorEvaluator:
    def fn(batch: ColumnBatch, ctx: EvalContext) -> Any:
        lhs = left.fn(batch, ctx)
        rhs = right.fn(batch, ctx)
        if isinstance(lhs, Broadcast):
            if isinstance(rhs, Broadcast):
                return Broadcast(cell(lhs.value, rhs.value))
            a = lhs.value
            return [cell(a, b) for b in rhs]
        if isinstance(rhs, Broadcast):
            b = rhs.value
            return [cell(a, b) for a in lhs]
        return [cell(a, b) for a, b in zip(lhs, rhs)]

    return fn


def _vec_call(impl: Callable[..., Any], args: list[_VectorNode]) -> VectorEvaluator:
    """Map a scalar function over its argument columns, in row order.

    One call per row (none on an empty batch), exactly as the scalar
    closure makes them. A NULL-propagating builtin runs as its raw
    function with the NULL test inline — the wrapper is "any argument
    NULL → NULL, else ``fn(*args)``", so the values are the same and the
    per-cell wrapper frame, ``any()`` and generator are not paid.
    """
    raw = nullsafe_inner(impl)

    if len(args) == 1:
        (arg,) = args

        def call_unary(batch: ColumnBatch, ctx: EvalContext) -> Any:
            col = arg.fn(batch, ctx)
            if isinstance(col, Broadcast):
                col = itertools.repeat(col.value, batch.length)
            if raw is not None:
                return [None if a is None else raw(a) for a in col]
            return [impl(ctx, a) for a in col]

        return call_unary

    def call(batch: ColumnBatch, ctx: EvalContext) -> Any:
        n = batch.length
        cols = [arg.fn(batch, ctx) for arg in args]
        head = cols[0]
        if not isinstance(head, Broadcast) and all(
            isinstance(col, Broadcast) for col in cols[1:]
        ):
            # A column, then literals (``round(x, 1)``, ``substr(text, 2,
            # 3)``): bind the literals once instead of zipping them.
            tail = [col.value for col in cols[1:]]
            if raw is None:
                return [impl(ctx, a, *tail) for a in head]
            if any(value is None for value in tail):
                return Broadcast(None)
            return [None if a is None else raw(a, *tail) for a in head]
        cells = zip(
            *(
                itertools.repeat(col.value, n)
                if isinstance(col, Broadcast)
                else col
                for col in cols
            )
        )
        if raw is None:
            return [impl(ctx, *row) for row in cells]
        return [
            None if any(a is None for a in row) else raw(*row) for row in cells
        ]

    return call


def _vec_service(
    column: Callable[[EvalContext, list[Any]], list[Any]], arg: _VectorNode
) -> VectorEvaluator:
    """A web-service builtin: the batch's whole key column in one call."""
    return lambda batch, ctx: column(
        ctx, expand_column(arg.fn(batch, ctx), batch.length)
    )


def _generated_lambda(param: str, body: str) -> Callable[[Any], Any]:
    return eval(  # noqa: S307 - operands are repr'd string literals
        compile(f"lambda {param}: {body}", "<fused-projection>", "eval")
    )


def build_fused_projector(
    pairs: list[tuple[str, str]],
) -> Callable[[ColumnBatch], list[Row]]:
    """Synthesize ``batch -> [{out: <src of the row>, …} for each row]``.

    For select lists made purely of field references the fastest row
    constructor CPython offers is a literal dict display inside a list
    comprehension (one BUILD_MAP per row, keys interned at compile time)
    — measurably quicker than per-item evaluator closures or
    ``dict(zip(...))``. A batch whose row dicts exist is read through
    them (``r.get(src)``); any other — a tweet-backed batch, a columnar
    one — zips its ``src`` columns, so no intermediate row is built. The
    displays can't be written generically, so they are generated: names
    come from the parsed statement and are embedded via ``repr``, which
    yields a quoted string literal — there is no injection surface.
    """
    cells = [f"c{i}" for i in range(len(pairs))]
    by_rows = _generated_lambda("rows", "[{" + ", ".join(
        f"{out!r}: r.get({src!r})" for out, src in pairs
    ) + "} for r in rows]")
    by_columns = _generated_lambda("columns", "[{" + ", ".join(
        f"{out!r}: {cell}" for (out, _src), cell in zip(pairs, cells)
    ) + f"}} for {', '.join(cells)}, in zip(*columns)]")
    sources = [src for _out, src in pairs]

    def project(batch: ColumnBatch) -> list[Row]:
        if batch.has_rows:
            return by_rows(batch.rows)
        return by_columns([batch.values(src) for src in sources])

    return project


def compile_vector_expr(
    expr: ast.Expr,
    registry: FunctionRegistry,
    schema: tuple[str, ...],
    ctx: EvalContext,
    aliases: dict[str, ast.Expr] | None = None,
) -> VectorEvaluator | None:
    """Compile an expression to a whole-column evaluator, or None (see
    :func:`_compile_vector_node`)."""
    node = _compile_vector_node(expr, registry, schema, ctx, aliases)
    return None if node is None else node.fn


def is_total(
    expr: ast.Expr,
    registry: FunctionRegistry,
    schema: tuple[str, ...],
    ctx: EvalContext,
) -> bool:
    """True when ``expr`` has a vector form that cannot raise on any row:
    no call, no negation, no arithmetic, no bounding-box test, no dynamic
    pattern. Such an expression is a pure function of its row, so running
    it earlier or later changes nothing but the work done."""
    node = _compile_vector_node(expr, registry, schema, ctx)
    return node is not None and node.total


def _compile_vector_node(
    expr: ast.Expr,
    registry: FunctionRegistry,
    schema: tuple[str, ...],
    ctx: EvalContext,
    aliases: dict[str, ast.Expr] | None = None,
) -> _VectorNode | None:
    """Compile an expression to a whole-column evaluator, or None.

    The vector form computes ``(batch, ctx) -> list-of-values`` (or a
    :class:`Broadcast` constant) with semantics identical to the scalar
    closure applied row by row: NULL propagation, three-valued AND/OR,
    TypeError-absorbing comparisons, NULL on division by zero, and the
    same exceptions (when several rows of a batch would raise, the first
    in column order surfaces rather than the first in row order).

    A function call vectorizes when its spec is not ``stateful``, it has
    at least one argument and every argument has a vector form: the
    argument columns are evaluated once per batch and the implementation
    mapped over them in row order. A web-service builtin (``latitude``,
    ``longitude``, ``named_entities``) instead hands its whole key column
    to one :meth:`~repro.engine.latency.ManagedCall.resolve`. A field
    reference naming a select alias (``aliases``: name → the aliased
    expression) compiles that expression; the schema wins over an alias,
    as in ``compile_expr``. Returns None — the planner then keeps the
    scalar path for that expression — for anything that needs a row dict
    or whose call order is observable: stateful call sites (per-row
    state), any other high-latency call (a user UDF: its stalls depend on
    when each call runs), zero-argument calls (``now()`` is pinned to one
    row per batch anyway), aggregates, and a call under ``AND``/``OR``
    (calls can raise, and the scalar form short-circuits). Call this only
    *after* ``compile_expr`` succeeded on the same expression: plan-time
    validation (unknown fields and functions, bad patterns) is the scalar
    compiler's job and is not repeated here.
    """
    schema_set = {name.lower() for name in schema}
    aliases = aliases or {}
    lowered_aliases = {name.lower(): expr for name, expr in aliases.items()}

    def compile_node(node: ast.Expr) -> _VectorNode | None:
        if isinstance(node, ast.Literal):
            value = node.value
            return _VectorNode(lambda _batch, _ctx: Broadcast(value), total=True)

        if isinstance(node, ast.FieldRef):
            key = node.name.lower()
            if key in schema_set:
                return _VectorNode(
                    lambda batch, _ctx, key=key: batch.values(key), total=True
                )
            alias = aliases.get(node.name, lowered_aliases.get(key))
            # An aliased expression names schema fields only (compile_expr
            # resolved it without aliases), so this cannot recurse.
            return None if alias is None else compile_node(alias)

        if isinstance(node, ast.BBox):
            box = resolve_bbox(node)
            return _VectorNode(lambda _batch, _ctx: Broadcast(box), total=True)

        if isinstance(node, ast.UnaryOp):
            inner = compile_node(node.operand)
            if inner is None:
                return None
            if node.op == "NOT":
                return _VectorNode(
                    _vec_unary(
                        inner,
                        lambda v: None if v is None else not _truthy(v),
                    ),
                    total=inner.total,
                )
            if node.op == "NEG":
                # -value can raise TypeError on non-numerics, exactly as
                # the scalar path would whenever it actually evaluates.
                return _VectorNode(
                    _vec_unary(inner, lambda v: None if v is None else -v),
                    total=False,
                )
            if node.op == "IS NULL":
                return _VectorNode(
                    _vec_unary(inner, lambda v: v is None), total=inner.total
                )
            if node.op == "IS NOT NULL":
                return _VectorNode(
                    _vec_unary(inner, lambda v: v is not None),
                    total=inner.total,
                )
            return None

        if isinstance(node, ast.InList):
            operand = compile_node(node.operand)
            if operand is None:
                return None
            if all(isinstance(v, ast.Literal) for v in node.values):
                values = [v.value for v in node.values]  # type: ignore[union-attr]
                return _VectorNode(
                    _vec_unary(
                        operand,
                        lambda v, values=values: (
                            None if v is None else v in values
                        ),
                    ),
                    total=operand.total,
                )
            value_nodes = [compile_node(v) for v in node.values]
            if any(v is None for v in value_nodes):
                return None

            def eval_in(
                batch: ColumnBatch,
                context: EvalContext,
                operand=operand,
                value_nodes=value_nodes,
            ) -> Any:
                n = batch.length
                needles = expand_column(operand.fn(batch, context), n)
                cols = [
                    expand_column(v.fn(batch, context), n)  # type: ignore[union-attr]
                    for v in value_nodes
                ]
                return [
                    None
                    if needles[i] is None
                    else needles[i] in [col[i] for col in cols]
                    for i in range(n)
                ]

            return _VectorNode(
                eval_in,
                total=operand.total
                and all(v.total for v in value_nodes),  # type: ignore[union-attr]
            )

        if isinstance(node, ast.BinaryOp):
            return compile_binary(node)

        if isinstance(node, ast.FuncCall):
            if node.name in AGGREGATE_NAMES or not node.args:
                return None
            spec = registry.lookup(node.name)
            column = service_column(spec.impl) if len(node.args) == 1 else None
            if spec.stateful or (spec.high_latency and column is None):
                return None
            args = [compile_node(arg) for arg in node.args]
            if any(arg is None for arg in args):
                return None
            # Any implementation may raise (sqrt of a negative, a user
            # UDF), so a call never joins a vector AND/OR.
            return _VectorNode(
                _vec_call(spec.impl, args)  # type: ignore[arg-type]
                if column is None
                else _vec_service(column, args[0]),  # type: ignore[arg-type]
                total=False,
            )

        # Star, anything new: scalar only.
        return None

    def compile_binary(node: ast.BinaryOp) -> _VectorNode | None:
        op = node.op
        if op in ("AND", "OR"):
            left = compile_node(node.left)
            right = compile_node(node.right)
            if left is None or right is None:
                return None
            # Both arms run over the whole column, so both must be total
            # (scalar short-circuit might have skipped the right arm).
            if not (left.total and right.total):
                return None
            if op == "AND":

                def and_cell(a: Any, b: Any) -> Any:
                    if a is not None and not _truthy(a):
                        return False
                    if b is not None and not _truthy(b):
                        return False
                    if a is None or b is None:
                        return None
                    return True

                return _VectorNode(_vec_binary(left, right, and_cell), total=True)

            def or_cell(a: Any, b: Any) -> Any:
                if a is not None and _truthy(a):
                    return True
                if b is not None and _truthy(b):
                    return True
                if a is None or b is None:
                    return None
                return False

            return _VectorNode(_vec_binary(left, right, or_cell), total=True)

        if op == "CONTAINS":
            left = compile_node(node.left)
            right = compile_node(node.right)
            if left is None or right is None:
                return None
            if isinstance(node.right, ast.Literal) and node.right.value is not None:
                needle_cf = str(node.right.value).casefold()

                def eval_contains_lit(
                    batch: ColumnBatch,
                    context: EvalContext,
                    left=left,
                    needle_cf=needle_cf,
                ) -> Any:
                    texts = left.fn(batch, context)
                    if isinstance(texts, Broadcast):
                        t = texts.value
                        return Broadcast(
                            None if t is None else needle_cf in str(t).casefold()
                        )
                    return [
                        None if t is None else needle_cf in str(t).casefold()
                        for t in texts
                    ]

                return _VectorNode(eval_contains_lit, total=left.total)

            def contains_cell(a: Any, b: Any) -> Any:
                if a is None or b is None:
                    return None
                return str(b).casefold() in str(a).casefold()

            return _VectorNode(
                _vec_binary(left, right, contains_cell),
                total=left.total and right.total,
            )

        if op == "MATCHES":
            left = compile_node(node.left)
            if left is None:
                return None
            if isinstance(node.right, ast.Literal) and isinstance(
                node.right.value, str
            ):
                # Scalar compilation already validated the pattern.
                pattern = re.compile(node.right.value, re.IGNORECASE)
                search = pattern.search
                return _VectorNode(
                    _vec_unary(
                        left,
                        lambda t, search=search: (
                            None if t is None else search(str(t)) is not None
                        ),
                    ),
                    total=left.total,
                )
            right = compile_node(node.right)
            if right is None:
                return None

            def matches_cell(a: Any, b: Any) -> Any:
                if a is None or b is None:
                    return None
                return re.search(str(b), str(a), re.IGNORECASE) is not None

            # Dynamic patterns can raise re.error, like the scalar path.
            return _VectorNode(_vec_binary(left, right, matches_cell), total=False)

        if op == "LIKE":
            left = compile_node(node.left)
            if left is None:
                return None
            # Non-literal patterns were rejected at scalar compile time.
            assert isinstance(node.right, ast.Literal)
            assert isinstance(node.right.value, str)
            like = _like_matcher(node.right.value)
            return _VectorNode(
                _vec_unary(
                    left, lambda t: None if t is None else like(str(t))
                ),
                total=left.total,
            )

        if op == "IN_BBOX":
            left = compile_node(node.left)
            if left is None:
                return None
            assert isinstance(node.right, ast.BBox)
            box = resolve_bbox(node.right)

            def bbox_cell(point: Any, box: BoundingBox = box) -> Any:
                if point is None:
                    return None
                try:
                    lat, lon = point
                except (TypeError, ValueError):
                    return None
                if lat is None or lon is None:
                    return None
                return box.contains(float(lat), float(lon))

            # float() can raise ValueError on dirty data, as in scalar.
            return _VectorNode(_vec_unary(left, bbox_cell), total=False)

        if op in _COMPARE:
            left = compile_node(node.left)
            right = compile_node(node.right)
            if left is None or right is None:
                return None
            compare = _COMPARE[op]

            def compare_cell(a: Any, b: Any, compare=compare) -> Any:
                if a is None or b is None:
                    return None
                try:
                    return compare(a, b)
                except TypeError:
                    return None

            def eval_compare_vec(
                batch: ColumnBatch,
                context: EvalContext,
                left=left,
                right=right,
                compare=compare,
                compare_cell=compare_cell,
            ) -> Any:
                lhs = left.fn(batch, context)
                rhs = right.fn(batch, context)
                if isinstance(rhs, Broadcast) and not isinstance(lhs, Broadcast):
                    b = rhs.value
                    if b is None:
                        return Broadcast(None)
                    try:
                        # Fast lane: no per-cell try/except. A mixed-type
                        # column retries with the absorbing cell below.
                        return [
                            None if a is None else compare(a, b) for a in lhs
                        ]
                    except TypeError:
                        return [compare_cell(a, b) for a in lhs]
                if isinstance(lhs, Broadcast):
                    if isinstance(rhs, Broadcast):
                        return Broadcast(compare_cell(lhs.value, rhs.value))
                    a = lhs.value
                    if a is None:
                        return Broadcast(None)
                    try:
                        return [
                            None if b is None else compare(a, b) for b in rhs
                        ]
                    except TypeError:
                        return [compare_cell(a, b) for b in rhs]
                return [compare_cell(a, b) for a, b in zip(lhs, rhs)]

            return _VectorNode(
                eval_compare_vec, total=left.total and right.total
            )

        if op in ARITHMETIC:
            left = compile_node(node.left)
            right = compile_node(node.right)
            if left is None or right is None:
                return None
            arith = ARITHMETIC[op]

            def arith_cell(a: Any, b: Any, arith=arith) -> Any:
                if a is None or b is None:
                    return None
                try:
                    return arith(a, b)
                except ZeroDivisionError:
                    return None

            # TypeError propagates, exactly like the scalar path.
            return _VectorNode(_vec_binary(left, right, arith_cell), total=False)

        if op == "/":
            left = compile_node(node.left)
            right = compile_node(node.right)
            if left is None or right is None:
                return None

            def div_cell(a: Any, b: Any) -> Any:
                if a is None or b is None or b == 0:
                    return None
                return a / b

            return _VectorNode(_vec_binary(left, right, div_cell), total=False)

        return None

    return compile_node(expr)


def _truthy(value: Any) -> bool:
    """SQL truthiness: booleans as-is, numbers nonzero, strings nonempty."""
    return bool(value)


def contains_aggregate(expr: ast.Expr) -> bool:
    """True when any sub-expression is an aggregate call."""
    return any(
        isinstance(node, ast.FuncCall) and node.name in AGGREGATE_NAMES
        for node in ast.walk(expr)
    )
