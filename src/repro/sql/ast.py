"""Abstract syntax tree for TweeQL queries.

Plain frozen dataclasses; the planner walks these to build physical
operators. Every node renders back to query text via ``to_sql()`` so error
messages and the REPL's ``EXPLAIN`` stay readable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Union

Expr = Union[
    "Literal", "FieldRef", "FuncCall", "BinaryOp", "UnaryOp", "InList",
    "BBox", "Star",
]


@dataclass(frozen=True)
class Span:
    """A half-open character range ``[start, end)`` in the query source.

    The parser stamps one on every expression node so diagnostics can
    point back at the offending text with a caret snippet. Spans never
    participate in node equality — two ASTs are equal when their shapes
    are, wherever they were parsed from.
    """

    start: int
    end: int

    def union(self, other: "Span | None") -> "Span":
        if other is None:
            return self
        return Span(min(self.start, other.start), max(self.end, other.end))


#: Span field shared by every AST node: parser-stamped, equality-neutral.
def _span_field() -> Any:
    return field(default=None, compare=False, repr=False, kw_only=True)


def span_of(expr: Expr) -> Span | None:
    """The node's span, or the union of its children's spans as a fallback."""
    direct = getattr(expr, "span", None)
    if direct is not None:
        return direct
    merged: Span | None = None
    for child in walk(expr):
        child_span = getattr(child, "span", None)
        if child_span is not None:
            merged = child_span if merged is None else child_span.union(merged)
    return merged


@dataclass(frozen=True)
class Literal:
    """A constant: number, string, boolean, or NULL."""

    value: Any
    span: Span | None = _span_field()

    def to_sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return repr(self.value)


@dataclass(frozen=True)
class FieldRef:
    """A reference to a stream field or a select alias."""

    name: str
    span: Span | None = _span_field()

    def to_sql(self) -> str:
        return self.name


@dataclass(frozen=True)
class Star:
    """``SELECT *``."""

    span: Span | None = _span_field()

    def to_sql(self) -> str:
        return "*"


@dataclass(frozen=True)
class FuncCall:
    """A scalar, UDF, or aggregate call. Aggregates are resolved by the
    planner against the function registry, not at parse time."""

    name: str
    args: tuple[Expr, ...] = ()
    distinct: bool = False
    span: Span | None = _span_field()

    def to_sql(self) -> str:
        inner = ", ".join(a.to_sql() for a in self.args)
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class BinaryOp:
    """A binary operation; ``op`` is the normalized operator text.

    Operators: arithmetic ``+ - * / %``, comparisons ``= != < <= > >=``,
    boolean ``AND OR``, and the tweet-text operators ``CONTAINS`` /
    ``MATCHES`` / ``LIKE``.
    """

    op: str
    left: Expr
    right: Expr
    span: Span | None = _span_field()

    def to_sql(self) -> str:
        op = "IN" if self.op == "IN_BBOX" else self.op
        return f"({self.left.to_sql()} {op} {self.right.to_sql()})"


@dataclass(frozen=True)
class UnaryOp:
    """``NOT expr``, ``-expr``, ``expr IS NULL`` / ``expr IS NOT NULL``."""

    op: str  # "NOT", "NEG", "IS NULL", "IS NOT NULL"
    operand: Expr
    span: Span | None = _span_field()

    def to_sql(self) -> str:
        if self.op == "NEG":
            return f"(-{self.operand.to_sql()})"
        if self.op.startswith("IS"):
            return f"({self.operand.to_sql()} {self.op})"
        return f"({self.op} {self.operand.to_sql()})"


@dataclass(frozen=True)
class InList:
    """``expr IN (v1, v2, …)`` over literal values."""

    operand: Expr
    values: tuple[Expr, ...]
    span: Span | None = _span_field()

    def to_sql(self) -> str:
        inner = ", ".join(v.to_sql() for v in self.values)
        return f"({self.operand.to_sql()} IN ({inner}))"


@dataclass(frozen=True)
class BBox:
    """A geographic literal.

    Two surface forms parse to this node:

    - ``[bounding box for NYC]`` — a named box (the paper's syntax),
    - ``[bbox south, west, north, east]`` — explicit coordinates.

    Used as the right operand of ``location IN …``.
    """

    name: str | None = None
    coords: tuple[float, float, float, float] | None = None
    span: Span | None = _span_field()

    def to_sql(self) -> str:
        if self.name is not None:
            return f"[bounding box for {self.name}]"
        assert self.coords is not None
        return "[bbox " + ", ".join(f"{c:g}" for c in self.coords) + "]"


@dataclass(frozen=True)
class SelectItem:
    """One projection: an expression and its optional alias."""

    expr: Expr
    alias: str | None = None
    span: Span | None = _span_field()

    @property
    def output_name(self) -> str:
        """Column name in the result schema (alias or rendered expression)."""
        if self.alias:
            return self.alias
        if isinstance(self.expr, FieldRef):
            return self.expr.name
        return self.expr.to_sql()

    def to_sql(self) -> str:
        rendered = self.expr.to_sql()
        return f"{rendered} AS {self.alias}" if self.alias else rendered


@dataclass(frozen=True)
class WindowSpec:
    """``WINDOW n unit [EVERY m unit]``.

    Time windows (``seconds``/``minutes``/``hours``/``days``) set
    ``size_seconds``; count windows (``tweets``) set ``size_count`` — the
    §2 alternative whose inadequacy on uneven groups motivates
    confidence-triggered emission. The slide defaults to the size (a
    tumbling window) when EVERY is omitted. Mixing a time size with a
    count slide (or vice versa) is rejected by the parser; a size or slide
    that is not positive by the parser and by the constructor.
    """

    size_seconds: float | None = None
    slide_seconds: float | None = None
    size_count: int | None = None
    slide_count: int | None = None
    span: Span | None = _span_field()

    def __post_init__(self) -> None:
        if (self.size_seconds is None) == (self.size_count is None):
            raise ValueError(
                "exactly one of size_seconds / size_count must be set"
            )
        if not self.size > 0 or not self.slide > 0:
            raise ValueError("window size and slide must be positive")

    @property
    def count_based(self) -> bool:
        return self.size_count is not None

    @property
    def slide(self) -> float:
        if self.count_based:
            return float(
                self.slide_count if self.slide_count is not None else self.size_count
            )
        return (
            self.slide_seconds
            if self.slide_seconds is not None
            else self.size_seconds
        )

    @property
    def size(self) -> float:
        """The size in the window's own unit: seconds, or tweets."""
        return self.size_count if self.count_based else self.size_seconds

    @property
    def tumbling(self) -> bool:
        return self.slide >= self.size

    def to_sql(self) -> str:
        if self.count_based:
            text = f"WINDOW {self.size_count} TWEETS"
            if self.slide_count is not None:
                text += f" EVERY {self.slide_count} TWEETS"
            return text
        text = f"WINDOW {self.size_seconds:g} SECONDS"
        if self.slide_seconds is not None:
            text += f" EVERY {self.slide_seconds:g} SECONDS"
        return text


@dataclass(frozen=True)
class ConfidenceSpec:
    """``WINDOW CONFIDENCE halfwidth [MAX n unit]``.

    The paper's "construct for windowing that measures confidence in the
    aggregated result": each group emits its AVG once the confidence
    interval's half-width is at most ``halfwidth`` (in the aggregated
    quantity's units), or ``max_age_seconds`` after its first tweet,
    whichever comes first. MAX defaults to three hours, the
    :class:`~repro.engine.confidence.ConfidencePolicy` default; the parser
    rejects a half-width that is not positive.
    """

    halfwidth: float
    max_age_seconds: float = 3 * 3600.0
    span: Span | None = _span_field()

    def to_sql(self) -> str:
        return (
            f"WINDOW CONFIDENCE {self.halfwidth:g} "
            f"MAX {self.max_age_seconds:g} SECONDS"
        )


@dataclass(frozen=True)
class JoinClause:
    """``JOIN source ON condition`` (windowed stream join)."""

    source: str
    condition: Expr
    alias: str | None = None


@dataclass(frozen=True)
class SelectStatement:
    """A full TweeQL query."""

    select: tuple[SelectItem, ...]
    source: str
    source_alias: str | None = None
    join: JoinClause | None = None
    where: Expr | None = None
    group_by: tuple[Expr, ...] = ()
    window: WindowSpec | None = None
    confidence: ConfidenceSpec | None = None
    having: Expr | None = None
    limit: int | None = None
    into: str | None = None
    into_stream: str | None = None
    order_by: tuple[tuple[Expr, bool], ...] = ()  # (expr, descending)

    def to_sql(self) -> str:
        parts = ["SELECT " + ", ".join(item.to_sql() for item in self.select)]
        parts.append(f"FROM {self.source}")
        if self.join is not None:
            parts.append(
                f"JOIN {self.join.source} ON {self.join.condition.to_sql()}"
            )
        if self.where is not None:
            parts.append(f"WHERE {self.where.to_sql()}")
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(g.to_sql() for g in self.group_by))
        if self.window is not None:
            parts.append(self.window.to_sql())
        if self.confidence is not None:
            parts.append(self.confidence.to_sql())
        if self.having is not None:
            parts.append(f"HAVING {self.having.to_sql()}")
        if self.order_by:
            rendered = ", ".join(
                f"{expr.to_sql()} {'DESC' if desc else 'ASC'}"
                for expr, desc in self.order_by
            )
            parts.append(f"ORDER BY {rendered}")
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        if self.into is not None:
            parts.append(f"INTO {self.into}")
        if self.into_stream is not None:
            parts.append(f"INTO STREAM {self.into_stream}")
        return " ".join(parts) + ";"


def walk(expr: Expr):
    """Yield ``expr`` and every sub-expression, depth-first."""
    yield expr
    if isinstance(expr, FuncCall):
        for arg in expr.args:
            yield from walk(arg)
    elif isinstance(expr, BinaryOp):
        yield from walk(expr.left)
        yield from walk(expr.right)
    elif isinstance(expr, UnaryOp):
        yield from walk(expr.operand)
    elif isinstance(expr, InList):
        yield from walk(expr.operand)
        for value in expr.values:
            yield from walk(value)


def split_conjuncts(expr: Expr | None) -> list[Expr]:
    """Flatten a WHERE tree into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def statement_exprs(statement: SelectStatement) -> list[Expr]:
    """Every expression a statement evaluates: select items, WHERE, GROUP
    BY keys, HAVING and ORDER BY (not the join condition)."""
    exprs: list[Expr] = [
        item.expr for item in statement.select if not isinstance(item.expr, Star)
    ]
    if statement.where is not None:
        exprs.append(statement.where)
    exprs.extend(statement.group_by)
    if statement.having is not None:
        exprs.append(statement.having)
    exprs.extend(expr for expr, _desc in statement.order_by)
    return exprs


def field_names(expr: Expr) -> set[str]:
    """All field names referenced anywhere in ``expr``."""
    return {node.name for node in walk(expr) if isinstance(node, FieldRef)}
