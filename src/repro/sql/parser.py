"""Recursive-descent parser for the TweeQL dialect.

Grammar (roughly; ``[]`` optional, ``{}`` repetition)::

    statement   := SELECT select_list FROM source [JOIN source ON expr]
                   [WHERE expr] [GROUP BY expr {, expr}] [window]
                   [HAVING expr] [ORDER BY expr [ASC|DESC] {, …}]
                   [LIMIT int] [INTO [STREAM] ident] [;]
    select_list := * | item {, item}
    item        := expr [[AS] ident]
    window      := WINDOW number unit [EVERY number unit]
                 | WINDOW CONFIDENCE number [MAX number time_unit]
    unit        := time_unit | TWEET[S]
    time_unit   := SECOND[S] | MINUTE[S] | HOUR[S] | DAY[S]

``CONFIDENCE``, ``MAX`` and ``STREAM`` are soft keywords: identifiers
everywhere but in these clauses, so ``max(followers)`` and a field named
``confidence`` still parse.

Expressions use conventional precedence (OR < AND < NOT < comparison <
additive < multiplicative < unary), with the tweet-specific ``CONTAINS``,
``MATCHES``, and ``LIKE`` at comparison precedence, ``IS [NOT] NULL``,
``[NOT] IN (…)``, ``BETWEEN a AND b`` (desugared), and the geographic
literal ``[bounding box for NYC]`` / ``[bbox s, w, n, e]``.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.sql.ast import (
    BBox,
    BinaryOp,
    ConfidenceSpec,
    Expr,
    FieldRef,
    FuncCall,
    InList,
    JoinClause,
    Literal,
    SelectItem,
    SelectStatement,
    Span,
    Star,
    UnaryOp,
    WindowSpec,
    span_of,
)
from repro.sql.lexer import Token, TokenType, tokenize

_UNIT_SECONDS = {
    "SECOND": 1.0,
    "SECONDS": 1.0,
    "MINUTE": 60.0,
    "MINUTES": 60.0,
    "HOUR": 3600.0,
    "HOURS": 3600.0,
    "DAY": 86400.0,
    "DAYS": 86400.0,
}

_COMPARISON_OPS = ("=", "==", "!=", "<>", "<", "<=", ">", ">=")


class _Parser:
    """Token-cursor parser; one instance per query string."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- cursor helpers -----------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._current
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _error(self, message: str, at: Token | None = None) -> ParseError:
        """A ParseError pointing at ``at`` (default: the current token).

        Every parser raise goes through here so the error always carries
        the offending token's text and source position — the analyzer's
        caret renderer depends on both being populated.
        """
        token = at if at is not None else self._current
        shown = token.value or "<end of query>"
        return ParseError(
            f"{message} (got {shown!r} at position {token.position})",
            token=token.value,
            position=token.position,
            end=token.end,
        )

    @property
    def _prev_end(self) -> int:
        """End offset of the most recently consumed token."""
        return self._tokens[max(0, self._pos - 1)].end

    @staticmethod
    def _merge(left: Expr, right: Expr) -> Span | None:
        lspan, rspan = span_of(left), span_of(right)
        if lspan is None:
            return rspan
        return lspan.union(rspan)

    def _expect_keyword(self, *names: str) -> Token:
        if self._current.is_keyword(*names):
            return self._advance()
        raise self._error(f"expected {' or '.join(names)}")

    def _expect_op(self, op: str) -> Token:
        if self._current.is_op(op):
            return self._advance()
        raise self._error(f"expected {op!r}")

    def _accept_keyword(self, *names: str) -> bool:
        if self._current.is_keyword(*names):
            self._advance()
            return True
        return False

    def _accept_op(self, op: str) -> bool:
        if self._current.is_op(op):
            self._advance()
            return True
        return False

    def _accept_soft_keyword(self, name: str) -> bool:
        """Consume an identifier spelled ``name`` (any case), if current."""
        token = self._current
        if token.type is TokenType.IDENT and token.value.upper() == name:
            self._advance()
            return True
        return False

    def _expect_ident(self, what: str) -> str:
        if self._current.type is TokenType.IDENT:
            return self._advance().value
        raise self._error(f"expected {what}")

    # -- statement ----------------------------------------------------------

    def parse_statement(self) -> SelectStatement:
        self._expect_keyword("SELECT")
        select = self._parse_select_list()

        self._expect_keyword("FROM")
        source = self._expect_ident("stream source name")
        source_alias: str | None = None
        if self._current.type is TokenType.IDENT:
            source_alias = self._advance().value

        join: JoinClause | None = None
        if self._accept_keyword("JOIN"):
            join_source = self._expect_ident("join source name")
            join_alias: str | None = None
            if self._current.type is TokenType.IDENT:
                join_alias = self._advance().value
            self._expect_keyword("ON")
            condition = self._parse_expr()
            join = JoinClause(source=join_source, condition=condition, alias=join_alias)

        where: Expr | None = None
        if self._accept_keyword("WHERE"):
            where = self._parse_expr()

        group_by: tuple[Expr, ...] = ()
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by = tuple(self._parse_expr_list())

        window: WindowSpec | None = None
        confidence: ConfidenceSpec | None = None
        if self._current.is_keyword("WINDOW"):
            start = self._advance().position
            if self._accept_soft_keyword("CONFIDENCE"):
                confidence = self._parse_confidence(start)
            else:
                window = self._parse_window(start)

        having: Expr | None = None
        if self._accept_keyword("HAVING"):
            having = self._parse_expr()

        order_by: list[tuple[Expr, bool]] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            while True:
                expr = self._parse_expr()
                descending = False
                if self._accept_keyword("DESC"):
                    descending = True
                else:
                    self._accept_keyword("ASC")
                order_by.append((expr, descending))
                if not self._accept_op(","):
                    break

        limit: int | None = None
        if self._accept_keyword("LIMIT"):
            token = self._current
            if token.type is not TokenType.NUMBER:
                raise self._error("expected an integer after LIMIT")
            self._advance()
            limit = int(float(token.value))

        into: str | None = None
        into_stream: str | None = None
        if self._accept_keyword("INTO"):
            # INTO STREAM <name> registers a derived stream; INTO <name>
            # tees into a result table. STREAM is not reserved, so it
            # arrives as an identifier.
            first = self._expect_ident("table or stream name after INTO")
            if (
                first.upper() == "STREAM"
                and self._current.type is TokenType.IDENT
            ):
                into_stream = self._advance().value
            else:
                into = first

        self._accept_op(";")
        if self._current.type is not TokenType.EOF:
            raise self._error("unexpected trailing input")

        return SelectStatement(
            select=tuple(select),
            source=source,
            source_alias=source_alias,
            join=join,
            where=where,
            group_by=group_by,
            window=window,
            confidence=confidence,
            having=having,
            limit=limit,
            into=into,
            into_stream=into_stream,
            order_by=tuple(order_by),
        )

    def _parse_select_list(self) -> list[SelectItem]:
        items: list[SelectItem] = []
        while True:
            if self._current.is_op("*"):
                star = self._advance()
                star_span = Span(star.position, star.end)
                items.append(SelectItem(Star(span=star_span), span=star_span))
            else:
                start = self._current.position
                expr = self._parse_expr()
                alias: str | None = None
                if self._accept_keyword("AS"):
                    # Aliases may collide with soft keywords like "long".
                    if self._current.type in (TokenType.IDENT, TokenType.KEYWORD):
                        alias = self._advance().value
                    else:
                        raise self._error("expected alias name after AS")
                elif self._current.type is TokenType.IDENT:
                    alias = self._advance().value
                items.append(
                    SelectItem(expr, alias, span=Span(start, self._prev_end))
                )
            if not self._accept_op(","):
                return items

    def _parse_expr_list(self) -> list[Expr]:
        exprs = [self._parse_expr()]
        while self._accept_op(","):
            exprs.append(self._parse_expr())
        return exprs

    def _parse_window(self, start: int) -> WindowSpec:
        size, size_is_count = self._parse_duration()
        slide: float | None = None
        slide_is_count = size_is_count
        if self._accept_keyword("EVERY"):
            slide_at = self._current
            slide, slide_is_count = self._parse_duration()
            if slide_is_count != size_is_count:
                raise self._error(
                    "window size and EVERY slide must both be time or both "
                    "be tweet counts",
                    at=slide_at,
                )
        span = Span(start, self._prev_end)
        if size_is_count:
            return WindowSpec(
                size_count=int(size),
                slide_count=int(slide) if slide is not None else None,
                span=span,
            )
        return WindowSpec(size_seconds=size, slide_seconds=slide, span=span)

    def _parse_confidence(self, start: int) -> ConfidenceSpec:
        token = self._current
        if token.type is not TokenType.NUMBER:
            raise self._error("expected a half-width number after CONFIDENCE")
        self._advance()
        halfwidth = float(token.value)
        if halfwidth <= 0:
            raise self._error(
                "the confidence half-width must be positive", at=token
            )
        if not self._accept_soft_keyword("MAX"):
            return ConfidenceSpec(halfwidth, span=Span(start, self._prev_end))
        age_at = self._current
        max_age, is_count = self._parse_duration()
        if is_count:
            raise self._error(
                "MAX takes a time unit (seconds/minutes/hours/days)", at=age_at
            )
        return ConfidenceSpec(
            halfwidth, max_age, span=Span(start, self._prev_end)
        )

    def _parse_duration(self) -> tuple[float, bool]:
        """Returns (magnitude, is_count): seconds, or a tweet count."""
        token = self._current
        if token.type is not TokenType.NUMBER:
            raise self._error("expected a number in window duration")
        self._advance()
        magnitude = float(token.value)
        unit = self._current
        if unit.type is TokenType.KEYWORD and unit.value in _UNIT_SECONDS:
            self._advance()
            if magnitude <= 0:
                raise self._error(
                    "time windows need a positive duration", at=token
                )
            return magnitude * _UNIT_SECONDS[unit.value], False
        if unit.is_keyword("TWEET", "TWEETS"):
            self._advance()
            if magnitude != int(magnitude) or magnitude <= 0:
                raise self._error(
                    "tweet-count windows need a positive integer", at=token
                )
            return magnitude, True
        raise self._error(
            "expected a time unit (seconds/minutes/hours/days) or TWEETS"
        )

    # -- expressions --------------------------------------------------------

    def _parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self._accept_keyword("OR"):
            right = self._parse_and()
            left = BinaryOp("OR", left, right, span=self._merge(left, right))
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        while self._accept_keyword("AND"):
            right = self._parse_not()
            left = BinaryOp("AND", left, right, span=self._merge(left, right))
        return left

    def _parse_not(self) -> Expr:
        if self._current.is_keyword("NOT"):
            start = self._advance().position
            operand = self._parse_not()
            inner = span_of(operand)
            span = Span(start, inner.end if inner else self._prev_end)
            return UnaryOp("NOT", operand, span=span)
        return self._parse_comparison()

    def _parse_comparison(self) -> Expr:
        left = self._parse_additive()
        token = self._current
        if token.type is TokenType.OP and token.value in _COMPARISON_OPS:
            self._advance()
            op = "=" if token.value == "==" else token.value
            right = self._parse_additive()
            return BinaryOp(op, left, right, span=self._merge(left, right))
        if token.is_keyword("CONTAINS", "MATCHES", "LIKE"):
            self._advance()
            right = self._parse_additive()
            return BinaryOp(
                token.value, left, right, span=self._merge(left, right)
            )
        if token.is_keyword("IS"):
            self._advance()
            negated = self._accept_keyword("NOT")
            self._expect_keyword("NULL")
            lspan = span_of(left)
            span = Span(
                lspan.start if lspan else token.position, self._prev_end
            )
            return UnaryOp(
                "IS NOT NULL" if negated else "IS NULL", left, span=span
            )
        if token.is_keyword("BETWEEN"):
            self._advance()
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            return BinaryOp(
                "AND",
                BinaryOp(">=", left, low, span=self._merge(left, low)),
                BinaryOp("<=", left, high, span=self._merge(left, high)),
                span=self._merge(left, high),
            )
        negated_in = False
        if token.is_keyword("NOT"):
            # NOT here can only begin NOT IN (bare NOT was consumed earlier).
            self._advance()
            self._expect_keyword("IN")
            negated_in = True
            token = self._current
        elif token.is_keyword("IN"):
            self._advance()
        else:
            return left
        result = self._parse_in_rhs(left)
        if negated_in:
            return UnaryOp("NOT", result, span=span_of(result))
        return result

    def _parse_in_rhs(self, operand: Expr) -> Expr:
        if self._current.is_op("["):
            bbox = self._parse_bbox()
            return BinaryOp(
                "IN_BBOX", operand, bbox, span=self._merge(operand, bbox)
            )
        self._expect_op("(")
        values = [self._parse_expr()]
        while self._accept_op(","):
            values.append(self._parse_expr())
        self._expect_op(")")
        ospan = span_of(operand)
        span = Span(
            ospan.start if ospan else self._prev_end, self._prev_end
        )
        return InList(operand, tuple(values), span=span)

    def _parse_bbox(self) -> BBox:
        open_token = self._expect_op("[")
        start = open_token.position
        if self._accept_keyword("BOUNDING"):
            self._expect_keyword("BOX")
            self._expect_keyword("FOR")
            name_parts: list[str] = []
            while not self._current.is_op("]"):
                token = self._advance()
                if token.type is TokenType.EOF:
                    raise self._error("unterminated bounding box literal")
                name_parts.append(token.value)
            self._expect_op("]")
            if not name_parts:
                raise self._error("bounding box name missing")
            return BBox(
                name=" ".join(name_parts), span=Span(start, self._prev_end)
            )
        # [bbox south, west, north, east]
        head = self._current
        if head.type is TokenType.IDENT and head.value.lower() == "bbox":
            self._advance()
            coords: list[float] = []
            for index in range(4):
                if index:
                    self._expect_op(",")
                sign = -1.0 if self._accept_op("-") else 1.0
                token = self._current
                if token.type is not TokenType.NUMBER:
                    raise self._error("expected a coordinate number")
                self._advance()
                coords.append(sign * float(token.value))
            self._expect_op("]")
            return BBox(
                coords=(coords[0], coords[1], coords[2], coords[3]),
                span=Span(start, self._prev_end),
            )
        raise self._error("expected 'bounding box for <name>' or 'bbox s, w, n, e'")

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while self._current.is_op("+", "-"):
            op = self._advance().value
            right = self._parse_multiplicative()
            left = BinaryOp(op, left, right, span=self._merge(left, right))
        return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while self._current.is_op("*", "/", "%"):
            op = self._advance().value
            right = self._parse_unary()
            left = BinaryOp(op, left, right, span=self._merge(left, right))
        return left

    def _parse_unary(self) -> Expr:
        if self._current.is_op("-"):
            start = self._advance().position
            operand = self._parse_unary()
            return UnaryOp("NEG", operand, span=Span(start, self._prev_end))
        if self._accept_op("+"):
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self._current
        tspan = Span(token.position, token.end)
        if token.type is TokenType.NUMBER:
            self._advance()
            text = token.value
            return Literal(
                float(text) if "." in text else int(text), span=tspan
            )
        if token.type is TokenType.STRING:
            self._advance()
            return Literal(token.value, span=tspan)
        if token.is_keyword("NULL"):
            self._advance()
            return Literal(None, span=tspan)
        if token.is_keyword("TRUE"):
            self._advance()
            return Literal(True, span=tspan)
        if token.is_keyword("FALSE"):
            self._advance()
            return Literal(False, span=tspan)
        if token.is_op("("):
            self._advance()
            inner = self._parse_expr()
            self._expect_op(")")
            return inner
        if token.is_op("["):
            return self._parse_bbox()
        if token.type is TokenType.IDENT:
            self._advance()
            if self._accept_op("("):
                return self._finish_call(token.value, token.position)
            return FieldRef(token.value, span=tspan)
        # Soft keywords: time units double as builtin function names
        # (``hour(created_at)``) when directly followed by '('.
        if (
            token.type is TokenType.KEYWORD
            and token.value in _UNIT_SECONDS
            and self._tokens[self._pos + 1].is_op("(")
        ):
            self._advance()  # the keyword
            self._advance()  # '('
            return self._finish_call(token.value, token.position)
        raise self._error("expected an expression")

    def _finish_call(self, name: str, start: int) -> FuncCall:
        distinct = self._accept_keyword("DISTINCT")
        args: list[Expr] = []
        if not self._current.is_op(")"):
            while True:
                if self._current.is_op("*"):
                    star = self._advance()
                    args.append(Star(span=Span(star.position, star.end)))
                else:
                    args.append(self._parse_expr())
                if not self._accept_op(","):
                    break
        self._expect_op(")")
        return FuncCall(
            name=name.lower(),
            args=tuple(args),
            distinct=distinct,
            span=Span(start, self._prev_end),
        )


def parse(query: str) -> SelectStatement:
    """Parse a TweeQL query string into a :class:`SelectStatement`.

    Raises:
        LexError: on malformed tokens.
        ParseError: on malformed syntax.
    """
    return _Parser(tokenize(query)).parse_statement()
