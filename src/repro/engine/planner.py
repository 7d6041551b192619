"""Query planning: AST → physical operator pipeline.

The planner implements the decisions the paper describes:

1. **API filter choice** ("Uncertain Selectivities"): the WHERE clause is
   split into conjuncts; conjuncts expressible as streaming-API filters
   (keyword ``track``, geographic ``locations``, userid ``follow``) become
   candidates, their selectivities are estimated from a shared
   ``statuses/sample`` draw, and the rarest is pushed to the API. The rest
   stay local.
2. **Adaptive local filtering** (Eddies): the local conjuncts form one
   :class:`~repro.engine.operators.FilterOperator`, which reorders the
   ones that cannot raise by the work each saves per row it drops.
3. **High-latency UDFs**: latitude/longitude/named_entities compile to
   whole-column nodes that resolve each batch's keys with one
   :meth:`~repro.engine.latency.ManagedCall.resolve`, so the latency
   mode's batching or async pool sees a batch of keys at a time.
4. **Aggregation**: windowed GROUP BY for ``WINDOW n unit``;
   confidence-triggered emission (CONTROL-style) for ``WINDOW CONFIDENCE``,
   with the clause's :class:`~repro.engine.confidence.ConfidencePolicy`.

The planner re-checks nothing: :meth:`Planner.plan` raises the analyzer's
first gating error (:mod:`repro.sql.analysis.semantic`) before it builds
anything, so every stage below may assume a well-formed statement.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from typing import Any

from repro.engine import operators as ops
from repro.engine.aggregates import AGGREGATE_NAMES, make_aggregate
from repro.engine.confidence import ConfidenceAggregateOperator, ConfidencePolicy
from repro.engine.expressions import (
    Evaluator,
    VectorEvaluator,
    build_fused_projector,
    compile_expr,
    compile_vector_expr,
    contains_aggregate,
    is_total,
    resolve_bbox,
)
from repro.engine.functions import FunctionRegistry
from repro.engine.selectivity import FilterCandidate, FilterChoice, choose_api_filter
from repro.engine.types import (
    DEFAULT_BATCH_SIZE,
    ColumnBatch,
    EvalContext,
    Row,
    iter_rows,
)
from repro.sql import ast
from repro.sql.ast import split_conjuncts
from repro.twitter.models import TWITTER_SCHEMA, track_rule

# ---------------------------------------------------------------------------
# Source bindings
# ---------------------------------------------------------------------------


@dataclass
class SourceBinding:
    """One FROM-able source.

    ``api`` is set for the live ``twitter`` source; ``rows_factory`` for
    registered static/test sources (each call returns a fresh row iterator);
    ``upstream`` for an ``INTO STREAM`` stream, the statement whose rows it
    is (each reader runs a fresh plan of it, see :meth:`Planner.rows`);
    ``feed`` for a shared-scan tenant's routed source, a
    :class:`~repro.engine.operators.ScanSource` that has applied the
    statement's WHERE clause already and carries the ``explain_lines``
    that say how.
    """

    name: str
    schema: tuple[str, ...]
    api: Any = None  # StreamingAPI | None
    rows_factory: Callable[[], Iterable[Row]] | None = None
    upstream: ast.SelectStatement | None = None
    feed: Any = None


@dataclass
class PhysicalPlan:
    """The executable result of planning one statement.

    ``pipeline`` yields :class:`~repro.engine.types.ColumnBatch` units; the
    executor flattens them back to rows at the API boundary.
    """

    pipeline: Iterable[ColumnBatch]
    output_schema: tuple[str, ...]
    ctx: EvalContext
    explain_lines: list[str] = field(default_factory=list)
    filter_choice: FilterChoice | None = None
    connections: list[Any] = field(default_factory=list)
    #: Callbacks that tear down plan-owned resources when the handle lets
    #: go of the pipeline, told whether it was abandoned mid-stream (a
    #: shared-scan tenant is then detached rather than done).
    closers: list[Callable[[bool], None]] = field(default_factory=list)
    #: Span recorder (:class:`repro.obs.trace.Tracer`) when
    #: ``EngineConfig.tracing`` was on at plan time; None otherwise, in
    #: which case the pipeline carries no instrumentation at all.
    tracer: Any = None
    #: Invariant checker (:class:`repro.engine.sanitizer.Sanitizer`) when
    #: ``EngineConfig.sanitize`` / ``TWEEQL_SAN=1`` was on at plan time;
    #: None otherwise (zero sanitize wrappers, like tracing).
    sanitizer: Any = None
    #: Rows served from the historical store before the live tail took
    #: over (set at run time by the hybrid backfill source; 0 otherwise).
    backfill_rows: int = 0
    #: Rows per batch this plan's scans frame. Stages get whole-column
    #: (vector) evaluators only above 1: a one-row column costs more than
    #: the scalar closure it would replace.
    batch_size: int = DEFAULT_BATCH_SIZE

    def explain(self) -> str:
        """Human-readable plan description."""
        return "\n".join(self.explain_lines)


class TweetSource:
    """The live ``twitter`` source: the connection's chunks of delivered
    tweets, scanned as tweet-backed batches.

    The API connection opens only on the first pull. Planning must not
    consume scarce streaming connections: a session may plan (EXPLAIN)
    many queries without running them, and the real API's connection
    budget was tiny. The connection is registered on the plan at open
    time so :meth:`QueryHandle.close` can cancel it.
    """

    batch = staticmethod(ColumnBatch.from_tweets)

    def __init__(
        self, open_connection: Callable[[], Any], plan: "PhysicalPlan"
    ) -> None:
        self._open_connection = open_connection
        self._plan = plan

    def open(self) -> Any:
        """Open the connection and register it on the plan."""
        connection = self._open_connection()
        connection.tracer = self._plan.tracer
        self._plan.connections.append(connection)
        return connection

    def chunks(self, size: int) -> Iterator[list[Any]]:
        yield from self.open().chunks(size)

    def rows(self) -> Iterator[Row]:
        """One ``twitter`` row per delivered tweet (a join's right input,
        which the join pulls a row at a time)."""
        for tweet in self.open():
            yield tweet.to_row()


class BackfillSource:
    """Historical tweets up to the store's watermark, then the live tail
    strictly above it, framed as one tweet stream (see
    :meth:`Planner._maybe_backfill`)."""

    batch = staticmethod(ColumnBatch.from_tweets)

    def __init__(
        self,
        store: Any,
        live: TweetSource,
        server_matches: Callable[[Any], bool] | None,
        window: tuple[float | None, float | None],
        plan: "PhysicalPlan",
    ) -> None:
        self._store = store
        self._live = live
        self._server_matches = server_matches
        self._window = window
        self._plan = plan

    def chunks(self, size: int) -> Iterator[list[Any]]:
        """Frames of ``size`` tweets, as the row-at-a-time splice
        (``ops.frame`` over the store's tweets, then each live tweet at
        or above the cut) frames them.

        The store is read a decoded fetch at a time. The live tail opens
        once history is exhausted: the replayed head of the stream is
        delivered and discarded in one pass (:meth:`~repro.twitter.stream.
        StreamConnection.skip_before`), and the tail is taken in lists
        that complete each frame exactly, so at every frame boundary the
        connection, its clock and its counters stand where the splice
        leaves them.
        """
        start, end = self._window
        watermark = self._store.watermark()
        cut = None
        if watermark is not None:
            # nextafter makes the backfill half-open bound include rows
            # at exactly the watermark.
            cut = math.nextafter(watermark, math.inf)
            if end is not None:
                cut = min(cut, end)
        matches = self._server_matches
        served = 0
        pending: list[Any] = []
        if cut is not None and (start is None or start < cut):
            for tweets in self._store.scan_chunks(start, cut):
                if matches is not None:
                    tweets = list(filter(matches, tweets))
                served += len(tweets)
                pending += tweets
                full = len(pending) - len(pending) % size
                for at in range(0, full, size):
                    yield pending[at : at + size]
                pending = pending[full:]
        self._plan.backfill_rows = served
        connection = self._live.open()
        try:
            if cut is not None:
                # History already served this timestamp range.
                connection.skip_before(cut)
            chunk = pending + connection.take(size - len(pending))
            while len(chunk) == size:
                yield chunk
                chunk = connection.take(size)
        finally:
            # The stream ended (or the scan was abandoned): the connection
            # closes before the short frame goes out, as a drained
            # per-tweet read closes it.
            connection.close()
        yield chunk


# ---------------------------------------------------------------------------
# Helpers: conjunct costs and API-candidate extraction
# ---------------------------------------------------------------------------


#: Static cost classes of a conjunct, by the costliest test it runs: a
#: comparison, a substring scan, a regex search, a ``LIKE`` match. Per row
#: over the soccer firehose (seed 7, best of 5, CPython 3.11, 2 vCPUs):
#: ``LIKE '%goal%'`` 1.18–1.29 µs, ``MATCHES 'g[oa]+l'`` 0.61–0.65 µs,
#: casefold ``contains`` 0.27–0.32 µs.
_LIKE_COST, _REGEX_COST, _SUBSTRING_COST, _COMPARE_COST = 8, 4, 2, 1


def _cost_class(expr: ast.Expr) -> int:
    ops_used = {
        node.op for node in ast.walk(expr) if isinstance(node, ast.BinaryOp)
    }
    if "LIKE" in ops_used:
        return _LIKE_COST
    if "MATCHES" in ops_used:
        return _REGEX_COST
    if "CONTAINS" in ops_used:
        return _SUBSTRING_COST
    return _COMPARE_COST


def _time_window(
    conjuncts: list[ast.Expr],
) -> tuple[float | None, float | None]:
    """``created_at`` literal bounds as a (start, end) superset window.

    Reads ``created_at <cmp> <literal>`` conjuncts (either operand
    order) and returns conservative *scan* bounds for the backfill
    split: strict bounds are widened to their inclusive neighbors, so
    the store range scan may return a few extra boundary rows — the
    window conjuncts stay in the local filter stage, which drops them.
    (None, None) means no recognizable window (whole-store backfill).
    """
    start: float | None = None
    end: float | None = None

    def bound(op: str, value: float) -> None:
        nonlocal start, end
        if op in (">=", ">"):
            start = value if start is None else max(start, value)
        elif op == "<":
            end = value if end is None else min(end, value)
        elif op == "<=":
            widened = math.nextafter(value, math.inf)
            end = widened if end is None else min(end, widened)

    _FLIP = {">": "<", "<": ">", ">=": "<=", "<=": ">="}
    for conjunct in conjuncts:
        if not (
            isinstance(conjunct, ast.BinaryOp)
            and conjunct.op in _FLIP
        ):
            continue
        left, right, op = conjunct.left, conjunct.right, conjunct.op
        if not isinstance(left, ast.FieldRef):
            # ``<literal> <cmp> created_at`` — normalize the orientation.
            left, right, op = right, left, _FLIP[op]
        if (
            isinstance(left, ast.FieldRef)
            and left.name.lower() == "created_at"
            and isinstance(right, ast.Literal)
            and isinstance(right.value, (int, float))
            and not isinstance(right.value, bool)
        ):
            bound(op, float(right.value))
    return start, end


def _track_keywords(expr: ast.Expr) -> list[str] | None:
    """Keywords when ``expr`` is (an OR of) ``text CONTAINS <literal>``."""
    if isinstance(expr, ast.BinaryOp) and expr.op == "OR":
        left = _track_keywords(expr.left)
        right = _track_keywords(expr.right)
        if left is not None and right is not None:
            return left + right
        return None
    if (
        isinstance(expr, ast.BinaryOp)
        and expr.op == "CONTAINS"
        and isinstance(expr.left, ast.FieldRef)
        and expr.left.name.lower() == "text"
        and isinstance(expr.right, ast.Literal)
        and isinstance(expr.right.value, str)
    ):
        return [expr.right.value]
    return None


def _bbox_filter(expr: ast.Expr):
    """BoundingBox when ``expr`` is ``location IN [bounding box …]``."""
    if (
        isinstance(expr, ast.BinaryOp)
        and expr.op == "IN_BBOX"
        and isinstance(expr.left, ast.FieldRef)
        and expr.left.name.lower() in ("location", "geo", "point")
        and isinstance(expr.right, ast.BBox)
    ):
        return resolve_bbox(expr.right)
    return None


def _follow_ids(expr: ast.Expr) -> list[int] | None:
    """User ids when ``expr`` is ``user_id = n`` or ``user_id IN (…)``."""
    if (
        isinstance(expr, ast.BinaryOp)
        and expr.op == "="
        and isinstance(expr.left, ast.FieldRef)
        and expr.left.name.lower() == "user_id"
        and isinstance(expr.right, ast.Literal)
        and isinstance(expr.right.value, int)
    ):
        return [expr.right.value]
    if (
        isinstance(expr, ast.InList)
        and isinstance(expr.operand, ast.FieldRef)
        and expr.operand.name.lower() == "user_id"
        and all(
            isinstance(v, ast.Literal) and isinstance(v.value, int)
            for v in expr.values
        )
    ):
        return [v.value for v in expr.values]  # type: ignore[union-attr]
    return None


def extract_api_candidates(
    conjuncts: list[ast.Expr],
) -> list[tuple[int, FilterCandidate]]:
    """(conjunct index, candidate) pairs for API-eligible conjuncts."""
    found: list[tuple[int, FilterCandidate]] = []
    for index, conjunct in enumerate(conjuncts):
        keywords = _track_keywords(conjunct)
        if keywords is not None:
            kw = tuple(keywords)
            found.append(
                (
                    index,
                    FilterCandidate(
                        kind="track",
                        description=f"track({', '.join(kw)})",
                        api_kwargs={"track": kw},
                        matches=track_rule(kw),
                    ),
                )
            )
            continue
        box = _bbox_filter(conjunct)
        if box is not None:
            found.append(
                (
                    index,
                    FilterCandidate(
                        kind="locations",
                        description=f"locations({box.name or box})",
                        api_kwargs={"locations": (box,)},
                        matches=lambda tweet, box=box: box.contains_point(tweet.geo),
                    ),
                )
            )
            continue
        ids = _follow_ids(conjunct)
        if ids is not None:
            id_set = frozenset(ids)
            found.append(
                (
                    index,
                    FilterCandidate(
                        kind="follow",
                        description=f"follow({len(id_set)} users)",
                        api_kwargs={"follow": tuple(id_set)},
                        matches=lambda tweet, ids=id_set: tweet.user.user_id in ids,
                    ),
                )
            )
    return found


def _has_aggregates(statement: ast.SelectStatement) -> bool:
    """Aggregate-mode test, defined once in the analyzer (lazy import: the
    analysis package depends on engine modules)."""
    from repro.sql.analysis.semantic import statement_has_aggregates

    return statement_has_aggregates(statement)


# ---------------------------------------------------------------------------
# Aggregate rewriting
# ---------------------------------------------------------------------------


@dataclass
class AggSite:
    """One distinct aggregate call site across SELECT/HAVING/ORDER BY."""

    call: ast.FuncCall
    placeholder: str  # "__agg<i>"


def _rewrite_aggregates(
    expr: ast.Expr, sites: list[AggSite], by_sql: dict[str, AggSite]
) -> ast.Expr:
    """Replace aggregate calls with placeholder field refs, registering
    each distinct call (by rendered SQL) once."""
    if isinstance(expr, ast.FuncCall):
        if expr.name in AGGREGATE_NAMES:
            key = expr.to_sql()
            site = by_sql.get(key)
            if site is None:
                site = AggSite(call=expr, placeholder=f"__agg{len(sites)}")
                sites.append(site)
                by_sql[key] = site
            return ast.FieldRef(site.placeholder)
        return ast.FuncCall(
            name=expr.name,
            args=tuple(_rewrite_aggregates(a, sites, by_sql) for a in expr.args),
            distinct=expr.distinct,
        )
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(
            expr.op,
            _rewrite_aggregates(expr.left, sites, by_sql),
            _rewrite_aggregates(expr.right, sites, by_sql),
        )
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, _rewrite_aggregates(expr.operand, sites, by_sql))
    if isinstance(expr, ast.InList):
        return ast.InList(
            _rewrite_aggregates(expr.operand, sites, by_sql),
            tuple(_rewrite_aggregates(v, sites, by_sql) for v in expr.values),
        )
    return expr


# ---------------------------------------------------------------------------
# The planner
# ---------------------------------------------------------------------------


class Planner:
    """Builds physical plans for one session's catalog and configuration."""

    def __init__(
        self,
        sources: dict[str, SourceBinding],
        registry: FunctionRegistry,
        services: dict[str, Any],
        clock,
        config,
        table_factory: Callable[[str], Any],
        store: Any = None,
    ) -> None:
        self._sources = sources
        self._registry = registry
        self._services = services
        self._clock = clock
        self._config = config
        self._table_factory = table_factory
        #: Historical tier (:class:`repro.storage.historical.
        #: HistoricalStore`) backing the backfill split; None disables it.
        self._store = store

    def plan(
        self,
        statement: ast.SelectStatement,
        binding: SourceBinding | None = None,
        ctx: EvalContext | None = None,
        *,
        analyzed: bool = False,
    ) -> PhysicalPlan:
        """Plan one parsed statement into a runnable pipeline.

        The one assembler every plan goes through:
        scan → join → filters → scalar LIMIT → aggregate | project → INTO,
        each stage wrapped by :meth:`_trace`. ``binding`` defaults to the
        statement's FROM source; a shared-scan tenant passes its routed
        feed instead, with a ``ctx`` holding its lane and its lookup hook
        (see :meth:`scan`).

        Validation runs through the static analyzer first and only there,
        so every rejection carries a stable ``TQL…`` code and a source span.
        ``analyzed`` says the caller has raised the statement's gating
        errors already (a shared-scan admission does, before it compiles
        the tenant's conjuncts), so no statement is analyzed twice.
        """
        if not analyzed:
            self.analyze(statement).raise_first_error()

        binding = binding or self._sources[statement.source.lower()]
        conjuncts = split_conjuncts(statement.where)
        plan = self.scan(binding, ctx, conjuncts, self.batch_blocker(statement))
        pipeline, ctx, schema = plan.pipeline, plan.ctx, binding.schema

        if statement.join is not None:
            pipeline, schema = self._build_join(
                statement, pipeline, schema, ctx, plan
            )
            pipeline = self._trace(pipeline, "Join", plan)

        filtered = self._build_filters(conjuncts, pipeline, schema, ctx, plan)
        if filtered is not pipeline:
            pipeline = self._trace(filtered, "Filter", plan)

        has_aggregates = _has_aggregates(statement)

        # Scalar LIMIT sits below the projection: projection is 1:1,
        # so truncating the filtered batch here yields the same rows while
        # sparing per-row downstream work — and keeps ``rows_emitted``
        # exact (the projection would otherwise count a whole batch before
        # a post-projection limit trimmed it).
        if not has_aggregates and statement.limit is not None:
            pipeline = ops.LimitOperator(pipeline, statement.limit)
            plan.explain_lines.append(f"Limit: {statement.limit}")
            pipeline = self._trace(pipeline, "Limit", plan)

        if has_aggregates:
            pipeline, output_schema = self._build_aggregation(
                statement, pipeline, schema, ctx, plan
            )
            pipeline = self._trace(pipeline, "Aggregate", plan)
        else:
            pipeline, output_schema = self._build_projection(
                statement, pipeline, schema, ctx, plan
            )
            pipeline = self._trace(pipeline, "Project", plan)

        if statement.into is not None:
            sink = self._table_factory(statement.into)
            pipeline = ops.IntoOperator(pipeline, sink)
            plan.explain_lines.append(f"Into: table {statement.into!r}")
            pipeline = self._trace(pipeline, "Into", plan)
        plan.pipeline, plan.output_schema = pipeline, output_schema
        return plan

    def scan(
        self,
        binding: SourceBinding,
        ctx: EvalContext | None = None,
        conjuncts: list[ast.Expr] | None = None,
        blocker: str | None = None,
    ) -> PhysicalPlan:
        """A plan whose pipeline is ``binding``'s traced scan, and no more.

        Every plan starts here; a shared scan's fanout is this plan alone.
        The source removes the ``conjuncts`` it applies itself (the API
        filter's, or all of a routed feed's). ``blocker`` is why the
        statement must run one row per batch (:meth:`batch_blocker`).
        Without a ``ctx`` the plan gets a context over the session's
        services; a shared scan's fanout or tenant brings its own. Either
        way the context gets the plan's tracer, where its service calls
        record their spans.
        """
        if ctx is None:
            ctx = EvalContext(clock=self._clock, services=dict(self._services))
        plan = PhysicalPlan(
            pipeline=iter(()), output_schema=binding.schema, ctx=ctx
        )
        # Instrumentation off means *no* wrapper objects anywhere in the
        # pipeline, so the hot path pays nothing. Sanitized runs always
        # carry a tracer: SanitizerError reports ride on trace spans, and
        # the close-time ``reconcile()`` cross-check needs operator probes.
        from repro.engine.sanitizer import Sanitizer, sanitize_env_enabled

        config = self._config
        sanitize = getattr(config, "sanitize", False) or sanitize_env_enabled()
        if sanitize or getattr(config, "tracing", False):
            from repro.obs.trace import Tracer

            plan.tracer = Tracer(
                self._clock, batch_spans=getattr(config, "trace_batch_spans", True)
            )
        if sanitize:
            plan.sanitizer = Sanitizer(self._clock)
        ctx.tracer = plan.tracer
        source = self._build_source(
            binding, [] if conjuncts is None else conjuncts, plan
        )
        size = getattr(config, "batch_size", DEFAULT_BATCH_SIZE)
        if blocker is not None and size != 1:
            plan.explain_lines.append(
                f"Batch: 1 row/batch (row-at-a-time fallback: {blocker})"
            )
            size = 1
        else:
            plan.explain_lines.append(
                f"Batch: {size} row{'s' if size != 1 else ''}/batch"
            )
        plan.batch_size = size
        scan = ops.ScanOperator(source, ctx, size)
        plan.pipeline = self._trace(scan, f"Scan({binding.name})", plan)
        return plan

    def rows(self, binding: SourceBinding, plan: PhysicalPlan) -> Iterable[Row]:
        """A fresh row iterator over a registered source or a derived
        stream, read by ``plan``.

        A derived stream's upstream is planned here, on a context that
        shares the reader's service accounting and text memo (see
        :meth:`EvalContext.upstream`): the calls its rows cost are the
        reader's, in its ``service_stats`` and its tracer. Its operators
        keep counters, and when instrumented a tracer, of their own.
        Releasing the reader releases the upstream plan too, so a reader
        closed mid-stream gives its upstream's connection back.
        """
        if binding.upstream is None:
            assert binding.rows_factory is not None
            return binding.rows_factory()
        ctx = plan.ctx
        upstream_ctx = ctx.upstream()
        upstream = self.plan(binding.upstream, ctx=upstream_ctx)
        # Planning pointed the context at the upstream plan's own tracer;
        # its service spans belong in the reader's.
        upstream_ctx.tracer = ctx.tracer

        def release(abandoned: bool) -> None:
            for closer in upstream.closers:
                closer(abandoned)
            for connection in upstream.connections:
                connection.close()

        plan.closers.append(release)
        return iter_rows(upstream.pipeline)

    def compile_predicate(
        self, expr: ast.Expr, plan: PhysicalPlan
    ) -> tuple[Evaluator, VectorEvaluator | None]:
        """``expr`` over ``plan``'s output columns, on its context: the
        scalar closure and the whole-column form (None when it has none)."""
        schema = plan.output_schema
        return (
            compile_expr(expr, self._registry, schema, plan.ctx),
            self._vector(plan, expr, schema, plan.ctx),
        )

    def analyze(self, statement: ast.SelectStatement):
        """This catalog's plan-gating analysis of one statement.

        Returns the gated :class:`repro.sql.analysis.AnalysisResult` —
        only the errors the planner enforces. (Imported lazily: the
        analysis package depends on engine leaf modules, so a top-level
        import here would cycle through ``repro.engine.__init__``.)
        """
        from repro.sql import analysis

        result = analysis.analyze_statement(
            statement,
            catalog=analysis.catalog_from_sources(self._sources),
            registry=self._registry,
        )
        return analysis.gate_result(result)

    # -- tracing / sanitizing --------------------------------------------------

    def _trace(
        self, pipeline: ops.Batches, name: str, plan: PhysicalPlan
    ) -> ops.Batches:
        """Wrap one stage in the enabled instrumentation (no-op when off),
        on the lane of the plan's context.

        The sanitize wrapper goes innermost so it observes exactly what
        the wrapped stage produced; the trace wrapper goes outermost so
        its batch spans also cover the sanitizer's checks.
        """
        lane = plan.ctx.lane
        if plan.sanitizer is not None:
            from repro.engine.sanitizer import SanitizeOperator

            pipeline = SanitizeOperator(
                pipeline,
                plan.sanitizer,
                name=name,
                lane=lane,
                stats=plan.ctx.stats,
                tracer=plan.tracer,
            )
        if plan.tracer is None:
            return pipeline
        from repro.obs.trace import TraceOperator

        probe = plan.tracer.probe(name, lane)
        return TraceOperator(pipeline, probe, plan.tracer)

    # -- batch sizing ----------------------------------------------------------

    def batch_blocker(self, statement: ast.SelectStatement) -> str | None:
        """Why this statement must run one row per batch, or None.

        The scan advances stream time over a whole batch before any of the
        batch's rows are evaluated, so an expression that *reads* stream
        time per row — ``now()`` — would see the batch's horizon instead of
        its own row's arrival time. Everything else is batch-invariant:
        resolvers are pure and operators preserve row order.
        """
        for expr in ast.statement_exprs(statement):
            for node in ast.walk(expr):
                if isinstance(node, ast.FuncCall) and node.name == "now":
                    return "now() reads stream time row by row"
        return None

    def _vector(
        self,
        plan: PhysicalPlan,
        expr: ast.Expr,
        schema: tuple[str, ...],
        ctx: EvalContext,
        aliases: dict[str, ast.Expr] | None = None,
    ) -> VectorEvaluator | None:
        """``expr``'s whole-column evaluator, when it has one and this
        plan's batches are wide enough to use it."""
        if plan.batch_size <= 1:
            return None
        return compile_vector_expr(
            expr, self._registry, schema, ctx, aliases=aliases
        )

    # -- source --------------------------------------------------------------

    def _build_source(
        self,
        binding: SourceBinding,
        conjuncts: list[ast.Expr],
        plan: PhysicalPlan,
    ) -> ops.ScanSource:
        explain = plan.explain_lines
        if binding.feed is not None:
            # A shared-scan tenant: the fanout applied its WHERE clause.
            explain.extend(binding.feed.explain_lines)
            conjuncts.clear()
            return binding.feed
        if binding.api is None:
            explain.append(f"Scan: registered source {binding.name!r}")
            return ops.RowSource(self.rows(binding, plan))

        api = binding.api
        # The backfill window is read *before* the API-filter choice
        # deletes its conjunct: the window conjuncts (created_at bounds)
        # are never API-eligible, so both passes see disjoint conjuncts.
        window = _time_window(conjuncts)
        candidates = extract_api_candidates(conjuncts)
        server_matches = None
        if not candidates:
            explain.append(
                "Scan: twitter firehose (no API-eligible predicate; elevated "
                "access tier)"
            )
            live = TweetSource(api.unfiltered, plan)
            return self._maybe_backfill(live, server_matches, window, plan)

        from repro.errors import RateLimitError

        try:
            choice = choose_api_filter(
                api,
                [candidate for _idx, candidate in candidates],
            )
        except RateLimitError:
            # Sampling is metered; when the budget is gone, degrade to the
            # first candidate rather than failing the query.
            from repro.engine.selectivity import FilterChoice, SelectivityEstimate

            fallback = candidates[0][1]
            choice = FilterChoice(
                chosen=fallback,
                estimates=(
                    SelectivityEstimate(
                        candidate=fallback, sample_size=0, matched=0
                    ),
                ),
                sample_size=0,
            )
            explain.append(
                "  (sample budget exhausted; fell back to the first "
                "API-eligible filter)"
            )
        plan.filter_choice = choice
        chosen_index = next(
            idx
            for idx, candidate in candidates
            if candidate is choice.chosen
        )
        # The API applies the chosen conjunct server-side; drop it locally.
        del conjuncts[chosen_index]
        explain.append(f"Scan: twitter via API filter {choice.chosen.description}")
        if len(choice.estimates) > 1:
            explain.extend("  " + line for line in choice.explain().splitlines())
        kwargs = choice.chosen.api_kwargs
        # Backfill rows bypass the server, so the server-side conjunct
        # must be re-applied to them locally.
        server_matches = choice.chosen.matches
        live = TweetSource(lambda: api.filter(**kwargs), plan)
        return self._maybe_backfill(live, server_matches, window, plan)

    def _maybe_backfill(
        self,
        live: TweetSource,
        server_matches: Callable[[Any], bool] | None,
        window: tuple[float | None, float | None],
        plan: PhysicalPlan,
    ) -> ops.ScanSource:
        """Wrap the live connection in a backfill + live-tail split.

        With a historical store and ``EngineConfig.backfill`` on, the
        query's time window is split at the store's *watermark* (largest
        archived ``created_at``): tweets at or below it come straight
        from the indexed SQLite scan — no connection opened, no clock
        advance — and the live tail contributes only tweets strictly
        above it (:class:`BackfillSource`).

        The two runs are timestamp-disjoint by construction, so their
        ordered concatenation is one monotone stream, and the scan
        operator stamps its batch seqs like any other source. Window
        conjuncts are left in the local filter stage, which makes the
        store's range bounds purely an access-path optimization — a
        superset scan stays correct.
        """
        backfill_on = (
            self._store is not None
            and getattr(self._config, "backfill", False)
        )
        if not backfill_on:
            return live
        start, end = window
        plan.explain_lines.append(
            "Backfill: historical store "
            f"[{'…' if start is None else f'{start:g}'}, "
            f"{'…' if end is None else f'{end:g}'}) up to the store "
            "watermark, then live tail (timestamp-disjoint merge)"
        )
        return BackfillSource(self._store, live, server_matches, window, plan)

    # -- local predicates -----------------------------------------------------

    def _build_filters(
        self,
        conjuncts: list[ast.Expr],
        pipeline: ops.Batches,
        schema: tuple[str, ...],
        ctx: EvalContext,
        plan: PhysicalPlan,
    ) -> ops.Batches:
        """The local predicate stage: one :class:`~repro.engine.operators.
        FilterOperator` over the conjuncts, in written order to start.

        Each conjunct additionally gets a vectorized form when its
        expression supports one (comparisons / boolean logic / regex /
        calls to functions that are neither stateful nor high-latency)
        and the plan batches more than one row; the filter falls back to
        the scalar closure otherwise. A conjunct the vector compiler
        marks total (:func:`~repro.engine.expressions.is_total`) is
        movable: the filter may reorder it by observed selectivity.
        """
        if not conjuncts:
            return pipeline
        stages = [
            ops.Conjunct(
                conjunct.to_sql(),
                compile_expr(conjunct, self._registry, schema, ctx),
                self._vector(plan, conjunct, schema, ctx),
                cost=_cost_class(conjunct),
                movable=is_total(conjunct, self._registry, schema, ctx),
            )
            for conjunct in conjuncts
        ]
        note = "Filter: " + " AND ".join(stage.name for stage in stages)
        vectorized = sum(stage.vector is not None for stage in stages)
        if vectorized:
            note += f" [vectorized {vectorized}/{len(stages)}]"
        plan.explain_lines.append(note)
        return ops.FilterOperator(pipeline, stages, ctx)

    # -- join ----------------------------------------------------------------

    def _build_join(
        self,
        statement: ast.SelectStatement,
        left_pipeline: ops.Batches,
        left_schema: tuple[str, ...],
        ctx: EvalContext,
        plan: PhysicalPlan,
    ) -> tuple[ops.Batches, tuple[str, ...]]:
        join = statement.join
        assert join is not None
        right_binding = self._sources[join.source.lower()]
        # A right side without timestamps is a dimension table: lookup
        # join, no window needed. Two timestamped streams band-join within
        # the (time) WINDOW.
        is_lookup = "created_at" not in {
            n.lower() for n in right_binding.schema
        }
        if right_binding.api is not None:
            right_rows: Iterable[Row] = TweetSource(
                right_binding.api.unfiltered, plan
            ).rows()
        else:
            right_rows = self.rows(right_binding, plan)

        # ``field = field``, one name on each side (TQL215, TQL216).
        condition = join.condition
        assert isinstance(condition, ast.BinaryOp)
        left, right = condition.left, condition.right
        assert isinstance(left, ast.FieldRef) and isinstance(right, ast.FieldRef)
        left_names = {n.lower() for n in left_schema}
        right_names = {n.lower() for n in right_binding.schema}
        names = (left.name.lower(), right.name.lower())
        if names[0] in left_names and names[1] in right_names:
            left_field, right_field = names
        else:
            right_field, left_field = names
        left_key = compile_expr(
            ast.FieldRef(left_field), self._registry, left_schema, ctx
        )
        right_key = compile_expr(
            ast.FieldRef(right_field), self._registry, right_binding.schema, ctx
        )
        merged_schema = left_schema + tuple(
            f"r_{name}" if name in left_names else name
            for name in right_binding.schema
            if name != "created_at"
        )
        if is_lookup:
            plan.explain_lines.append(
                f"Join: {statement.source} ⋈ table {join.source} on "
                f"{left_field} = {right_field} (lookup)"
            )
            pipeline: ops.Batches = ops.LookupJoinOperator(
                left_pipeline,
                right_rows,
                left_key,
                right_key,
                tuple(
                    f"r_{name}" if name in left_names else name
                    for name in right_binding.schema
                ),
                ctx,
            )
            return pipeline, merged_schema
        plan.explain_lines.append(
            f"Join: {statement.source} ⋈ {join.source} on "
            f"{left_field} = {right_field}, band {statement.window.size_seconds:g}s"
        )
        pipeline = ops.WindowedJoinOperator(
            left_pipeline,
            right_rows,
            left_key,
            right_key,
            statement.window,
            ctx,
            batch_size=plan.batch_size,
        )
        return pipeline, merged_schema

    # -- projection ------------------------------------------------------------

    def _build_projection(
        self,
        statement: ast.SelectStatement,
        pipeline: ops.Batches,
        schema: tuple[str, ...],
        ctx: EvalContext,
        plan: PhysicalPlan,
    ) -> tuple[ops.Batches, tuple[str, ...]]:
        select: list[tuple[str, ast.Expr]] = []
        for item in statement.select:
            if isinstance(item.expr, ast.Star):
                select.extend(
                    (name, ast.FieldRef(name))
                    for name in schema
                    if not name.startswith("__")
                )
            else:
                select.append((item.output_name, item.expr))
        items: list[tuple[str, Evaluator]] = []
        vector_items: list[VectorEvaluator | None] = []
        schema_set = {name.lower() for name in schema}
        fused_pairs: list[tuple[str, str]] | None = []
        for name, expr in select:
            items.append(
                (name, compile_expr(expr, self._registry, schema, ctx))
            )
            vector_items.append(self._vector(plan, expr, schema, ctx))
            if (
                fused_pairs is not None
                and isinstance(expr, ast.FieldRef)
                and expr.name.lower() in schema_set
            ):
                fused_pairs.append((name, expr.name.lower()))
            else:
                # A computed item: the fused all-field constructor no
                # longer applies; per-item vector/scalar evaluation runs.
                fused_pairs = None
        output_names = [name for name, _ in select]
        fused = None
        if fused_pairs and plan.batch_size > 1:
            if "created_at" not in output_names:
                fused_pairs.append(("created_at", "created_at"))
            fused = build_fused_projector(fused_pairs)
        # The twitter schema in order: a tweet-backed batch's own rows.
        identity = fused_pairs == [(name, name) for name in TWITTER_SCHEMA]
        pipeline = ops.ProjectOperator(
            pipeline, items, ctx, vector_items=vector_items, fused=fused,
            identity=identity,
        )
        if "created_at" not in output_names:
            output_names.append("created_at")
        return pipeline, tuple(output_names)

    # -- aggregation -----------------------------------------------------------

    def _build_aggregation(
        self,
        statement: ast.SelectStatement,
        pipeline: ops.Batches,
        schema: tuple[str, ...],
        ctx: EvalContext,
        plan: PhysicalPlan,
    ) -> tuple[ops.Batches, tuple[str, ...]]:
        sites: list[AggSite] = []
        by_sql: dict[str, AggSite] = {}

        rewritten_items: list[tuple[str, ast.Expr]] = []
        alias_evals: dict[str, Evaluator] = {}
        alias_exprs: dict[str, ast.Expr] = {}
        for item in statement.select:
            rewritten = _rewrite_aggregates(item.expr, sites, by_sql)
            rewritten_items.append((item.output_name, rewritten))
            if item.alias and not contains_aggregate(item.expr):
                alias_evals[item.alias] = compile_expr(
                    item.expr, self._registry, schema, ctx
                )
                alias_exprs[item.alias] = item.expr

        having_rewritten = (
            _rewrite_aggregates(statement.having, sites, by_sql)
            if statement.having is not None
            else None
        )
        order_rewritten = [
            (_rewrite_aggregates(expr, sites, by_sql), desc)
            for expr, desc in statement.order_by
        ]

        env_schema = schema + tuple(site.placeholder for site in sites)

        group_evals = [
            compile_expr(expr, self._registry, schema, ctx, aliases=alias_evals)
            for expr in statement.group_by
        ]
        vector_keys = [
            self._vector(plan, expr, schema, ctx, alias_exprs)
            for expr in statement.group_by
        ]
        # Keys precompute as columns only when *every* key has a column
        # form; otherwise the operator evaluates each row's key tuple once,
        # before the windows it enters, as the column does.
        present = [vec for vec in vector_keys if vec is not None]
        vector_group_evals = present if len(present) == len(vector_keys) else None

        agg_factories = []
        vector_agg_args: list[VectorEvaluator | None] = []
        for site in sites:
            call = site.call
            count_rows = isinstance(call.args[0], ast.Star)
            arg_eval = (
                None
                if count_rows
                else compile_expr(call.args[0], self._registry, schema, ctx,
                                  aliases=alias_evals)
            )
            vector_agg_args.append(
                None
                if count_rows
                else self._vector(plan, call.args[0], schema, ctx, alias_exprs)
            )
            probe = make_aggregate(call.name, call.distinct, count_rows)
            agg_factories.append(
                (
                    lambda call=call, count_rows=count_rows: make_aggregate(
                        call.name, call.distinct, count_rows
                    ),
                    arg_eval,
                    probe.skip_nulls,
                )
            )

        output_items = [
            (
                name,
                compile_expr(expr, self._registry, env_schema, ctx,
                             aliases=alias_evals),
            )
            for name, expr in rewritten_items
        ]
        having_eval = (
            compile_expr(having_rewritten, self._registry, env_schema, ctx,
                         aliases=alias_evals)
            if having_rewritten is not None
            else None
        )
        order_evals = [
            (
                compile_expr(expr, self._registry, env_schema, ctx,
                             aliases=alias_evals),
                desc,
            )
            for expr, desc in order_rewritten
        ]

        output_schema = tuple(name for name, _ in rewritten_items)

        window = statement.window
        if window is not None:
            window_columns: tuple[str, ...] = ("window_start", "window_end")
            if window.count_based:
                shape = f"{window.size_count} tweets slide {int(window.slide)} tweets"
                window_columns += ("window_rows",)
            else:
                shape = f"{window.size_seconds:g}s slide {window.slide:g}s"
            plan.explain_lines.append(
                f"Aggregate: {len(sites)} aggregate(s), "
                f"{len(group_evals)} group key(s), window {shape}"
            )
            pipeline = ops.WindowedAggregateOperator(
                pipeline,
                window,
                group_evals,
                agg_factories,
                output_items,
                ctx,
                having=having_eval,
                order_by=order_evals,
                limit=statement.limit,
                vector_group_evals=vector_group_evals,
                vector_agg_args=vector_agg_args,
            )
            return pipeline, output_schema + window_columns

        # WINDOW CONFIDENCE over exactly one AVG and no HAVING / ORDER BY /
        # LIMIT: the only windowless aggregate the analyzer admits (TQL207,
        # TQL213).
        confidence = statement.confidence
        assert confidence is not None
        policy = ConfidencePolicy(
            ci_halfwidth=confidence.halfwidth,
            max_age_seconds=confidence.max_age_seconds,
        )
        value_eval = agg_factories[0][1]
        assert value_eval is not None
        plan.explain_lines.append(
            "Aggregate: confidence-triggered AVG emission "
            f"(ci≤{policy.ci_halfwidth:g}, z={policy.z:g}, "
            f"max_age={policy.max_age_seconds})"
        )
        pipeline = ConfidenceAggregateOperator(
            pipeline,
            group_evals,
            value_eval,
            output_items,
            ctx,
            policy=policy,
            vector_group_evals=vector_group_evals,
            vector_value_eval=vector_agg_args[0],
        )
        return pipeline, output_schema + ("n", "ci_halfwidth", "emit_reason")
