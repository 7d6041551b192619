"""Diagnostic records, sink ordering, and caret rendering."""

from repro.sql.analysis.diagnostics import Diagnostic, DiagnosticSink, Severity
from repro.sql.ast import Span


def test_severity_rank_orders_errors_first():
    assert Severity.ERROR.rank < Severity.WARNING.rank < Severity.INFO.rank


def test_as_dict_includes_span_and_hint():
    diag = Diagnostic(
        "TQL201", Severity.ERROR, "unknown field: 'bogs'",
        Span(7, 11), "did you mean 'loc'?",
    )
    assert diag.as_dict() == {
        "code": "TQL201",
        "severity": "error",
        "message": "unknown field: 'bogs'",
        "span": {"start": 7, "end": 11},
        "hint": "did you mean 'loc'?",
    }


def test_as_dict_omits_absent_fields():
    diag = Diagnostic("TQL304", Severity.WARNING, "firehose")
    assert diag.as_dict() == {
        "code": "TQL304",
        "severity": "warning",
        "message": "firehose",
    }


def test_render_caret_snippet_underlines_span():
    sql = "SELECT bogs FROM twitter;"
    diag = Diagnostic("TQL201", Severity.ERROR, "unknown field", Span(7, 11))
    rendered = diag.render(sql)
    lines = rendered.splitlines()
    assert lines[0] == "TQL201 error: unknown field"
    assert lines[1] == "  SELECT bogs FROM twitter;"
    assert lines[2] == "         ^^^^"


def test_render_caret_snippet_multiline_source():
    sql = "SELECT text\nFROM twitter\nWHERE bogs = 1;"
    start = sql.index("bogs")
    diag = Diagnostic(
        "TQL201", Severity.ERROR, "unknown field", Span(start, start + 4)
    )
    lines = diag.render(sql).splitlines()
    assert lines[1] == "  WHERE bogs = 1;"
    assert lines[2] == "        ^^^^"


def test_render_without_source_omits_snippet():
    diag = Diagnostic(
        "TQL201", Severity.ERROR, "unknown field", Span(7, 11), "a hint"
    )
    assert diag.render() == "TQL201 error: unknown field\n  hint: a hint"


def test_sink_collect_sorts_by_severity_then_position():
    sink = DiagnosticSink()
    sink.warning("TQL305", "late warning", Span(3, 4))
    sink.error("TQL201", "late error", Span(20, 21))
    sink.error("TQL202", "early error", Span(2, 3))
    sink.info("TQL307", "note", Span(0, 1))
    codes = [d.code for d in sink.collect()]
    assert codes == ["TQL202", "TQL201", "TQL305", "TQL307"]
    assert sink.has_errors


def test_payload_excluded_from_equality():
    a = Diagnostic(
        "TQL201", Severity.ERROR, "m", payload={"name": "x", "available": ()}
    )
    b = Diagnostic("TQL201", Severity.ERROR, "m", payload=None)
    assert a == b
