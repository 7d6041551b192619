"""Determinism lint over the engine's own Python source.

The static analyzer (PR 3) made *queries* checkable before execution;
this module applies the same discipline to the engine itself. It walks
the Python AST of every file under the given paths and reports, with the
same :class:`~repro.sql.analysis.diagnostics.Diagnostic` machinery the
query analyzer uses (stable codes, caret snippets, ``--format=json``):

======= ====================================================================
TQL920  wall-clock read in engine code — ``time.time()`` / ``time.time_ns()``,
        ``time.perf_counter()`` / ``time.perf_counter_ns()``,
        ``time.monotonic()`` / ``time.monotonic_ns()`` or naive
        ``datetime.now()`` / ``datetime.utcnow()``. Engine time
        must come from the session's virtual clock (``repro.clock``):
        wall-clock reads make replays, golden traces, and the chaos
        harness nondeterministic.
TQL921  unseeded randomness in engine code — module-level ``random.*``
        calls or a no-argument ``random.Random()``. All randomness must
        flow from an explicit seed so runs are reproducible.
TQL923  swallowed exception in engine code — ``except Exception:`` (or a
        bare ``except:``) whose body is only ``pass``/``...``. Operator
        code that drops errors silently turns protocol violations into
        wrong answers.
======= ====================================================================

Scope: TQL920 and TQL921 apply to :mod:`repro.engine` and
:mod:`repro.obs`; TQL923 applies to :mod:`repro.engine` operator code.
``clock.py``/``rng.py``-style shims would be the sanctioned
wall-clock/randomness homes. Findings are deterministic (sorted by file,
then offset) so the CI lint job can assert an empty baseline.

Run as::

    python -m repro.sql.analysis.engine_lint src/ [--format=text|json]

Exit status is 1 when any finding is reported, 0 on a clean tree.
"""

from __future__ import annotations

import ast
import json
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.sql.analysis.diagnostics import Diagnostic, Severity
from repro.sql.ast import Span

__all__ = ["FileFinding", "lint_paths", "lint_source", "main"]

#: Call targets that read the wall clock (module attribute form).
_WALL_CLOCK_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
}


@dataclass(frozen=True)
class FileFinding:
    """One lint finding, anchored to a source file."""

    path: str
    line: int
    diagnostic: Diagnostic

    def render(self, source: str | None = None) -> str:
        body = self.diagnostic.render(source)
        return f"{self.path}:{self.line}: {body}"

    def as_dict(self) -> dict[str, object]:
        payload = self.diagnostic.as_dict()
        payload["file"] = self.path
        payload["line"] = self.line
        return payload


def _span(source: str, node: ast.AST) -> Span:
    """Char-offset span for ``node``, matching the query analyzer's caret
    rendering (line/col from the Python AST converted to offsets)."""
    lines = source.splitlines(keepends=True)
    line_index = getattr(node, "lineno", 1) - 1
    start = sum(len(line) for line in lines[:line_index])
    start += getattr(node, "col_offset", 0)
    end_line = getattr(node, "end_lineno", None)
    end_col = getattr(node, "end_col_offset", None)
    if end_line is not None and end_col is not None:
        end = sum(len(line) for line in lines[: end_line - 1]) + end_col
    else:
        end = start + 1
    return Span(start, max(end, start + 1))


def _dotted(node: ast.AST) -> tuple[str, ...] | None:
    """``a.b.c`` as ``("a", "b", "c")``, or None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


class _EngineVisitor(ast.NodeVisitor):
    """Collects TQL920, TQL921 and TQL923 findings over one module's AST."""

    def __init__(self, source: str, *, check_excepts: bool) -> None:
        self._source = source
        self._excepts = check_excepts
        self.findings: list[tuple[int, Diagnostic]] = []

    def _report(
        self, node: ast.AST, code: str, message: str, hint: str
    ) -> None:
        self.findings.append(
            (
                getattr(node, "lineno", 0),
                Diagnostic(
                    code=code,
                    severity=Severity.ERROR,
                    message=message,
                    span=_span(self._source, node),
                    hint=hint,
                ),
            )
        )

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is not None:
            self._check_call(node, dotted)
        self.generic_visit(node)

    def _check_call(self, node: ast.Call, dotted: tuple[str, ...]) -> None:
        # Normalize "datetime.datetime.now" to its last two components.
        tail = dotted[-2:] if len(dotted) >= 2 else dotted
        if tuple(tail) in _WALL_CLOCK_CALLS:
            self._report(
                node,
                "TQL920",
                f"wall-clock read: {'.'.join(dotted)}() in engine code",
                "engine time must come from the session's virtual "
                "clock (repro.clock); wall-clock reads break replay "
                "determinism",
            )
        if dotted[0] == "random" and len(dotted) == 2:
            if dotted[1] == "Random":
                if not node.args and not node.keywords:
                    self._report(
                        node,
                        "TQL921",
                        "unseeded random.Random() in engine code",
                        "pass an explicit seed so runs are "
                        "reproducible",
                    )
            else:
                self._report(
                    node,
                    "TQL921",
                    f"module-level random.{dotted[1]}() in engine code "
                    "(shared, effectively unseeded state)",
                    "draw from a seeded random.Random instance "
                    "threaded through the call site instead",
                )

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if self._excepts and self._swallows_broadly(node):
            self._report(
                node,
                "TQL923",
                "except Exception: pass in engine code silently swallows "
                "errors",
                "handle the error, narrow the except type, or at minimum "
                "record the failure before continuing",
            )
        self.generic_visit(node)

    @staticmethod
    def _swallows_broadly(node: ast.ExceptHandler) -> bool:
        if node.type is not None:
            dotted = _dotted(node.type)
            if dotted is None or dotted[-1] not in (
                "Exception", "BaseException",
            ):
                return False
        for statement in node.body:
            if isinstance(statement, ast.Pass):
                continue
            if isinstance(statement, ast.Expr) and isinstance(
                statement.value, ast.Constant
            ):
                continue  # docstring or bare `...`
            return False
        return True


def lint_source(source: str, path: str) -> list[FileFinding]:
    """Lint one module's source; ``path`` scopes which checks apply."""
    normalized = path.replace("\\", "/")
    parts = normalized.split("/")
    if "tests" in parts or "benchmarks" in parts:
        # Test/bench code may legitimately use wall clocks and bare
        # threads; the invariants guard the engine proper.
        return []
    in_engine = "/engine/" in normalized or normalized.endswith("/engine")
    in_obs = "/obs/" in normalized
    if not (in_engine or in_obs):
        return []
    visitor = _EngineVisitor(source, check_excepts=in_engine)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            FileFinding(
                path,
                error.lineno or 0,
                Diagnostic(
                    code="TQL002",
                    severity=Severity.ERROR,
                    message=f"cannot parse {path}: {error.msg}",
                ),
            )
        ]
    visitor.visit(tree)
    return [
        FileFinding(path, line, diagnostic)
        for line, diagnostic in visitor.findings
    ]


def _python_files(paths: Sequence[str]) -> Iterable[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def lint_paths(paths: Sequence[str]) -> list[FileFinding]:
    """Lint every Python file under ``paths``; deterministic order."""
    findings: list[FileFinding] = []
    for file_path in _python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        findings.extend(lint_source(source, str(file_path)))
    findings.sort(key=lambda f: (f.path, f.line, f.diagnostic.code))
    return findings


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point: ``python -m repro.sql.analysis.engine_lint src/``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="engine_lint",
        description="TQLSAN determinism lint over the engine's own source "
        "(TQL920, TQL921, TQL923; see docs/SANITIZER.md)",
    )
    parser.add_argument("paths", nargs="+", help="files or directories")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="text (default, caret snippets) or json (uniform with "
        "`tweeql check --format=json`)",
    )
    args = parser.parse_args(argv)

    findings = lint_paths(args.paths)
    if args.format == "json":
        print(json.dumps([f.as_dict() for f in findings], indent=2))
    else:
        for finding in findings:
            source = Path(finding.path).read_text(encoding="utf-8")
            print(finding.render(source))
        print(
            f"engine_lint: {len(findings)} finding"
            f"{'' if len(findings) == 1 else 's'} in "
            f"{len(list(_python_files(args.paths)))} files"
        )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
