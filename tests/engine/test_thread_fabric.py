"""The engine runs no threads.

Under the GIL a thread per shard or per tenant buys a CPU-bound operator
chain nothing, and the one stall worth overlapping — a high-latency
service call — is overlapped on the virtual clock by the ``batched`` and
``async`` latency modes. Every pipeline, the shared scan included, runs
on the thread that pulls its handle; this pins that, and stops a pool or
a queue from appearing in the engine unnoticed.
"""

from __future__ import annotations

import ast
from pathlib import Path

ENGINE = Path(__file__).resolve().parents[2] / "src" / "repro" / "engine"


def _imports(tree: ast.Module) -> set[str]:
    modules: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
            modules.update(f"{node.module}.{a.name}" for a in node.names)
    return modules


def _thread_machinery(source: str) -> list[str]:
    """What in ``source`` imports ``queue`` / ``concurrent.*`` or starts a
    ``threading.Thread``."""
    tree = ast.parse(source)
    found = [
        name
        for name in sorted(_imports(tree))
        if name.split(".")[0] in ("queue", "concurrent")
        or name == "threading.Thread"
    ]
    found.extend(
        "threading.Thread()"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "Thread"
        and isinstance(node.value, ast.Name)
        and node.value.id == "threading"
    )
    return found


def test_no_engine_module_runs_threads():
    offenders = {
        path.name: uses
        for path in sorted(ENGINE.glob("*.py"))
        if (uses := _thread_machinery(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def test_the_rule_catches_a_thread_and_a_pool():
    started = "import threading\nthreading.Thread(target=print).start()\n"
    assert _thread_machinery(started) == ["threading.Thread()"]
    pooled = (
        "import queue\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from threading import Thread\n"
    )
    assert _thread_machinery(pooled) == [
        "concurrent.futures",
        "concurrent.futures.ThreadPoolExecutor",
        "queue",
        "threading.Thread",
    ]


def test_the_shared_scan_takes_no_lock_and_polls_nothing():
    source = (ENGINE / "multitenant.py").read_text(encoding="utf-8")
    modules = _imports(ast.parse(source))
    assert not {m for m in modules if m.split(".")[0] == "threading"}
    assert "_POLL_SECONDS" not in source
