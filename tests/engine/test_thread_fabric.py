"""Where the engine may run threads.

Under the GIL a thread per shard or per tenant buys a CPU-bound operator
chain nothing, so the engine keeps a pool only where a ledger number
still argues for one: the ``workers=N`` sharded path in ``parallel.py``.
The shared scan runs on its consumers' thread; this pins that, and stops
a new pool or queue from appearing anywhere else unnoticed.
"""

from __future__ import annotations

import ast
from pathlib import Path

ENGINE = Path(__file__).resolve().parents[2] / "src" / "repro" / "engine"

#: Engine modules allowed to import ``queue`` / ``concurrent.futures`` or
#: start a ``threading.Thread``.
THREADED = {"parallel.py"}


def _imports(tree: ast.Module) -> set[str]:
    modules: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
            modules.update(f"{node.module}.{a.name}" for a in node.names)
    return modules


def _thread_machinery(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
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


def test_only_the_sharded_path_runs_threads():
    offenders = {
        path.name: uses
        for path in sorted(ENGINE.glob("*.py"))
        if path.name not in THREADED and (uses := _thread_machinery(path))
    }
    assert offenders == {}
    assert _thread_machinery(ENGINE / "parallel.py")  # the rule still bites


def test_the_shared_scan_takes_no_lock_and_polls_nothing():
    source = (ENGINE / "multitenant.py").read_text(encoding="utf-8")
    modules = _imports(ast.parse(source))
    assert not {m for m in modules if m.split(".")[0] == "threading"}
    assert "registered_lock" not in source
    assert "_POLL_SECONDS" not in source
