"""The engine-source determinism lint (TQL920, TQL921, TQL923).

Covers each rule firing on a minimal offending module, the path scoping
(engine/obs only), the JSON
output shape (uniform with ``tweeql check --format=json``), and — the
satellite that matters in CI — an empty baseline over the real tree.
"""

from __future__ import annotations

import json

import pytest

from repro.sql.analysis.engine_lint import lint_paths, lint_source, main

ENGINE = "src/repro/engine/fake.py"
OBS = "src/repro/obs/fake.py"


def codes(source: str, path: str = ENGINE) -> list[str]:
    return [f.diagnostic.code for f in lint_source(source, path)]


def test_wall_clock_reads_flagged():
    assert codes("import time\nt = time.time()\n") == ["TQL920"]
    assert codes("import time\nt = time.time_ns()\n") == ["TQL920"]
    assert codes(
        "from datetime import datetime\nd = datetime.now()\n"
    ) == ["TQL920"]
    assert codes(
        "import datetime\nd = datetime.datetime.utcnow()\n"
    ) == ["TQL920"]


@pytest.mark.parametrize(
    "call", ["perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns"]
)
def test_host_timer_reads_flagged(call):
    # A duration timer differs by host as much as the time of day does:
    # anything ranked or counted by it is not replayable.
    assert codes(f"import time\nt = time.{call}()\n") == ["TQL920"]
    assert codes(f"import time\nt = time.{call}()\n", OBS) == ["TQL920"]


def test_virtual_clock_not_flagged():
    assert codes("now = clock.now\nlater = ctx.clock.now\n") == []


def test_unseeded_random_flagged_seeded_allowed():
    assert codes("import random\nx = random.random()\n") == ["TQL921"]
    assert codes("import random\nr = random.Random()\n") == ["TQL921"]
    assert codes("import random\nr = random.Random(42)\n") == []
    assert codes("import random\nr = random.Random(seed)\n") == []


def test_swallowed_exceptions_flagged_only_in_engine():
    swallow = "try:\n    work()\nexcept Exception:\n    pass\n"
    assert codes(swallow, ENGINE) == ["TQL923"]
    assert codes("try:\n    work()\nexcept:\n    pass\n", ENGINE) == ["TQL923"]
    # A handler that *does* something is fine.
    handled = "try:\n    work()\nexcept Exception as e:\n    log(e)\n"
    assert codes(handled, ENGINE) == []
    # Narrow types may be deliberately dropped.
    narrow = "try:\n    work()\nexcept KeyError:\n    pass\n"
    assert codes(narrow, ENGINE) == []
    # obs/ gets the determinism rules but not the except-pass rule.
    assert codes(swallow, OBS) == []


def test_scoping_outside_engine_and_obs():
    noisy = "import time, threading\nt = time.time()\nk = threading.Lock()\n"
    assert codes(noisy, "src/repro/twitter/workloads.py") == []
    assert codes(noisy, "tests/engine/test_x.py") == []
    assert codes(noisy, OBS) == ["TQL920"]


def test_findings_carry_spans_and_render_carets():
    source = "import time\nstamp = time.time()\n"
    (finding,) = lint_source(source, ENGINE)
    assert finding.line == 2
    rendered = finding.render(source)
    assert "TQL920" in rendered and "^" in rendered
    assert rendered.startswith(f"{ENGINE}:2:")


def test_json_format_uniform_with_check(tmp_path, capsys):
    bad = tmp_path / "engine" / "busted.py"
    bad.parent.mkdir()
    bad.write_text("import time\nt = time.time()\n", encoding="utf-8")
    exit_code = main([str(tmp_path), "--format", "json"])
    assert exit_code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["code"] == "TQL920"
    assert payload[0]["severity"] == "error"
    assert payload[0]["line"] == 2
    assert payload[0]["span"]["start"] > 0


def test_clean_tree_exits_zero(tmp_path, capsys):
    good = tmp_path / "engine" / "fine.py"
    good.parent.mkdir()
    good.write_text("x = 1\n", encoding="utf-8")
    assert main([str(tmp_path)]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_real_engine_tree_baseline_is_empty():
    findings = lint_paths(["src/repro/engine", "src/repro/obs"])
    rendered = [f.render() for f in findings]
    assert findings == [], "\n".join(rendered)


def test_findings_deterministically_ordered(tmp_path):
    module = tmp_path / "engine" / "multi.py"
    module.parent.mkdir()
    module.write_text(
        "import time, random\n"
        "b = random.random()\n"
        "a = time.time()\n",
        encoding="utf-8",
    )
    first = [f.as_dict() for f in lint_paths([str(tmp_path)])]
    second = [f.as_dict() for f in lint_paths([str(tmp_path)])]
    assert first == second
    assert [f["line"] for f in first] == [2, 3]
