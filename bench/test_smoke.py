"""Smoke test of the benchmark itself: ``pytest bench/``.

Not part of tier 1 (``testpaths = ["tests"]``): each case runs one
workload in ``--quick`` mode in a subprocess, a few minutes in all.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from bench import stats

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def last_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("seed", [2011, 42])
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_reports_every_metric_and_passes_every_check(
    workload, trace, seed
):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    result = last_line(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert os.path.exists(
            os.path.join(BENCH_DIR, "out", f"trace-{workload}.json")
        )


def test_fails_without_the_program(tmp_path):
    """In a tree holding only the benchmark there is nothing to measure:
    the run must fail, not print a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "query_cpu",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert stats.summarize([1.0, 2.0, 3.0], "lower")["p_hi"] is None
    timings = stats.summarize([float(i) for i in range(40)], "lower")
    assert timings["p_hi"] == 29.0 and timings["p_hi_percentile"] == 75.0
    rates = stats.summarize([float(i) for i in range(40)], "higher")
    assert rates["p_hi"] == 10.0  # the slow tail of a rate is its low end


def test_verdicts():
    def metric(value, q1, q3):
        return {"value": value, "q1": q1, "q3": q3}

    steady = metric(100.0, 99.0, 101.0)
    noisy = metric(100.0, 80.0, 120.0)
    assert stats.verdict(steady, metric(105.0, 0, 0), "lower", 0.10) == "ok"
    assert stats.verdict(steady, metric(115.0, 0, 0), "lower", 0.10) == "regressed"
    assert stats.verdict(steady, metric(85.0, 0, 0), "higher", 0.10) == "regressed"
    assert stats.verdict(steady, metric(85.0, 0, 0), "lower", 0.10) == "ok"
    assert stats.verdict(noisy, metric(115.0, 0, 0), "lower", 0.10) == "unresolved"
    assert stats.verdict(noisy, metric(150.0, 0, 0), "lower", 0.10) == "regressed"
