"""Run the benchmark.

Two ways in:

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload in this process. ``--trace 0`` repeats whole passes for
    ``S`` seconds and reports the end-to-end metrics; ``--trace 1`` runs
    the traced passes and layer probes and reports the per-layer metrics.
    The last line of output is one JSON object
    ``{correct, attempted, failed, metrics}``.

``PYTHONPATH=src python -m bench.run [--quick] [--repeat 2] [--ledger]``
    Every workload, each in its own fresh subprocess (untraced, then
    traced), every metric printed by name with its unit, outputs checked
    against ``bench.reference``, one result file written.

Metric names, units, directions and bounds live in ``BENCHMARK.json``.
"""

from __future__ import annotations

from time import perf_counter as now

_PROCESS_START = now()

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
LEDGER_DIR = os.path.join(BENCH_DIR, "ledger")
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench import stats  # noqa: E402
from bench.spans import PASS, UNTRACED, SpanRecorder  # noqa: E402

BENCH_ID = "tweeql-e2e/1"
DEFAULT_SEED = 2011
#: Set-up is repeated, and its median reported, up to this many times
#: while the repeats so far took less than the budget: the election
#: scenario alone takes ten seconds to generate, and the whole benchmark
#: has a time cap.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 8.0
#: Timed passes a run needs before ``--seconds`` may end it.
MIN_PASSES = 3
#: Untraced and traced passes of a ``--trace 1`` run (after one warm-up),
#: interleaved so drift in the host's speed falls on both alike.
LAYER_PASSES = 3

#: Pass spans whose time is a per-layer metric: span → (metric, per call).
SPAN_METRICS = {
    "nlp.sentiment.classify": ("nlp.sentiment.classify_us", True),
    "twitinfo.ingest": ("twitinfo.ingest_us", True),
    "twitinfo.feed_closed_bins": ("twitinfo.feed_closed_bins_ms", False),
    "twitinfo.detect_peaks": ("twitinfo.detect_peaks_ms", False),
    "twitinfo.dashboard": ("twitinfo.dashboard_ms", False),
    "twitinfo.render_json": ("twitinfo.render_json_ms", False),
}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------


class Tally:
    """Ops attempted and failed, and why."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []
        self.digest: str | None = None

    def run_pass(self, rec=UNTRACED):
        """One pass on fresh sessions; None when it raised.

        Every miss against the reference is a failed op, and so is an
        output that differs from the first pass's: the inputs are the
        same, so the digest must repeat exactly.
        """
        workload = self.workload
        self.attempted += workload.ops_per_pass
        try:
            sessions = workload.sessions()
            # Start every pass from the same collector state: whether a
            # full collection of the (large) input heap lands inside a
            # pass otherwise depends on what ran before it.
            gc.collect()
            result = workload.run(sessions, rec)
        except Exception:
            traceback.print_exc()
            self.failed += workload.ops_per_pass
            self.misses.append("pass raised (traceback on stderr)")
            return None
        misses = list(result.misses)
        if self.digest is None:
            self.digest = result.digest
        elif result.digest != self.digest:
            misses.append("output digest differs from the first pass")
        self.failed += min(len(misses), workload.ops_per_pass)
        self.misses += misses
        return result


def measure_end_to_end(workload, tally, seconds, min_passes, import_s):
    """Set up, then repeat whole passes for ``seconds``; first discarded."""
    setups = []
    while len(setups) < SETUP_REPEATS and sum(setups) < SETUP_BUDGET_S:
        start = now()
        workload.setup()
        sessions = workload.sessions()
        setups.append(import_s + now() - start)
        for session in sessions:
            session.close()
    deadline = now() + seconds
    tally.run_pass()  # warm-up: checked, not timed
    attempts = []
    while len(attempts) < min_passes or now() < deadline:
        attempts.append(tally.run_pass())
    passes = [p for p in attempts if p is not None]
    if not passes:
        raise SystemExit("every pass raised; nothing to report")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "stream_tweets_per_s": [
            workload.input_tweets_per_pass / p.wall_s for p in passes
        ],
        "time_to_answer_s": [p.answer_s for p in passes],
        "peak_rss_mb": [rss_mb],
        "setup_s": setups,
    }


def measure_layers(workload, tally, trace_path):
    """Untraced passes, their traced twins, then the layer probes."""
    workload.setup()
    tally.run_pass()  # warm-up
    rec = SpanRecorder()
    untraced, traced = [], []
    for number in range(LAYER_PASSES):
        untraced.append(tally.run_pass())
        rec.pass_id = number
        traced.append(tally.run_pass(rec))
    rec.pass_id = None
    if None in untraced or None in traced:
        raise SystemExit("a pass raised; no layer metrics")

    values = {
        key: statistics.median(p.observed[key] for p in untraced)
        for key in untraced[0].observed
    }
    values |= workload.probes(rec, traced[-1])
    table = rec.self_times(LAYER_PASSES - 1)
    spans = rec.self_times(None) | table
    for span, (metric, per_call) in SPAN_METRICS.items():
        if span in spans:
            entry = spans[span]
            values[metric] = (
                entry["total_ns"] / entry["count"] / 1e3 if per_call
                else entry["total_ns"] / 1e6
            )
    values["twitter.generate_tweets_per_s"] = (
        len(workload.tweets) / workload.generate_s
    )
    values["twitter.session_build_ms"] = statistics.median(workload.build_ms)
    values["bench.trace_overhead_ratio"] = (
        statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in untraced)
    )
    values["bench.unattributed_share"] = (
        table[PASS]["self_ns"] / table[PASS]["total_ns"]
    )
    layers = {
        name: {
            "self_ms": entry["self_ns"] / 1e6,
            "total_ms": entry["total_ns"] / 1e6,
            "count": entry["count"],
        }
        for name, entry in table.items() if name != PASS
    }
    rec.write(
        trace_path, workload=workload.name, seed=workload.seed,
        note="pass: traced pass number, null for layer probes",
    )
    return values, layers


def run_workload(args) -> int:
    from bench.workloads import WORKLOADS

    import_s = now() - _PROCESS_START
    spec = load_spec()
    scratch = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(scratch)
    workload = WORKLOADS[args.workload](args.seed, scratch)
    tally = Tally(workload)
    detail = {"workload": workload.name, "seed": args.seed, "trace": args.trace}
    try:
        if args.trace:
            values, layers = measure_layers(
                workload, tally,
                os.path.join(OUT_DIR, f"trace-{workload.name}.json"),
            )
            detail["layers"] = layers
            metrics = [
                {**m, "value": float(values.get(m["name"], 0.0))}
                for m in spec["per_layer"]
            ]
        else:
            samples = measure_end_to_end(
                workload, tally, args.seconds, args.min_passes, import_s
            )
            metrics = [
                {**m, **stats.summarize(samples[m["name"]], m["better"])}
                for m in spec["end_to_end"]
            ]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    detail |= {
        "input_tweets_per_pass": workload.input_tweets_per_pass,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "misses": tally.misses,
        "digest": tally.digest,
        "metrics": metrics,
    }
    with open(detail_path(workload.name, args.trace), "w") as f:
        json.dump(detail, f, indent=1)
    for miss in tally.misses:
        print("MISS", miss, file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": m["value"], "unit": m["unit"]}
            for m in metrics
        },
    }))
    return 0


def detail_path(workload: str, trace: int) -> str:
    return os.path.join(OUT_DIR, f"result-{workload}-trace{trace}.json")


# ---------------------------------------------------------------------------
# Every workload, one subprocess each
# ---------------------------------------------------------------------------


def git_sha() -> str:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
            check=True, capture_output=True, text=True,
        ).stdout.strip()
        return sha + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "nogit"


def run_set(spec, args) -> dict:
    """One full set: every workload untraced, then traced."""
    workloads = {}
    for entry in spec["workloads"]:
        name = entry["name"]
        merged = {"why": entry["why"]}
        for trace in (0, 1):
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--min-passes", str(args.min_passes),
            ]
            print(f"# {name} --trace {trace}", flush=True)
            subprocess.run(
                command, cwd=ROOT, check=True, stdout=subprocess.DEVNULL
            )
            with open(detail_path(name, trace)) as f:
                detail = json.load(f)
            key = "per_layer" if trace else "end_to_end"
            merged[key] = detail["metrics"]
            merged["input_tweets_per_pass"] = detail["input_tweets_per_pass"]
            merged["attempted"] = merged.get("attempted", 0) + detail["attempted"]
            merged["failed"] = merged.get("failed", 0) + detail["failed"]
            merged["misses"] = merged.get("misses", []) + detail["misses"]
            merged.setdefault("digest", detail["digest"])
            if detail["digest"] != merged["digest"]:
                merged["failed"] += 1
                merged["misses"].append("traced run's digest differs")
            if trace:
                merged["layers"] = detail["layers"]
        workloads[name] = merged
    return {
        "bench": BENCH_ID,
        "git_sha": git_sha(),
        "host": {
            "name": socket.gethostname(),
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "seed": args.seed,
        "seconds": args.seconds,
        "load": "closed loop, one client, one thread, in-process calls",
        "workloads": workloads,
    }


def print_set(result: dict) -> None:
    for name, workload in result["workloads"].items():
        print(f"\n== {name}: {workload['attempted']} ops, "
              f"{workload['failed']} failed, "
              f"{workload['input_tweets_per_pass']} input tweets per pass")
        for m in workload["end_to_end"]:
            tail = (
                f"p{m['p_hi_percentile']:g} {m['p_hi']:.6g}"
                if m["p_hi"] is not None else "p_hi n/a"
            )
            print(f"  {m['name']:<34}{m['value']:>14.6g} {m['unit']:<9} "
                  f"({tail}, n={m['n']}, bound {m['bound']:.0%})")
        for m in workload["per_layer"]:
            print(f"  {m['name']:<42}{m['value']:>14.6g} {m['unit']}")
        for miss in workload["misses"]:
            print(f"  MISS {miss}")


def run_all(args) -> int:
    from bench import compare

    spec = load_spec()
    os.makedirs(OUT_DIR, exist_ok=True)
    paths = []
    failed = 0
    for index in range(args.repeat):
        result = run_set(spec, args)
        print_set(result)
        failed += sum(w["failed"] for w in result["workloads"].values())
        if args.ledger and index == 0:
            os.makedirs(LEDGER_DIR, exist_ok=True)
            path = os.path.join(
                LEDGER_DIR,
                f"{result['git_sha']}-{result['host']['name']}.json",
            )
        else:
            path = os.path.join(OUT_DIR, f"run-{index + 1}.json")
        with open(path, "w") as f:
            json.dump(result, f, indent=1)
            f.write("\n")
        print(f"\nwrote {os.path.relpath(path, ROOT)}")
        paths.append(path)
    status = 1 if failed else 0
    if args.repeat == 2:
        # The A/A check: two sets of the same code must agree both ways.
        status |= compare.report(paths[0], paths[1], exact=True)
        status |= compare.report(paths[1], paths[0], exact=True)
    return status


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[
        w["name"] for w in spec["workloads"]
    ])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-passes", type=int, default=MIN_PASSES)
    parser.add_argument("--quick", action="store_true",
                        help="about 3 s and one timed pass per workload")
    parser.add_argument("--repeat", type=int, choices=(1, 2), default=1,
                        help="2: run two sets and require them to agree")
    parser.add_argument("--ledger", action="store_true",
                        help="write the result to bench/ledger/")
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds, args.min_passes = 3.0, 1
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.workload:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
