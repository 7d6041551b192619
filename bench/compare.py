"""Compare two result files: ``python -m bench.compare A.json B.json``.

One row per (workload, end-to-end metric) with a verdict for B against
A — ``ok``, ``regressed`` or ``unresolved`` — from the bound fixed in
``BENCHMARK.json`` (recorded in each result) and the quartile spread of
A's own samples (see ``bench.stats.verdict``). Exits 1 when anything
regressed.
"""

from __future__ import annotations

import json
import sys

from bench import stats

#: Units whose metrics are counts or virtual time: the same code on the
#: same seed must reproduce them exactly.
EXACT_UNITS = ("count", "virtual_s")


def report(path_a: str, path_b: str, exact: bool = False) -> int:
    """Print the comparison; 1 when B regressed (or, with ``exact``, when
    a count or virtual-time layer metric differs), else 0."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    print(f"\nA = {path_a} ({a['git_sha']}, seed {a['seed']})\n"
          f"B = {path_b} ({b['git_sha']}, seed {b['seed']})")
    status = 0
    for name, workload_a in a["workloads"].items():
        workload_b = b["workloads"][name]
        by_name = {m["name"]: m for m in workload_b["end_to_end"]}
        for m in workload_a["end_to_end"]:
            other = by_name[m["name"]]
            outcome = stats.verdict(m, other, m["better"], m["bound"])
            worse = stats.worsening(m["value"], other["value"], m["better"])
            print(f"  {name:<17}{m['name']:<26}{m['value']:>12.5g} -> "
                  f"{other['value']:<12.5g}{m['unit']:<9}"
                  f"worse by {worse:+7.1%}  (bound {m['bound']:.0%}, "
                  f"A spread {stats.spread(m):.1%})  {outcome}")
            status |= outcome == "regressed"
        if workload_b["failed"] > workload_a["failed"]:
            print(f"  {name:<17}failed ops {workload_a['failed']} -> "
                  f"{workload_b['failed']}  regressed")
            status = 1
        if exact:
            layer_b = {m["name"]: m["value"] for m in workload_b["per_layer"]}
            for m in workload_a["per_layer"]:
                if m["unit"] in EXACT_UNITS and layer_b[m["name"]] != m["value"]:
                    print(f"  {name:<17}{m['name']}: {m['value']} -> "
                          f"{layer_b[m['name']]}  differs")
                    status = 1
    return status


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(report(sys.argv[1], sys.argv[2]))
