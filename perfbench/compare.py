#!/usr/bin/env python3
"""Summarizes benchmark results and compares two sets of them.

    python3 perfbench/compare.py BASE.jsonl [NEW.jsonl]

Each file is a results log written by perfbench/run.py (one JSON object per
run). For every workload and metric it prints the sample count, the median
and the quartile spread ((q3 - q1) / median, quartiles as
statistics.quantiles(n=4) gives them). With two files it also prints how far
NEW's median moved from BASE's, marks end-to-end metrics that moved the
wrong way by more than their BENCHMARK.json bound, and flags the comparison
when the two sets were measured on different hosts or builds: a difference
across fingerprints is not a measurement of the code.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HOST_BUILD_KEYS = ("nproc", "cpu_model", "compiler", "build_type", "cxx_flags")


def load(path):
    runs = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
    groups = defaultdict(lambda: defaultdict(list))
    fingerprints = set()
    for run in runs:
        fp = run["fingerprint"]
        fingerprints.add(tuple(fp.get(k) for k in HOST_BUILD_KEYS))
        key = (run["workload"], run["trace"])
        for name, metric in run["result"]["metrics"].items():
            groups[key][name].append(metric["value"])
    return groups, fingerprints, {run["fingerprint"].get("git") for run in runs}


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load(p) for p in sys.argv[1:]]
    for path, (_, fps, gits) in zip(sys.argv[1:], sets):
        if len(fps) > 1:
            print(f"WARNING: {path} mixes {len(fps)} host/build fingerprints")
        print(f"{path}: revisions {sorted(g or 'none' for g in gits)}")
    if len(sets) == 2 and sets[0][1] != sets[1][1]:
        print("WARNING: the two sets come from different hosts or builds; "
              "their difference is not a measurement of the code")
    base = sets[0][0]
    new = sets[1][0] if len(sets) == 2 else None
    for key in sorted(base):
        workload, trace = key
        print(f"\n{workload} (trace {trace})")
        for name, values in base[key].items():
            med, spread = summary(values)
            line = f"  {name:42s} n={len(values):<3d} median={med:<14.6g} spread={spread:.4f}"
            bound = bounds.get(name) if trace == 0 else None
            if bound and spread > bound["bound"]:
                line += "  SPREAD>BOUND"
            if new and name in new.get(key, {}):
                new_med, new_spread = summary(new[key][name])
                change = (new_med - med) / med if med else 0.0
                line += f"  new={new_med:<14.6g} change={change:+.4f} spread={new_spread:.4f}"
                worse = change if bound and bound["better"] == "lower" else -change
                if bound and worse > bound["bound"]:
                    line += "  WORSE>BOUND"
            print(line)


if __name__ == "__main__":
    main()
