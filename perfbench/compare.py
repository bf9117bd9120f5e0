#!/usr/bin/env python3
"""Summarise or compare benchmark results.

    python3 perfbench/compare.py RESULTS_DIR             # spread of each metric
    python3 perfbench/compare.py BASE_DIR CHANGE_DIR     # change against base

A results directory holds the records run.py writes to
.perfbench/results/ (copy it away between the two sets of runs).  Only
untraced records are compared.  For each workload and end-to-end metric
the summary gives the median over runs and the spread, (Q3 - Q1) /
median.  A comparison marks a metric "worse" when the change's median is
worse than the base median by more than the bound in BENCHMARK.json, and
"unresolved" when either side's spread exceeds the bound, unless every
change run beats every base run.

Results from different Python versions or rational backends are refused
(exit 2): the backend alone moves timings several-fold.  Runs of the
same seed whose verdict digests differ, and runs that were not correct,
are reported and make the exit status 1.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

from stats import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    records = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]
    return [r for r in records if r.get("trace") == 0]


def _env_key(record):
    env = record["environment"]
    return env["python"], env["backend"]


def _integrity(records, label):
    """Problems with correctness and digest agreement within one set of runs."""
    problems = []
    digests = defaultdict(set)
    for r in records:
        if not r["correct"]:
            problems.append(f"{label}: {r['workload']} seed {r['environment']['seed']} not correct")
        digests[r["workload"], r["environment"]["seed"]].add(r["digest"])
    for (workload, seed), found in sorted(digests.items()):
        if len(found) > 1:
            problems.append(f"{label}: {workload} seed {seed} has {len(found)} different digests")
    return problems


def _by_metric(records):
    out = defaultdict(lambda: defaultdict(list))
    for r in records:
        for name, m in r["metrics"].items():
            out[r["workload"]][name].append(m["value"])
    return out


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    sets = [load(a) for a in args]
    if not all(sets):
        print("no untraced result records found", file=sys.stderr)
        return 2
    envs = {_env_key(r) for records in sets for r in records}
    if len(envs) > 1:
        print("refusing to compare results from different Python versions or rational "
              f"backends: {sorted(envs)}", file=sys.stderr)
        return 2
    problems = [p for records, label in zip(sets, ("base", "change")) for p in _integrity(records, label)]

    base = _by_metric(sets[0])
    change = _by_metric(sets[1]) if len(sets) == 2 else None
    for workload in sorted(base):
        for name, values in base[workload].items():
            bound = metrics[name]["bound"]
            lower = metrics[name]["better"] == "lower"
            med, spread = quartile_spread(values) if len(values) > 1 else (values[0], 0.0)
            row = f"{workload:20s} {name:14s} n={len(values):2d} median {med:12.6g} spread {spread:6.3f}"
            if change is None:
                print(f"{row}  bound {bound}{'  SPREAD ABOVE BOUND' if spread > bound else ''}")
                continue
            new = change[workload].get(name)
            if not new:
                print(f"{row}  change: no runs")
                continue
            new_med, new_spread = quartile_spread(new) if len(new) > 1 else (new[0], 0.0)
            worse = (new_med - med) / med if lower else (med - new_med) / med
            beats_all = max(new) < min(values) if lower else min(new) > max(values)
            if max(spread, new_spread) > bound and not beats_all:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "worse"
            else:
                verdict = "ok"
            print(f"{row} | change median {new_med:12.6g} spread {new_spread:6.3f} "
                  f"worse by {worse:+.3f} (bound {bound}) {verdict}")
            if verdict == "worse":
                problems.append(f"{workload} {name} worse by {worse:.3f}")
    for p in problems:
        print(f"PROBLEM {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
