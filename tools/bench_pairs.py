#!/usr/bin/env python3
"""Run alternating base/change pairs of the benchmark and write BENCH_<pr>.json.

    python3 tools/bench_pairs.py --base BASE_DIR --change CHANGE_DIR --pr N \\
        --workload hl-direct [--seed N] [--keep RECORDS_DIR] [--out BENCH_N.json]

BASE_DIR and CHANGE_DIR are two checkouts of the repository, for example
the parent commit and the change, made with `git worktree add`, `git
clone` or `git archive`.  Each of the ten pairs runs `perfbench/run.py
--trace 0` once in each checkout with the same seed and the run length
that BENCHMARK.json sets, the base first in even pairs and the change
first in odd ones.  Without --seed the runs use perfbench/run.py's own
default seed.  After every run its result record is copied from the
checkout's .perfbench/results/ into RECORDS_DIR (base/ and change/, one
file per pair), so the next run cannot overwrite it.  --workload and
--seed may be given more than once; every workload runs its own pairs on
every seed.  The output goes to BENCH_<pr>.json in the current directory
unless --out names another file.

The output holds, per workload, seed and end-to-end metric: every pair's two
values and which side ran first; each side's median and quartiles
(statistics.quantiles); the change's wins, ties counting for neither
side; whether the medians differ by more than the base's quartile
spread (Q3 - Q1); and whether the change's median is worse than the
base's by more than the bound in BENCHMARK.json.  It also holds each
side's verdict digests, the Python version and the rational backend.
Exit status 1 when any run failed, a digest differs between the sides,
or the sides ran on different Python versions or backends.
"""

from __future__ import annotations

import argparse
import ast
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("base", "change")
PAIRS = 10


def default_seed(checkout):
    """perfbench/run.py's DEFAULT_SEED, read from its source without running it."""
    tree = ast.parse((checkout / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "DEFAULT_SEED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit("perfbench/run.py defines no DEFAULT_SEED")


def run_once(checkout, workload, seed, seconds, keep, pair):
    """One untraced run in `checkout`; returns its result record, copied into `keep`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    subprocess.run(cmd, cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    produced = checkout / ".perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    kept = keep / f"{workload}-seed{seed}-pair{pair:02d}.json"
    kept.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(produced, kept)
    return json.loads(kept.read_text())


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(pairs, metric, better, bound):
    base = [p["base"][metric] for p in pairs]
    change = [p["change"][metric] for p in pairs]
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    b, c = summary(base), summary(change)
    gain = sign * (c["median"] - b["median"])
    return {
        "better": better,
        "bound": bound,
        "base": b,
        "change": c,
        "change_over_base": c["median"] / b["median"] if b["median"] else None,
        "wins": wins,
        "losses": losses,
        "pairs": len(pairs),
        "gain_beyond_base_spread": gain > b["q3"] - b["q1"],
        "worse_beyond_bound": -gain > bound * abs(b["median"]),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--pr", required=True, type=int)
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--seed", type=int, action="append")
    parser.add_argument("--keep", type=Path, default=Path(".perfbench/pairs"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    checkouts = {"base": args.base.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    problems = []
    environments = set()
    seconds = spec["run_seconds"]
    seeds = args.seed or [default_seed(checkouts["change"])]
    out = {"pr": args.pr, "seconds": seconds, "runs": []}
    for workload, seed in ((w, s) for w in args.workload for s in seeds):
        pairs, digests = [], {side: set() for side in SIDES}
        for k in range(PAIRS):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {"pair": k, "first": order[0]}
            for side in order:
                record = run_once(checkouts[side], workload, seed, seconds,
                                  args.keep / side, k)
                env = record["environment"]
                environments.add((env["python"], env["backend"]))
                digests[side].add(record["digest"])
                if not record["correct"] or record["failed"]:
                    problems.append(f"{workload} seed {seed} pair {k} {side}: "
                                    f"{record['failed']} failed")
                pair[side] = {name: m["value"] for name, m in record["metrics"].items()}
            pairs.append(pair)
            print(f"# {workload} seed {seed} pair {k}: " + ", ".join(
                f"{side} tasks_per_s {pair[side]['tasks_per_s']:.1f}" for side in SIDES),
                file=sys.stderr)
        if digests["base"] != digests["change"] or len(digests["base"]) != 1:
            problems.append(f"{workload} seed {seed}: digests differ: {digests}")
        out["runs"].append({
            "workload": workload,
            "seed": seed,
            "digests": {side: sorted(d) for side, d in digests.items()},
            "pairs": pairs,
            "metrics": {m["name"]: compare(pairs, m["name"], m["better"], bounds[m["name"]])
                        for m in spec["end_to_end"]},
        })
    if len(environments) != 1:
        problems.append(f"runs on different Python versions or backends: {sorted(environments)}")
    (python, backend), *_ = sorted(environments)
    out.update(python=python, backend=backend, problems=problems)
    (args.out or Path(f"BENCH_{args.pr}.json")).write_text(
        json.dumps(out, indent=1, sort_keys=True) + "\n")
    for msg in problems:
        print(f"# PROBLEM {msg}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
