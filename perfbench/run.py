#!/usr/bin/env python3
"""Run one lefcert benchmark workload and print its metrics.

    python3 perfbench/run.py --workload hl-direct --seed 20221227 --seconds 25 --trace 0

One caller runs tasks in a closed loop, one task after another, in this
process and thread.  A task is one certified verdict.  Set-up builds a
pool of at least 100 distinct seeded tasks; the loop cycles through it
until --seconds have passed and every task has run at least three
times.  Between tasks, a fixed reference loop (calib.py) is timed at a
steady rate, and each task run is scaled to the reference speed by the
samples nearest to it.  A task's latency is the median of its scaled
runs, so p50 and p90 are taken over the distinct tasks and tasks_per_s
is their number divided by the sum of their latencies.  setup_s is
scaled by the samples taken around the set-ups.  The raw times are
printed on the # lines.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each task
twice in turn, once untraced and once as a traced replay of the same
public calls, until every task has run once each way and --seconds have
passed, and prints the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A fuller record (environment, sample counts, digest, failures) goes to
.perfbench/results/ and, for traced runs, the spans to .perfbench/spans/.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import calib  # noqa: E402
from spans import Tracer, span_times  # noqa: E402
from stats import percentile  # noqa: E402

DEFAULT_SEED = 20221227
SETUP_REPS = 7
MIN_TASKS = 100
MIN_REPEATS = 3
RATIONAL_BATCH = 256
CALIB_EVERY_S = 0.05  # seconds of the loop between reference samples
CALIB_NEIGHBOURS = 7  # reference samples that gauge the speed around one task run
SETUP_NEIGHBOURS = 2  # those around one import or set-up: the samples just before and after

# metric name -> (unit, better); the order is the print order
END_TO_END = {
    "setup_s": ("s", "lower"),
    "tasks_per_s": ("1/s", "higher"),
    "task_ms_p50": ("ms", "lower"),
    "task_ms_p90": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "verified_frac": ("ratio", "higher"),
}

# Spans in these layers wrap whole routes, so they report inclusive time;
# every other span reports self time.
_ROUTE_SPANS = (
    "certify.criterion", "certify.direct", "certify.witness", "certify.hr", "certify.gram",
    "certify.lefschetz", "certify.lorentzian",
    "discriminant.mixed_disc", "discriminant.intersection", "discriminant.positivity",
    "polymatroid.rank_table", "polymatroid.axioms", "polymatroid.enumerate",
    "polymatroid.hl_support", "cli.main",
)
_LEAF_SPANS = (
    "linalg.build", "linalg.add", "linalg.det", "linalg.rank", "linalg.psd", "linalg.kernel",
    "linalg.inertia", "exterior.omega", "exterior.matrix_build", "exterior.wedge",
    "serialize.parse", "serialize.emit",
)
_PER_TASK_COUNTS = {
    "linalg.det_calls": "calls/task",
    "linalg.rank_calls": "calls/task",
    "exterior.matrix_nnz": "count/task",
    "discriminant.subset_dets": "count/task",
    "polymatroid.criterion_calls": "calls/task",
    "serialize.report_bytes": "bytes/task",
}
_MAXIMA = {
    "linalg.det_dim_max": "dim",
    "linalg.det_bits_max": "bits",
    "exterior.entry_bits_max": "bits",
}
PER_LAYER = {
    "rationals.mul_ns": ("ns/op", "lower"),
    "rationals.add_ns": ("ns/op", "lower"),
    "rationals.div_ns": ("ns/op", "lower"),
    **{f"{name}_s": ("s/task", "lower") for name in _LEAF_SPANS + _ROUTE_SPANS},
    **{name: (unit, "lower") for name, unit in {**_PER_TASK_COUNTS, **_MAXIMA}.items()},
    "certify.fails_frac": ("ratio", "lower"),
    "certify.primitive_dim": ("dim", "lower"),
    "polymatroid.support_yield": ("ratio", "higher"),
    "generate.psd_s": ("s", "lower"),
    "trace.tasks_per_s": ("1/s", "higher"),
    "trace.untraced_tasks_per_s": ("1/s", "higher"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.spans": ("spans/task", "lower"),
}


def _git_commit():
    """Commit of the checkout, read from .git without leaving it; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    from lefcert.rationals import Rat

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "backend": f"{Rat.__module__}.{Rat.__name__}",
        "nproc": nproc,
        "seed": seed,
        "commit": _git_commit(),
    }


def _canonical(record):
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _attempt(fn, task, check, expected):
    """Run one task; return (seconds, canonical record or None, failure or None).

    Only fn(task) is timed.  A task fails when it raises, when its check
    fails, or when its record differs from an earlier run of the same input.
    """
    t0 = perf_counter()
    try:
        outcome = fn(task)
    except Exception as exc:  # a raising task is counted, not fatal
        return perf_counter() - t0, None, f"raised {type(exc).__name__}: {exc}"
    dt = perf_counter() - t0
    try:
        record = _canonical(check(task, outcome))
    except Exception as exc:  # CheckFailed, or a check that cannot read the outcome
        return dt, None, f"check failed: {type(exc).__name__}: {exc}"
    if expected is not None and record != expected:
        return dt, None, "record differs from an earlier run of the same input"
    return dt, record, None


def _rational_ns(entries):
    """ns per mul, add and div over a fixed batch of the workload's own entries."""
    xs = entries[:RATIONAL_BATCH]
    pairs = list(zip(xs, xs[1:] + xs[:1]))
    out = {}
    for name, op in (("mul", lambda a, b: a * b), ("add", lambda a, b: a + b),
                     ("div", lambda a, b: a / b)):
        reps = []
        for _ in range(5):
            t0 = perf_counter()
            for a, b in pairs:
                op(a, b)
            reps.append((perf_counter() - t0) / len(pairs) * 1e9)
        out[f"rationals.{name}_ns"] = statistics.median(reps)
    return out


def _per_layer(tracer, ntasks, setup_spans, rational_ns, latency, latency_traced):
    """Per-layer metrics over all traced task runs, per task run unless named *_max."""
    times = span_times(tracer.spans)
    counts, maxima = tracer.counts, tracer.maxima
    out = dict(rational_ns)
    for name in _LEAF_SPANS + _ROUTE_SPANS:
        incl, self_ns, _ = times.get(name, (0, 0, 0))
        out[f"{name}_s"] = (incl if name in _ROUTE_SPANS else self_ns) / 1e9 / ntasks
    for name in _PER_TASK_COUNTS:
        out[name] = counts[name] / ntasks
    for name in _MAXIMA:
        out[name] = maxima[name]
    verdicts = counts["certify.hl_verdicts"]
    out["certify.fails_frac"] = counts["certify.hl_fails"] / verdicts if verdicts else 0
    hr = counts["certify.hr_certificates"]
    out["certify.primitive_dim"] = counts["certify.primitive_dim"] / hr if hr else 0
    tried = counts["polymatroid.compositions"]
    out["polymatroid.support_yield"] = counts["polymatroid.support_points"] / tried if tried else 0
    out["generate.psd_s"] = times.get("generate.psd", (0, 0, 0))[0] / 1e9
    out["trace.tasks_per_s"] = len(latency_traced) / sum(latency_traced)
    out["trace.untraced_tasks_per_s"] = len(latency) / sum(latency)
    out["trace.overhead_pct"] = (sum(latency_traced) / sum(latency) - 1) * 100
    out["trace.spans"] = (len(tracer.spans) - setup_spans) / ntasks
    return out


def time_import(reps=SETUP_REPS):
    """Import lefcert afresh `reps` times; return (imports, reference samples).

    Both are lists of (midpoint, seconds).  A reference sample is taken
    before each import; the first set-up's sample follows the last import.
    """
    imports, samples = [], []
    for _ in range(reps):
        for module in [m for m in sys.modules if m == "lefcert" or m.startswith("lefcert.")]:
            del sys.modules[module]
        _timed_sample(samples)
        t0 = perf_counter()
        importlib.import_module("lefcert")
        dt = perf_counter() - t0
        imports.append((t0 + dt / 2, dt))
    return imports, samples


def _timed_sample(at):
    """One reference sample, appended to `at` as (midpoint, seconds)."""
    t0 = perf_counter()
    dt = calib.sample()
    at.append((t0 + dt / 2, dt))


def _scaled_runs(runs_at, calib_at, neighbours=CALIB_NEIGHBOURS):
    """Each run's seconds scaled to the reference speed around it.

    runs_at[i] lists (midpoint, seconds) of task i's runs, and calib_at the
    reference samples in time order.  A run is scaled by REFERENCE_S over
    the median of the `neighbours` samples nearest to its midpoint.
    """
    mids = [t for t, _ in calib_at]
    half = neighbours // 2
    out = []
    for task_runs in runs_at:
        scaled = []
        for mid, dt in task_runs:
            lo = min(max(bisect.bisect(mids, mid) - half, 0), max(len(mids) - neighbours, 0))
            local = statistics.median(dt_ for _, dt_ in calib_at[lo:lo + neighbours])
            scaled.append(dt * calib.REFERENCE_S / local)
        out.append(scaled)
    return out


def _calibration(samples):
    return {"samples": len(samples), "median_s": statistics.median(samples),
            "min_s": min(samples)}


def run_workload(name, seed, seconds, trace, tiny=False, outdir=None,
                 imports=((), ())):
    """Run one workload; return (result line, full record, tracer or None).

    `imports` comes from time_import(); the imports count in setup_s.
    """
    import workloads
    from lefcert.generate import SplitMix64

    outdir = Path(outdir) if outdir else ROOT / ".perfbench"
    kwargs = {"workdir": str(outdir / "work")} if name == "cli-corpus" else {}
    wl = workloads.WORKLOADS[name](tiny=tiny, **kwargs)

    tracer = Tracer() if trace else None
    import_runs, setup_calib = imports[0], list(imports[1])
    setup_runs = []
    loop_calib = []
    for _ in range(1 if trace else SETUP_REPS):
        if not tracer:
            _timed_sample(setup_calib)
        t0 = perf_counter()
        if tracer:
            tracer.task = "setup"
        tasks = wl.setup(SplitMix64(seed), tracer or workloads.NO_TRACE)
        workloads.warm(wl.ns)
        dt = perf_counter() - t0
        setup_runs.append((t0 + dt / 2, dt))
    if not tracer:
        _timed_sample(setup_calib)
    if len(tasks) < MIN_TASKS:
        raise ValueError(f"{name} has {len(tasks)} distinct tasks, fewer than {MIN_TASKS}")
    setup_spans = len(tracer.spans) if tracer else 0
    # the pool lives for the whole run: keep the cyclic collector from rescanning it
    gc.collect()
    gc.freeze()

    # Each distinct task runs repeatedly; its latency is the median of
    # its runs.  Untraced, the reference loop is sampled every
    # CALIB_EVERY_S, so its samples spread over the run as the tasks do,
    # and each run is later scaled by the samples nearest to it.
    # A traced run alternates an untraced and a traced run of each task.
    replay = (lambda t: wl.replay(t, tracer)) if tracer else None
    expected = [None] * len(tasks)  # canonical record of each task's first run
    times = [[] for _ in tasks]  # (midpoint, seconds) of each untraced run
    times_traced = [[] for _ in tasks]
    runs = [0] * len(tasks)
    failures = []
    attempted = traced_runs = 0
    min_runs = 1 if tracer else MIN_REPEATS
    last_calib = -math.inf
    start = perf_counter()
    for step in itertools.count():
        i = step % len(tasks)
        for fn, samples in ((wl.run, times), (replay, times_traced)):
            if fn is None:
                continue
            if fn is replay:
                tracer.task = f"{step // len(tasks)}.{i}"
                traced_runs += 1
            t0 = perf_counter()
            dt, record, err = _attempt(fn, tasks[i], wl.check, expected[i])
            attempted += 1
            samples[i].append((t0 + dt / 2, dt))
            if not tracer and perf_counter() - last_calib >= CALIB_EVERY_S:
                _timed_sample(loop_calib)
                last_calib = perf_counter()
            if err:
                failures.append(f"task {i} run {runs[i]}{' traced' if fn is replay else ''}: {err}")
            elif expected[i] is None:
                expected[i] = record
        runs[i] += 1
        if min(runs) >= min_runs and perf_counter() - start >= seconds:
            break

    complete = None not in expected
    digest = hashlib.sha256("\n".join(r or "" for r in expected).encode()).hexdigest()
    failed = len(failures)
    latency = [statistics.median(dt for _, dt in t) for t in times]

    calibration = raw = None
    if tracer:
        metrics = _per_layer(tracer, traced_runs, setup_spans,
                             _rational_ns(list(wl.entries(tasks))), latency,
                             [statistics.median(dt for _, dt in t) for t in times_traced])
        units = PER_LAYER
    else:
        raw = {
            "setup_s": sum(statistics.median(dt for _, dt in runs)
                           for runs in (import_runs, setup_runs) if runs),
            "tasks_per_s": len(latency) / sum(latency),
            "task_ms_p50": percentile(latency, 50) * 1e3,
            "task_ms_p90": percentile(latency, 90) * 1e3,
        }
        calibration = {"setup": _calibration([dt for _, dt in setup_calib]),
                       "loop": _calibration([dt for _, dt in loop_calib])}
        scaled = [statistics.median(t) for t in _scaled_runs(times, loop_calib)]
        metrics = {
            "setup_s": sum(statistics.median(runs) for runs in _scaled_runs(
                (import_runs, setup_runs), setup_calib, SETUP_NEIGHBOURS) if runs),
            "tasks_per_s": len(scaled) / sum(scaled),
            "task_ms_p50": percentile(scaled, 50) * 1e3,
            "task_ms_p90": percentile(scaled, 90) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "verified_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END
    line = {
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
    }
    record = {
        "workload": name,
        "trace": int(trace),
        "tiny": tiny,
        "seconds": seconds,
        "environment": environment(seed),
        "distinct_tasks": len(tasks),
        "runs_per_task": [min(runs), max(runs)],
        "elapsed_s": perf_counter() - start,
        "setup_reps_s": [dt for _, dt in setup_runs],
        "digest": digest,
        "calibration": calibration,
        "raw_metrics": raw,
        "failures": failures[:20],
        **line,
    }
    if tracer:
        record["spans_file"] = str(outdir / "spans" / f"{name}-seed{seed}.jsonl")
    return line, record, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["hl-direct", "positivity-batch", "polymatroid-support",
                                 "cli-corpus"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "lefcert" / "__init__.py").is_file():
        print(f"lefcert sources not found in {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    line, record, tracer = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                        imports=time_import())
    outdir = ROOT / ".perfbench"
    (outdir / "results").mkdir(parents=True, exist_ok=True)
    if tracer:
        (outdir / "spans").mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(record["spans_file"])
    path = outdir / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    env = record["environment"]
    print(f"# {args.workload}: python {env['python']}, backend {env['backend']}, "
          f"nproc {env['nproc']}, seed {env['seed']}, commit {env['commit']}")
    print(f"# digest {record['digest']}")
    print(f"# {record['distinct_tasks']} distinct tasks (the p50/p90 sample count), "
          f"{record['runs_per_task'][0]}-{record['runs_per_task'][1]} runs each, "
          f"{record['attempted']} attempted, {record['failed']} failed "
          f"(failed_frac {record['failed'] / record['attempted']:.6g})")
    if record["calibration"]:
        for phase, cal in record["calibration"].items():
            print(f"# reference loop in {phase}: median {cal['median_s'] * 1e3:.4g} ms over "
                  f"{cal['samples']} samples (reference {calib.REFERENCE_S * 1e3:.4g} ms)")
        print("# raw: " + ", ".join(f"{k} = {v:.6g}" for k, v in record["raw_metrics"].items()))
    for msg in record["failures"]:
        print(f"# FAILED {msg}")
    for name, m in line["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
