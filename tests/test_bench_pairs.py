"""tools/bench_pairs.py: the pair comparison and the alternating pair loop.

The script is loaded by path; `run_once` is replaced by a stub, so no
benchmark runs here.
"""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pairs_of(base, change, metric="tasks_per_s"):
    return [{"base": {metric: b}, "change": {metric: c}} for b, c in zip(base, change)]


def test_compare_counts_wins_losses_and_ties(bench_pairs):
    base = [10, 10, 10, 10, 10]
    change = [12, 9, 10, 11, 10]
    higher = bench_pairs.compare(pairs_of(base, change), "tasks_per_s", "higher", 0.2)
    assert (higher["wins"], higher["losses"], higher["pairs"]) == (2, 1, 5)
    lower = bench_pairs.compare(pairs_of(base, change), "tasks_per_s", "lower", 0.2)
    assert (lower["wins"], lower["losses"]) == (1, 2)
    assert higher["base"]["median"] == 10 and higher["change"]["median"] == 10
    assert higher["change_over_base"] == 1


@pytest.mark.parametrize("better, change, worse", [
    ("higher", [79] * 4, True),   # 21% fewer tasks a second
    ("higher", [81] * 4, False),
    ("lower", [121] * 4, True),   # 21% more milliseconds
    ("lower", [119] * 4, False),
    ("lower", [50] * 4, False),   # much better is never worse
])
def test_compare_worse_beyond_bound(bench_pairs, better, change, worse):
    out = bench_pairs.compare(pairs_of([100] * 4, change, "m"), "m", better, 0.2)
    assert out["worse_beyond_bound"] is worse
    assert out["bound"] == 0.2 and out["better"] == better


def test_compare_gain_beyond_base_spread(bench_pairs):
    base = [100, 104, 96, 102, 98, 100, 103, 97, 101, 99]
    q1, _, q3 = statistics.quantiles(base, n=4)
    spread = q3 - q1
    small = [b + spread / 2 for b in base]
    large = [b + 2 * spread for b in base]
    assert not bench_pairs.compare(pairs_of(base, small), "tasks_per_s", "higher", 0.2)[
        "gain_beyond_base_spread"]
    assert bench_pairs.compare(pairs_of(base, large), "tasks_per_s", "higher", 0.2)[
        "gain_beyond_base_spread"]
    # for a lower-is-better metric the same shift upward is a loss, not a gain
    assert not bench_pairs.compare(pairs_of(base, large), "tasks_per_s", "lower", 0.2)[
        "gain_beyond_base_spread"]
    assert bench_pairs.compare(pairs_of(large, base), "tasks_per_s", "lower", 0.2)[
        "gain_beyond_base_spread"]


SPEC = {
    "run_seconds": 25,
    "end_to_end": [
        {"name": "tasks_per_s", "better": "higher", "bound": 0.2},
        {"name": "task_ms_p50", "better": "lower", "bound": 0.2},
    ],
}


def checkouts(tmp_path, seed=77):
    for side in ("base", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(SPEC))
        (tmp_path / side / "perfbench" / "run.py").write_text(f"DEFAULT_SEED = {seed}\n")
    return tmp_path / "base", tmp_path / "change"


def stub_runs(monkeypatch, bench_pairs, base, record_for):
    calls = []

    def run_once(checkout, workload, seed, seconds, keep, pair):
        side = "base" if checkout == base.resolve() else "change"
        calls.append((side, workload, seed, seconds, pair))
        return record_for(side, pair)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    return calls


def record(tasks_per_s, digest="d0", python="3.11.7", backend="fraction"):
    return {
        "environment": {"python": python, "backend": backend},
        "digest": digest,
        "correct": True,
        "failed": 0,
        "metrics": {"tasks_per_s": {"value": tasks_per_s},
                    "task_ms_p50": {"value": 1000 / tasks_per_s}},
    }


def test_main_runs_ten_alternating_pairs(bench_pairs, tmp_path, monkeypatch):
    base, change = checkouts(tmp_path)
    calls = stub_runs(monkeypatch, bench_pairs, base,
                      lambda side, pair: record(100 + pair if side == "base" else 150 + pair))
    out = tmp_path / "BENCH.json"
    code = bench_pairs.main(["--base", str(base), "--change", str(change), "--pr", "3",
                             "--workload", "hl-direct", "--out", str(out)])
    assert code == 0
    assert len(calls) == 2 * bench_pairs.PAIRS == 20
    for k in range(10):
        first = "base" if k % 2 == 0 else "change"
        second = "change" if first == "base" else "base"
        assert calls[2 * k][0] == first and calls[2 * k + 1][0] == second
        assert calls[2 * k][4] == calls[2 * k + 1][4] == k
    # the run length comes from BENCHMARK.json, the seed from perfbench/run.py
    assert {(w, s, sec) for _, w, s, sec, _ in calls} == {("hl-direct", 77, 25)}
    bench = json.loads(out.read_text())
    assert bench["problems"] == [] and bench["seconds"] == 25
    (run,) = bench["runs"]
    assert [p["first"] for p in run["pairs"]] == ["base", "change"] * 5
    tps = run["metrics"]["tasks_per_s"]
    assert tps["wins"] == 10 and tps["gain_beyond_base_spread"]
    assert not run["metrics"]["task_ms_p50"]["worse_beyond_bound"]
    assert run["metrics"]["task_ms_p50"]["wins"] == 10


def test_main_runs_every_workload_on_every_seed(bench_pairs, tmp_path, monkeypatch):
    base, change = checkouts(tmp_path)
    calls = stub_runs(monkeypatch, bench_pairs, base, lambda side, pair: record(100))
    code = bench_pairs.main(["--base", str(base), "--change", str(change), "--pr", "3",
                             "--workload", "a", "--workload", "b", "--seed", "1", "--seed", "2",
                             "--out", str(tmp_path / "o.json")])
    assert code == 0
    assert [(w, s) for _, w, s, _, _ in calls[::20]] == [("a", 1), ("a", 2), ("b", 1), ("b", 2)]
    assert len(calls) == 80


@pytest.mark.parametrize("bad", ["digest", "python", "backend"])
def test_main_fails_on_a_digest_or_environment_mismatch(bench_pairs, tmp_path, monkeypatch, bad):
    base, change = checkouts(tmp_path)

    def record_for(side, pair):
        odd = side == "change" and pair == 3
        return record(100, digest="d1" if odd and bad == "digest" else "d0",
                      python="3.12.0" if odd and bad == "python" else "3.11.7",
                      backend="gmpy2" if odd and bad == "backend" else "fraction")

    stub_runs(monkeypatch, bench_pairs, base, record_for)
    out = tmp_path / "BENCH.json"
    code = bench_pairs.main(["--base", str(base), "--change", str(change), "--pr", "3",
                             "--workload", "hl-direct", "--out", str(out)])
    assert code == 1
    problems = json.loads(out.read_text())["problems"]
    assert len(problems) == 1
    assert ("digests differ" if bad == "digest" else "different Python") in problems[0]


def test_main_fails_on_a_failed_run(bench_pairs, tmp_path, monkeypatch):
    base, change = checkouts(tmp_path)

    def record_for(side, pair):
        out = record(100)
        if side == "base" and pair == 5:
            out.update(correct=False, failed=2)
        return out

    stub_runs(monkeypatch, bench_pairs, base, record_for)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--base", str(base), "--change", str(change), "--pr", "3",
                             "--workload", "w", "--seed", "5", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["problems"] == ["w seed 5 pair 5 base: 2 failed"]
