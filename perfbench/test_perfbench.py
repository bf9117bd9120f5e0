"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
from fractions import Fraction
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import run  # noqa: E402
from spans import Tracer, span_times  # noqa: E402
from stats import percentile, quartile_spread  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_percentile_on_known_samples():
    samples = list(range(100, 0, -1))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile(list(range(1, 21)), 50) == 10


def test_p90_needs_100_samples():
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)


def test_quartile_spread():
    med, spread = quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert med == 5.5
    assert spread == pytest.approx((8.25 - 2.75) / 5.5)


def test_reference_loop_is_fixed_work():
    assert calib.det([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]) == 5
    assert calib.det([[0, 1], [1, 0]]) == -1
    assert 0 < calib.sample() < 1


def test_runs_are_scaled_by_the_reference_samples_nearest_them():
    ref = calib.REFERENCE_S
    # the machine runs at reference speed until t = 10, then at half speed
    calib_at = [(t, ref if t < 10 else 2 * ref) for t in range(20)]
    runs_at = [[(2, 0.010), (17, 0.020)], [(8.4, 0.030)]]
    scaled = run._scaled_runs(runs_at, calib_at)
    assert scaled[0] == pytest.approx([0.010, 0.010])
    assert scaled[1] == pytest.approx([0.030])  # 4 of its 7 nearest samples are fast
    assert run._scaled_runs([[(5, 0.010)]], [(0, 2 * ref)]) == [pytest.approx([0.005])]
    # a set-up is scaled by the two samples around it
    assert run._scaled_runs([[(9.5, 0.015)]], calib_at, 2) == [pytest.approx([0.010])]


def test_self_time_on_synthetic_tree():
    spans = [
        ["root", 0, 100, -1, "t"],
        ["a", 10, 40, 0, "t"],
        ["leaf", 15, 25, 1, "t"],
        ["b", 50, 70, 0, "t"],
        ["b", 80, 90, 0, "t"],
    ]
    times = span_times(spans)
    assert times["root"] == (100, 40, 1)
    assert times["a"] == (30, 20, 1)
    assert times["leaf"] == (10, 10, 1)
    assert times["b"] == (30, 30, 2)


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0, 100, -1, None], ["c", 10, 40, 0, None], ["c", 30, 50, 0, None]]
    assert span_times(spans)["p"][1] == 60


def test_tracer_records_parents_and_task_ids():
    tr = Tracer()
    tr.task = "0.1"
    with tr.span("outer"):
        assert tr.call("inner", lambda x: x + 1, 1) == 2
    tr.task = "0.2"
    tr.call("other", len, [])
    assert [(s[0], s[3], s[4]) for s in tr.spans] == [
        ("outer", -1, "0.1"), ("inner", 0, "0.1"), ("other", -1, "0.2")]
    assert all(s[2] >= s[1] for s in tr.spans)


def test_metric_names_match_benchmark_json():
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK[key]}
        assert declared == table
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke_run(name, tmp_path):
    line, record, _ = run.run_workload(name, 5, 0, False, tiny=True, outdir=tmp_path)
    assert line["failed"] == 0 and line["correct"], record["failures"]
    assert line["attempted"] >= run.MIN_TASKS
    assert line["metrics"]["verified_frac"]["value"] == 1
    assert list(line["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    setup, loop = record["calibration"]["setup"], record["calibration"]["loop"]
    assert setup["samples"] == run.SETUP_REPS + 1 and loop["samples"] >= 1

    traced, traced_record, tracer = run.run_workload(name, 5, 0, True, tiny=True, outdir=tmp_path)
    assert traced["failed"] == 0 and traced["correct"], traced_record["failures"]
    assert traced_record["digest"] == record["digest"]
    assert set(traced["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    # every span and counter the replays record feeds a metric
    span_names = {s[0] for s in tracer.spans}
    assert span_names and span_names <= {f"{n[:-2]}" for n in run.PER_LAYER if n.endswith("_s")}
    assert set(tracer.counts) <= set(run.PER_LAYER) | {
        "certify.hl_verdicts", "certify.hl_fails", "certify.hr_certificates",
        "certify.primitive_dim", "polymatroid.compositions", "polymatroid.support_points"}
    assert set(tracer.maxima) <= set(run.PER_LAYER)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hl-direct", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
