"""The benchmark's own tests; run with `python3 -m pytest perfbench`.

The smoke runs use --smoke, which makes every workload's calls at tiny
levels, so the generator, the tracer and the output checks all run in
a few seconds per workload.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import tracer  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_is_correct_and_reports_every_metric(name, trace):
    proc = _run("--workload", name, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0, proc.stdout
    calls = WORKLOADS[name].calls(make_inputs(3), True)
    assert res["attempted"] >= 2 * len(calls)
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in _spec()[kind]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == tracer.PER_LAYER_UNITS


def test_seed_zero_is_the_acceptance_configuration():
    inputs = make_inputs(0)
    assert inputs.acceptance
    assert inputs.load[2] == ([0.5, 0.5], [1.0, 0.0])
    assert inputs.load[3] == ([0.5, 0.5, 0.5], [0.0, 0.0, 1.0])
    assert inputs.centre == {2: [0.5, 0.5], 3: [0.5, 0.5, 0.5]}


def test_other_seeds_repeat_and_stay_in_range():
    assert make_inputs(7) == make_inputs(7)
    assert make_inputs(7) != make_inputs(8)
    for seed in range(1, 20):
        inputs = make_inputs(seed)
        assert not inputs.acceptance
        for dim in (2, 3):
            point, force = inputs.load[dim]
            for xs in (point, inputs.centre[dim]):
                assert len(xs) == dim and all(0.3 <= x <= 0.7 for x in xs)
            assert np.linalg.norm(force) == pytest.approx(1.0, abs=1e-15)


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "diagnostics", "--seed", "0", "--seconds",
                "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_children_only():
    # root [0, 10] with children [1, 4] and [5, 6]; grandchild [2, 3]
    spans = [["cli.self", 0.0, 10.0, -1, 0, None],
             ["assembly.form", 1.0, 4.0, 0, 0, None],
             ["mesh.geometry", 2.0, 3.0, 1, 0, None],
             ["solver.cg", 5.0, 6.0, 0, 0, None]]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    m = tracer.layer_metrics(spans, 10.5)
    assert m["cli.self_s"] == 6.0 and m["assembly.form_s"] == 2.0
    assert m["trace.unattributed_s"] == pytest.approx(0.5)
