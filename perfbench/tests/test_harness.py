"""Fast self-test of the benchmark harness.

Runs a tiny pass of every workload (search step 1 narrowed to the frozen
tables' index multisets, which leaves the output unchanged), a traced pass,
and the correctness checks against good and tampered outputs.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from pass_child import WORKLOADS  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def tiny_passes():
    return {w: run.judge(w, SEED, run.run_pass(w, SEED, False, tiny=True)) for w in WORKLOADS}


def test_benchmark_json_matches_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer_units = {name: unit for name, (unit, _) in run.PER_LAYER.items()} | run.DERIVED_LAYER
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_units


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_is_correct(tiny_passes, workload):
    p = tiny_passes[workload]
    assert p.problems == []
    metrics = run.end_to_end([p], [0.1])
    assert all(m["value"] > 0 for m in metrics.values())


def test_cases_follow_the_seed(tiny_passes):
    report = tiny_passes["eliminate-cases"].report
    assert [c["case"] for c in report["cases"]] == run.case_order(SEED, 36)
    assert run.case_order(SEED, 36) != run.case_order(SEED + 1, 36)


def test_pool_workers_report_their_layers():
    untraced = run.judge("pipeline-w2", SEED, run.run_pass("pipeline-w2", SEED, False, tiny=True))
    traced = run.judge("pipeline-w2", SEED, run.run_pass("pipeline-w2", SEED, True, tiny=True))
    assert traced.problems == []
    metrics, problems = run.per_layer("pipeline-w2", [(untraced, traced)])
    assert problems == []
    value = {name: m["value"] for name, m in metrics.items()}
    assert value["search.step3.calls"] == value["search.step2.out"] > 0
    # one LBContext per step-3 call plus one per verified candidate
    assert value["lb.LBContext.calls"] == value["search.step3.calls"] + 36
    assert value["eliminate.solver.calls"] > 0
    assert 0 < value["search.pool.busy_ratio"] <= 1.1
    assert value["certificates.mechanical_steps"] > 0


def test_check_rejects_tampered_outputs(tiny_passes):
    report = tiny_passes["search-equal"].report
    doc = json.loads(report["output"])
    doc["payload"][0]["q"] += 1
    assert run.check_pass("search-equal", SEED, dict(report, output=json.dumps(doc)))

    report = tiny_passes["pipeline-serial"].report
    doc = json.loads(report["output"])
    doc["summary"]["survivors"] = [35]
    assert run.check_pass("pipeline-serial", SEED, dict(report, output=json.dumps(doc)))
    cases = [dict(c, eliminated=c["case"] != 7) for c in report["cases"]]
    assert run.check_pass("pipeline-serial", SEED, dict(report, cases=cases))

    report = tiny_passes["eliminate-cases"].report
    assert run.check_pass("eliminate-cases", SEED + 1, report)
    assert run.check_pass("eliminate-cases", SEED, dict(report, rc=1))
    garbled = run.Pass(1.0, 1.0, 1.0, dict(report, output="{"), "")
    assert run.judge("eliminate-cases", SEED, garbled).problems


def test_fails_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "search-equal",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
