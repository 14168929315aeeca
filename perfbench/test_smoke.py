"""Smoke test of the benchmark itself at tiny size.

    python3 -m pytest perfbench

Every workload runs untraced and traced on the tiny corpora with a
non-default seed.  The test checks that each run prints every metric named
in BENCHMARK.json with its unit, that the traced run writes its spans, and
that the benchmark refuses to run where the tapkit sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[-2])
    assert env["seed"] == SEED
    assert env["environment"]["openblas_threads"] == 1
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def assert_metrics(metrics, spec_entries):
    assert {name: entry["unit"] for name, entry in metrics.items()} == {
        m["name"]: m["unit"] for m in spec_entries}
    for name, entry in metrics.items():
        assert isinstance(entry["value"], (int, float)), name


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    metrics = result_of(run_bench(workload, 0))["metrics"]
    assert_metrics(metrics, SPEC["end_to_end"])
    assert all(entry["value"] > 0 for entry in metrics.values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_writes_spans(workload):
    metrics = result_of(run_bench(workload, 1))["metrics"]
    assert_metrics(metrics, SPEC["per_layer"])
    out = ROOT / ".perfbench" / workload
    with open(out / "spans.jsonl", encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    assert {s["phase"] for s in spans} == {"setup", "loop"}
    assert all(s["end"] >= s["start"] for s in spans)
    ids = {s["id"] for s in spans}
    assert all(s["parent"] is None or s["parent"] in ids for s in spans)
    summary = json.loads((out / "trace_summary.json").read_text())
    assert summary["seed"] == SEED and summary["traced_cycles"] >= 1
    if workload == "parse-eval":
        assert metrics["linalg.backward.calls"]["value"] == 0


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("train-easy", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
