"""Smoke tests for the benchmark: every workload at d <= 10, plain and traced.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# One span name per layer boundary the benchmark calls through.
LAYER_SPANS = {
    "partitions.lex_list",
    "kernel.compute_columns",
    "characters.build_table", "characters.load_or_build", "characters.verify_table",
    "characters.cache_store", "characters.cache_load",
    "genfun.table_weights", "genfun.eval_M", "genfun.series_coeff",
    "scanner.scan", "scanner.render",
    "walks.enumerate_counts",
    "cli.request", "cli.startup", "cli.main",
}
GROUP_SPANS = {"bench.op", "bench.probe"}


def bench(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def results():
    """Plain and traced smoke run of every workload: {name: (plain, traced) lines}."""
    out = {}
    for workload in WORKLOADS:
        plain, traced = bench(workload, 0), bench(workload, 1)
        for proc in (plain, traced):
            assert proc.returncode == 0, proc.stderr
        out[workload] = (plain.stdout.splitlines(), traced.stdout.splitlines(),
                         spans(workload))
    return out


@pytest.fixture(params=WORKLOADS)
def runs(request, results):
    return (request.param, *results[request.param])


def result(lines):
    return json.loads(lines[-1])


def test_plain_run_emits_every_end_to_end_metric(runs):
    _, lines, _, _ = runs
    doc = result(lines)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert list(doc["metrics"]) == names
    for m in SPEC["end_to_end"]:
        got = doc["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
        assert any(line.startswith(f"{m['name']} ") for line in lines)


def test_no_op_fails(runs):
    _, lines, traced, _ = runs
    for doc in (result(lines), result(traced)):
        assert doc["correct"] is True
        assert doc["failed"] == 0 and doc["attempted"] > 0
    assert "failed_ratio 0.0 ratio (failed/attempted)" in lines
    assert any(line.startswith("gate ok: ") for line in lines)


def test_environment_is_recorded(runs):
    workload, lines, _, _ = runs
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert env["workload"] == workload and env["seed"] == 3
    for key in ("kernel", "kernel_reason", "nproc", "python", "jobs", "cache"):
        assert env[key] not in (None, "")


def test_traced_run_emits_every_layer_metric(runs):
    _, _, traced, _ = runs
    doc = result(traced)
    names = [m["name"] for m in SPEC["per_layer"]]
    assert list(doc["metrics"]) == names
    for m in SPEC["per_layer"]:
        assert doc["metrics"][m["name"]]["unit"] == m["unit"]
    assert doc["metrics"]["trace.overhead_ratio"]["value"] > 0


def spans(workload):
    path = ROOT / ".perfbench" / f"trace-{workload}-seed3.jsonl"
    lines = path.read_text().splitlines()
    assert "header" in json.loads(lines[0])
    return [json.loads(line) for line in lines[1:]]


def test_span_names_match_layer_list(runs):
    _, _, _, recorded = runs
    assert {s["name"] for s in recorded} <= LAYER_SPANS | GROUP_SPANS
    for s in recorded:
        assert s["end"] >= s["start"]
        if s["name"] not in GROUP_SPANS:
            assert s["parent"] is not None and s["op"] is not None


def test_every_layer_is_traced_by_some_workload(results):
    seen = {s["name"] for _, _, recorded in results.values() for s in recorded}
    assert seen >= LAYER_SPANS
    for m in SPEC["per_layer"]:
        if m["name"].endswith(".busy_s"):
            assert m["name"].removesuffix(".busy_s") in seen, m["name"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert out.returncode != 0
    assert not out.stdout.strip()
