"""Smoke test of the benchmark: every workload at the shortest length.

    python3 -m pytest -q bench/test_smoke.py

It takes about a minute on a 2-vCPU machine.  The repository's own
test suite does not collect it (pyproject's testpaths is ``tests``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# every end-to-end metric of the benchmark's definition, printed by name
REPORTED = [
    "setup_s",
    "wall_s",
    "nodes_to_proof",
    "nodes_per_s",
    "colorings_per_s",
    "call_p50_s",
    "call_tail_s",
    "peak_rss_mb",
    "failed_frac",
]
SEARCHING = {"search-serial", "search-jobs2"}


def _bench(trace: int, workload: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    report = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3 and parts[0] in REPORTED:
            report[parts[0]] = parts[1]
    return result, report


@pytest.fixture(scope="module")
def runs():
    return {(w, t): _parse(_bench(t, w)) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end(runs, workload):
    result, report = runs[workload, 0]
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(report) == set(REPORTED)
    assert float(report["failed_frac"]) == 0
    if workload in SEARCHING:
        assert int(report["nodes_to_proof"]) > 0
    if workload == "structure":
        assert float(report["colorings_per_s"]) > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer(runs, workload):
    result, _ = runs[workload, 1]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["trace.wall_s"]["value"] > 0


def test_every_layer_metric_is_measured(runs):
    """A per-layer name that no workload produces would read 0 everywhere."""
    for m in SPEC["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_s":
            continue  # a difference of two times; may be 0 or negative
        assert any(runs[w, 1][0]["metrics"][name]["value"] != 0 for w in WORKLOADS), name


@pytest.mark.parametrize("workload", sorted(SEARCHING))
def test_nodes_to_proof_sums_instances(runs, workload):
    _, report = runs[workload, 0]
    layers = runs[workload, 1][0]["metrics"]
    per_instance = sum(
        v["value"] for k, v in layers.items() if k.endswith(".nodes") and k.startswith("search.")
    )
    assert int(report["nodes_to_proof"]) == per_instance == layers["search.nodes_to_proof"]["value"]


def test_fails_without_sources(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(0, WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
