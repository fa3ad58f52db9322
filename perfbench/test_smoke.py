"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric BENCHMARK.json declares is emitted with its unit,
that the choosability layer does no work outside ``choose``, and that the
benchmark refuses to run without the package sources.
"""

import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _invoke(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@functools.lru_cache(maxsize=None)
def _result(workload, trace):
    proc = _invoke(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_choose_exercises_choosability():
    metrics = _result("choose", 1)["metrics"]
    assert metrics["choosability.is_f_choosable.calls"]["value"] > 0
    assert metrics["choosability.patterns_checked"]["value"] > 0


@pytest.mark.parametrize("workload", ["enumerate", "sweep"])
def test_choosability_idle_outside_choose(workload):
    metrics = _result(workload, 1)["metrics"]
    for name, metric in metrics.items():
        if name.startswith("choosability."):
            assert metric["value"] == 0, name


def test_fails_without_package_sources():
    bare = os.path.join(BENCH_DIR, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(
        BENCH_DIR, os.path.join(bare, "perfbench"),
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _invoke(bare, "choose", 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
