"""Smoke test of the benchmark itself, at tiny sizes::

    python3 -m pytest perfbench -q

Every workload runs untraced and traced; each run must pass its own
checks and print exactly the metrics BENCHMARK.json declares, with valid
names and the declared units.  A broken correctness check must show as
failed operations, and the benchmark must refuse to run without sources.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from repro.system.machine import Machine  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def invoke(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                     "--trace", str(trace), "--tiny"])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_run_reports_declared_metrics(capsys, workload, trace):
    report = invoke(capsys, workload, trace)
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True
    assert report["failed"] == 0 and report["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(report["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        got = report["metrics"][metric["name"]]
        assert NAME.match(metric["name"]) and UNIT.match(got["unit"])
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"])


def test_broken_check_counts_as_failed(capsys, monkeypatch):
    def broken(self):
        raise AssertionError("deliberately broken")

    monkeypatch.setattr(Machine, "check_coherence_invariants", broken)
    report = invoke(capsys, "apache-4x4", 0)
    assert report["correct"] is False
    # Every simulation fails; the one set-up probe does not simulate.
    assert report["failed"] == report["attempted"] - 1 > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "apache-4x4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
