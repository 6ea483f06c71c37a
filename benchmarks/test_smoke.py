"""Smoke test of the benchmark itself (kept outside the tier-1 ``testpaths``).

    python -m pytest benchmarks/test_smoke.py -q

Runs every workload briefly, untraced and traced, and checks that the metric
names and units printed are those ``BENCHMARK.json`` declares, that every
output check passed, and that the only failed operations are the two
malformed ``roundtrip`` files.  Takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Whole rounds only: 2 of the 32 roundtrip calls fail on every run.
FAILED_SHARE = {"chain": 0.0, "sweep": 0.0, "validate": 0.0, "roundtrip": 2 / 32}


def _run(cwd, workload, trace):
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_declared_metrics_and_passes_checks(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1
    assert result["failed"] / result["attempted"] == FAILED_SHARE[workload]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = result["metrics"]
    assert list(printed) == [m["name"] for m in declared]
    for metric in declared:
        assert printed[metric["name"]]["unit"] == metric["unit"]
        assert isinstance(printed[metric["name"]]["value"], float)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "validate", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
