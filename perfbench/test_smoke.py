"""Smoke test: every workload at a tiny size, plus the failure paths.

    python3 -m pytest perfbench/test_smoke.py

Each workload must print every metric of BENCHMARK.json with its unit, in
the report and in the JSON line, and pass its checks.  A deliberately
corrupted expected output must make the run fail, and a directory without
the library must make it exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import DEFAULT_SEED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = 1
COPY_IGNORE = shutil.ignore_patterns("__pycache__", "out")


def bench(cwd, workload, trace=0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(DEFAULT_SEED), "--seconds", str(SECONDS),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=175)


def copy_bench(dest: Path) -> Path:
    shutil.copytree(BENCH, dest / "perfbench", ignore=COPY_IGNORE)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    return dest


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"]
              for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    wanted["failed_ratio"] = "ratio"
    for name, unit in wanted.items():
        line = rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}(\s|$)"
        assert re.search(line, proc.stdout, re.M), name


def _corrupt(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return value + "x"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_expected_output_fails(workload, tmp_path):
    root = copy_bench(tmp_path)
    shutil.copytree(ROOT / "src", root / "src", ignore=COPY_IGNORE)
    path = root / "perfbench" / "expected" / f"{workload}-seed{DEFAULT_SEED}.json"
    doc = json.loads(path.read_text())
    doc["items"][0][-1] = _corrupt(doc["items"][0][-1])
    path.write_text(json.dumps(doc))
    proc = bench(root, workload)
    assert proc.returncode != 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1
    assert "FAILED item 0: output" in proc.stdout


def test_exits_nonzero_without_the_library(tmp_path):
    proc = bench(copy_bench(tmp_path), WORKLOADS[0])
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
