"""Smoke test for the benchmark itself: every workload at a tiny size,
plain and traced, in seconds.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit_and_spans_nest(workload, trace, section):
    lines, result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(result["metrics"]) == set(want)
    for name, unit in want.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit, name
        assert math.isfinite(metric["value"]), name
        if section == "end_to_end":
            assert metric["value"] > 0, name
    assert any(line.startswith("failed_ops_ratio 0 ratio") for line in lines)
    assert any(line.startswith("env {") for line in lines)
    if trace:
        check_spans(workload)


def check_spans(workload: str) -> None:
    """The traced run's spans nest inside their parents, so no self time is negative."""
    with np.load(ROOT / "runs" / "perfbench" / workload / "spans.npz") as spans:
        names = [str(n) for n in spans["names"]]
        start, end, parent = spans["start"], spans["end"], spans["parent"]
        run = spans["run"]
    assert start.size > 0
    assert (end >= start).all()
    dur = end - start
    child = parent >= 0
    assert (parent[child] < np.flatnonzero(child)).all()
    assert (run[parent[child]] == run[child]).all()
    children = np.zeros(start.size, dtype=np.int64)
    np.add.at(children, parent[child], dur[child])
    assert (dur - children >= 0).all()
    assert {n.split(".")[0] for n in names} <= {"cli", "core", "rnn", "tensor", "metrics", "midi"}
