#!/usr/bin/env python3
"""Run the repository benchmark in alternating parent/change pairs; write BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent HEAD --out BENCH_7.json \\
        --claim train-control-ugrnn3-b4:tok_per_s

Each side runs from its own exported tree in a temporary directory: the
parent is `git archive` of --parent, the change is the working tree's
files (tracked plus untracked ones that are not ignored).  An exported
tree holds only the files, so nothing is registered in the repository's
.git (as `git worktree` would) and nothing is left behind when a run is
interrupted; the temporary directory is deleted afterwards.

For every workload in BENCHMARK.json, pair i (seed i, i = 1..10) runs
`perfbench/run.py --workload W --seed i --seconds X --trace 0` on both
sides, X being BENCHMARK.json's run_seconds, the parent first in odd pairs
and the change first in even ones.  The output keeps every run's
end-to-end values with each side's median and quartiles, the change's win
count per metric, the failed-operation counts, perfbench's environment
block and, with --claim, the claim test: the change wins at least nine
tenths of the pairs and its median beats the parent's by more than the
parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def git(*argv: str) -> str:
    return subprocess.run(["git", *argv], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def export_revision(rev: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def export_working_tree(dest: Path) -> None:
    files = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, files):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def describe(rev: str) -> str:
    return git("log", "-1", "--format=%h (%s)", rev).strip()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; returns its JSON result plus the env block."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    env = [json.loads(line[4:]) for line in lines if line.startswith("env ")]
    result["env"] = env[0] if env else {}
    return result


def side_stats(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "runs": values}


def compare(spec: dict, parent: list[float], change: list[float]) -> dict:
    sign = 1.0 if spec["better"] == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    out = {key: spec[key] for key in ("unit", "better", "bound")}
    out["parent"], out["change"] = side_stats(parent), side_stats(change)
    out["change_wins"] = f"{wins} of {len(parent)} pairs"
    pm = out["parent"]["median"]
    out["median_ratio_change_over_parent"] = out["change"]["median"] / pm if pm else None
    return out


def claim_test(workload: str, metric: str, entry: dict) -> dict:
    parent, change = entry["parent"], entry["change"]
    wins = int(entry["change_wins"].split()[0])
    sign = 1.0 if entry["better"] == "higher" else -1.0
    gap = sign * (change["median"] - parent["median"])
    iqr = parent["q3"] - parent["q1"]
    return {
        "metric": metric, "workload": workload, "change_wins": entry["change_wins"],
        "parent_median": parent["median"], "change_median": change["median"],
        "median_difference": change["median"] - parent["median"], "parent_iqr": iqr,
        "met": wins >= math.ceil(0.9 * PAIRS) and gap > iqr,
    }


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent revision, e.g. HEAD or a commit")
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    ap.add_argument("--out", required=True, help="output JSON path, e.g. BENCH_7.json")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    claim = args.claim.split(":", 1) if args.claim else None
    if claim and (len(claim) != 2 or claim[0] not in workloads or claim[1] not in specs):
        raise SystemExit(f"--claim {args.claim!r} must be WORKLOAD:METRIC of the workloads run")

    work = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    trees = {"parent": work / "parent", "change": work / "change"}
    seeds = list(range(1, PAIRS + 1))
    try:
        export_revision(args.parent, trees["parent"])
        export_working_tree(trees["change"])
        env: dict = {}
        results: dict = {}
        for workload in workloads:
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            order = []
            for i, seed in enumerate(seeds):
                sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                order.append(f"{sides[0]} first")
                for side in sides:
                    result = run_once(trees[side], workload, seed, seconds)
                    runs[side].append(result)
                    env = env or {k: v for k, v in result["env"].items() if k != "workload_seed"}
                    print(f"{workload} seed {seed} {side}: "
                          + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                          file=sys.stderr, flush=True)
            metrics = {}
            for name, spec in specs.items():
                values = {side: [r["metrics"][name]["value"] for r in runs[side] if name in r["metrics"]]
                          for side in runs}
                if len(values["parent"]) == len(values["change"]) == len(seeds):
                    metrics[name] = compare(spec, values["parent"], values["change"])
            results[workload] = {
                "seeds": seeds,
                "order": order,
                "failed_ops": {side: sum(r["failed"] for r in runs[side]) for side in runs},
                "metrics": metrics,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out = {
        "what": "Alternating parent/change pairs of the repository benchmark, end-to-end metrics only.",
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "parent": describe(args.parent),
        "change": "the working tree",
        "machine": f"{env.get('nproc')}-core {os.uname().sysname}, "
                   f"{env.get('blas_threads_pinned')} BLAS thread (perfbench pins it)",
        "env": env,
        "pair_order": "pairs 1, 3, 5, ... ran the parent first, pairs 2, 4, 6, ... the change first; "
                      "each side ran from its own exported tree",
        "quartiles": "numpy.percentile 25/75, linear interpolation, over the per-run values",
    }
    if claim:
        out["claim"] = claim_test(claim[0], claim[1], results[claim[0]]["metrics"][claim[1]])
    out["workloads"] = results
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    if claim:
        print(f"claim {claim[0]} {claim[1]}: {'met' if out['claim']['met'] else 'NOT met'} "
              f"({out['claim']['change_wins']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
