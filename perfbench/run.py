#!/usr/bin/env python3
"""melodykit benchmark: one workload, driven through the CLI in-process.

    python3 perfbench/run.py --workload train-db12-lstm1-b50 --seed 1 --seconds 30 --trace 0

Run it from the root of a melodykit checkout: it imports the package from
`src/` and reads `data/mini_corpus.jsonl`, and exits 2 without a result
when either is missing.  It writes only under `runs/perfbench/`.

A run sets up the workload three times (set-up time is the median), then
repeats the workload's round of CLI commands until `--seconds` have passed,
checking each round's outputs.  `--trace 0` reports the end-to-end metrics.
`--trace 1` alternates plain and traced rounds: the traced ones give the
per-layer metrics and the spans file, and the difference between the two
kinds of round is the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it print every metric with
its unit (and the sample count behind each percentile), the failed-ops
ratio, each layer's self time and the environment.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = ROOT / "data" / "mini_corpus.jsonl"
WORK = ROOT / "runs" / "perfbench"

# One BLAS thread.  On the 2-core machine the benchmark was tuned on, six
# alternating pairs of runs of the large-batch workload were as steady with
# one thread as with two (pipeline_s IQR/median 0.065 and 0.064; p90
# iteration 0.078 and 0.081) and 8% faster (3.66 vs 3.98 s per round): a
# second BLAS thread competes with the interpreter for the same two cores.
BLAS_THREADS = 1
SETUPS = 3

# The end-to-end metrics every workload reports (units come with the values).
# Where a workload names a metric more precisely, ALIASES maps the generic
# name to its own.
END_TO_END = ("setup_s", "pipeline_s", "tok_per_s", "step_ms_p50", "step_ms_p90",
              "ingest_songs_per_s", "train_loss_final", "peak_rss_mb")
ALIASES = {
    "train": {"tok_per_s": "train_tok_per_s", "step_ms_p50": "train_iter_ms_p50",
              "step_ms_p90": "train_iter_ms_p90"},
    "sample": {"tok_per_s": "sample_tok_per_s", "step_ms_p50": "sample_song_ms_p50",
               "step_ms_p90": "sample_song_ms_p90"},
}


def pin_threads() -> int:
    """Limit BLAS and OpenMP pools before numpy loads; returns the limit."""
    threads = max(1, min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    # Path flags fall back to MELODYKIT_* variables; the benchmark passes
    # every path itself, and a stray MELODYKIT_SONGS would clash with --midi-dir.
    for var in [v for v in os.environ if v.startswith("MELODYKIT_")]:
        del os.environ[var]
    return threads


def blas_runtime_threads(np) -> int | None:
    """Threads the loaded OpenBLAS reports, when it can be asked."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment(np, seed: int, threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_runtime_threads(np),
        "thread_env": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads_pinned": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "workload_seed": seed,
    }


def parse_args(argv) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrink the workload to seconds (smoke test)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def measure(workload, bench, seconds: float, trace: bool, tracer, ref):
    """Set up SETUPS times, then run rounds for `seconds`.

    The reference kernel runs before the first set-up and after every
    set-up and round; each is scaled by the mean of the kernel times on
    either side of it.  Returns (set-up times in reference seconds, plain
    rounds, traced rounds, span totals, kernel times).
    """
    from reference import REFERENCE_S
    from workloads import StageError

    setup_s, plain, traced, totals, ref_s = [], [], [], {}, [ref.run()]

    def scale() -> float:
        ref_s.append(ref.run())
        return REFERENCE_S / ((ref_s[-2] + ref_s[-1]) / 2)

    try:
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            workload.setup(bench)
            raw = time.perf_counter() - t0
            setup_s.append(raw * scale())
        deadline = time.perf_counter() + seconds
        i = 0
        while True:
            in_trace = trace and i % 2 == 1
            bench.probe.reset()
            if in_trace:
                tracer.run_id = i
                tracer.install()
                bench.tracer = tracer
            try:
                r = workload.round(bench)
            finally:
                if in_trace:
                    tracer.uninstall()
                    bench.tracer = None
            r.scale = scale()
            if in_trace:
                for name, values in tracer.end_round().items():
                    acc = totals.setdefault(name, [0.0, 0.0, 0])
                    for k, v in enumerate(values):
                        acc[k] += v
            workload.check(bench, r)
            (traced if in_trace else plain).append(r)
            i += 1
            if time.perf_counter() >= deadline and plain and (traced or not trace):
                break
    except StageError as exc:
        bench.tally.add(1, [str(exc)])
    return setup_s, plain, traced, totals, ref_s


def print_metrics(title: str, metrics: dict) -> None:
    print(f"# {title}")
    for name, (value, unit, *note) in metrics.items():
        extra = f"  ({note[0]})" if note and note[0] else ""
        print(f"{name:40s} {value:14.6g} {unit}{extra}")


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [str(p) for p in (SRC / "melodykit" / "__init__.py", CORPUS) if not p.is_file()]
    if missing:
        print(f"perfbench: not a melodykit checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    threads = pin_threads()
    sys.path.insert(0, str(SRC))
    import numpy as np
    import melodykit.cli
    from reference import REFERENCE_S, Reference
    from tracer import Probe, Tracer, per_layer_metrics
    from workloads import Bench, make_workloads

    mk = melodykit
    if not Path(mk.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported melodykit from {mk.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workloads = make_workloads(args.tiny)
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(workloads)}",
              file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    probe = Probe(mk)
    bench = Bench(mk, probe, work, CORPUS, args.seed)
    tracer = Tracer(mk) if args.trace else None
    setup_s, plain, traced, totals, ref_s = measure(workload, bench, args.seconds, bool(args.trace),
                                                    tracer, Reference())
    probe.close()

    tally = bench.tally
    correct = tally.failed == 0 and bool(plain) and (bool(traced) or not args.trace)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(plain)} plain + {len(traced)} traced")
    for message in tally.messages:
        print(f"FAILED: {message}")
    attempted = max(tally.attempted, 1)
    print(f"failed_ops_ratio {tally.failed / attempted:.6g} ratio  ({tally.failed} of {attempted} "
          "iterations, songs and checks)")
    print("env " + json.dumps(environment(np, args.seed, threads), sort_keys=True))
    print(f"reference kernel {statistics.median(ref_s) * 1e3:.2f} ms median of {len(ref_s)} "
          f"(nominal {REFERENCE_S * 1e3:g} ms); raw pipeline_s "
          f"{statistics.median(r.wall_s for r in plain) if plain else float('nan'):.4f}")
    if not correct:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": max(tally.failed, 1),
                          "metrics": {}}))
        return 1

    e2e = workload.metrics(plain)
    e2e["setup_s"] = (statistics.median(setup_s), "s", f"median of {len(setup_s)} set-ups")
    e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "")
    aliases = ALIASES[workload.kind]
    generic = {specific: name for name, specific in aliases.items()}
    labelled = {f"{name} [{generic[name]}]" if name in generic else name: value for name, value in e2e.items()}
    if args.trace:
        overhead = (statistics.median(r.wall_s * r.scale for r in traced)
                    / statistics.median(r.wall_s * r.scale for r in plain) - 1) * 100
        spans = tracer.dump(work / "spans.npz")
        layer = per_layer_metrics(totals, tracer.counts, len(traced), overhead, spans)
        print_metrics("end-to-end, plain rounds, in reference seconds", labelled)
        print_metrics(f"per layer, per traced round ({len(traced)} rounds, spans in "
                      f"{(work / 'spans.npz').relative_to(ROOT)})", layer)
        print_metrics("self time per layer", {k: v for k, v in layer.items() if k.endswith(".self_s")
                                               and k.count(".") == 1})
        metrics = layer
    else:
        print_metrics("end-to-end, in reference seconds [name in the JSON line]", labelled)
        metrics = {name: e2e[aliases.get(name, name)] for name in END_TO_END}
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": 0,
        "metrics": {name: {"value": v[0], "unit": v[1]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
