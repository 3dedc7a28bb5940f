#!/usr/bin/env python3
"""Sweep cell type x layer count across dataset variants.

For each requested variant this builds the corpus, runs the sweep grid,
and echoes the per-cell winners from best.csv.  Quick smoke pass:

    python3 scripts/layer_sweep.py --workdir runs/sweep --epochs 1 \
        --hidden-size 32 --embedding-dim 16

The script owns --songs, --variants, --workdir and --seed, each read by
its full name only.  Every other flag goes unchanged to `melodykit sweep`
(--cells, --layers, --hidden-size, --epochs, --max-iterations, ...), so
an unknown flag or a prefix such as --work is refused there; the batch
size defaults to 4 here instead of sweep's 50.  Every step's flags are
checked with the CLI's parser before the work directory is made.
"""

import argparse
from pathlib import Path

from run_pipeline import ROOT, check, step


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    ap.add_argument("--songs", default=str(ROOT / "data" / "mini_corpus.jsonl"))
    ap.add_argument("--variants", default="control,interval,db12")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workdir", default="runs/sweep")
    args, sweep_flags = ap.parse_known_args()

    work = Path(args.workdir)
    runs = []
    for variant in args.variants.split(","):
        corpus, out_dir = work / f"corpus_{variant}.json", work / variant
        runs.append((variant, out_dir, [
            ["dataset", "--songs", args.songs, "--variant", variant, "--out", str(corpus)],
            ["sweep", "--corpus", str(corpus), "--out-dir", str(out_dir),
             "--seed", str(args.seed), "--batch-size", "4", *sweep_flags],
        ]))
    check([argv for _, _, steps in runs for argv in steps])
    work.mkdir(parents=True, exist_ok=True)
    for variant, out_dir, steps in runs:
        for argv in steps:
            step(argv)
        print(f"[{variant}] " + "; ".join(
            (out_dir / "best.csv").read_text().splitlines()[1:]
        ))


if __name__ == "__main__":
    main()
