#!/usr/bin/env python3
"""Run the full dataset -> train -> sample -> eval pipeline in one go.

Defaults reproduce a quick end-to-end pass on the bundled corpus:

    python3 scripts/run_pipeline.py --workdir runs/quick --max-iterations 50

The script owns --songs, --variant, --workdir and --seed, each read by
its full name only.  Every other flag goes unchanged to `melodykit train`
(--cell, --num-layers, --hidden-size, --epochs, --max-iterations, ...),
so an unknown flag or a prefix such as --work is refused there; the batch
size defaults to 4 here instead of train's 50.  Every step's flags are
checked with the CLI's parser before the work directory is made.  Drop
--max-iterations for a real training run (minutes to hours depending on
the variant and model size).
"""

import argparse
import sys
from pathlib import Path

from melodykit.cli import build_parser, main as cli, report

ROOT = Path(__file__).resolve().parent.parent


def check(steps):
    """Parse every step's argv with the CLI's parser before any step runs or writes.

    A refused flag ends the script as the CLI would end: exit 1 with one JSON line.
    """
    parser = build_parser()
    for argv in steps:
        try:
            parser.parse_args(argv)
        except ValueError as exc:
            sys.exit(report(exc))


def step(argv):
    print("$ melodykit " + " ".join(argv))
    code = cli(argv)
    if code != 0:
        sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    ap.add_argument("--songs", default=str(ROOT / "data" / "mini_corpus.jsonl"))
    ap.add_argument("--variant", default="control", choices=["control", "interval", "db12"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workdir", default="runs/pipeline")
    args, train_flags = ap.parse_known_args()

    work = Path(args.workdir)
    corpus = work / f"corpus_{args.variant}.json"
    ckpt = work / "model.ckpt"
    steps = [
        ["dataset", "--songs", args.songs, "--variant", args.variant, "--out", str(corpus)],
        ["train", "--corpus", str(corpus), "--checkpoint", str(ckpt), "--curve", str(work / "curve.csv"),
         "--seed", str(args.seed), "--batch-size", "4", *train_flags],
        ["sample", "--checkpoint", str(ckpt), "--out-dir", str(work / "samples"), "--seed", str(args.seed)],
        ["eval", "--songs", str(work / "samples" / "songs.jsonl"), "--out-dir", str(work / "report")],
    ]
    check(steps)
    work.mkdir(parents=True, exist_ok=True)
    for argv in steps:
        step(argv)
    print(f"done; artifacts under {work}/")


if __name__ == "__main__":
    main()
