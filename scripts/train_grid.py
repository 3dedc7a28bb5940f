#!/usr/bin/env python3
"""Time training in-process over {lstm, ugrnn} x batch {4, 50} x layers {1, 3}.

    python3 scripts/train_grid.py --iterations 20

Each configuration trains on the bundled corpus (`data/mini_corpus.jsonl`,
db12 variant) at the CLI's defaults otherwise (hidden 128, embedding 64,
sequence length 50, seed 0), with one BLAS thread.  A warm-up run of the
same configuration comes first; the timed run then trains for
--iterations iterations.  An iteration ends at its Adam step, where the
script stamps the clock and the process's minor page-fault count
(getrusage); the first timed iteration, which sizes the training
workspace, is left out.  Printed per configuration: the median
milliseconds per iteration and the mean minor faults per iteration.
"""

import argparse
import dataclasses
import os
import statistics
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WARMUP_ITERATIONS = 3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    ap.add_argument("--iterations", type=int, default=20,
                    help="timed iterations per configuration (>= 2)")
    args = ap.parse_args()
    if args.iterations < 2:
        ap.error("--iterations must be >= 2")

    # The BLAS reads its thread count when numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import resource

    from melodykit import core, rnn
    from melodykit.core import DatasetVariant

    songs = core.clean_corpus(core.load_songs_jsonl(ROOT / "data" / "mini_corpus.jsonl"))
    corpus = core.build_corpus(songs, DatasetVariant.DB12)

    stamps = []
    adam_step = rnn.adam_step

    def stamped_adam_step(*a, **kw):
        out = adam_step(*a, **kw)
        stamps.append((time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt))
        return out

    rnn.adam_step = stamped_adam_step
    try:
        print(f"{'cell':6} {'batch':>5} {'layers':>6} {'ms/iter':>9} {'faults/iter':>12}")
        for cell in ("lstm", "ugrnn"):
            for batch in (4, 50):
                for layers in (1, 3):
                    config = rnn.TrainConfig(cell=cell, num_layers=layers, batch_size=batch,
                                             max_iterations=WARMUP_ITERATIONS)
                    rnn.train(corpus, config)
                    stamps.clear()
                    rnn.train(corpus, dataclasses.replace(config, max_iterations=args.iterations))
                    ms = [(b[0] - a[0]) * 1e3 for a, b in zip(stamps, stamps[1:])]
                    faults = (stamps[-1][1] - stamps[0][1]) / (len(stamps) - 1)
                    print(f"{cell:6} {batch:5d} {layers:6d} {statistics.median(ms):9.1f} {faults:12.1f}",
                          flush=True)
    finally:
        rnn.adam_step = adam_step


if __name__ == "__main__":
    main()
