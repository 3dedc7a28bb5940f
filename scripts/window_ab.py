#!/usr/bin/env python3
"""Time one training window's forward and backward, and sampling, in a parent revision and in the working tree.

    python3 scripts/window_ab.py --parent HEAD --cell ugrnn --layers 3 --batch 4

The parent is `git archive` of --parent, exported into a temporary
directory (deleted afterwards) and imported as the package
`melodykit_parent`; the change is the working tree's `src/melodykit`.
numpy runs one BLAS thread: the script sets the thread variables before
numpy loads.  Both sides step the same float32 copy of one initial model
(embedding width EMBEDDING) over the same random windows of (--batch,
SEQ_LEN) token ids.

Each side keeps one tape for the whole run, as `train` does, and runs
one untimed window first, which builds the parts the layer stack
replays (kept on the tape since 0.16.0; an older parent's `_window_loss`
takes a `plan` argument, its `_StackPlan`, which the side keeps beside
the tape).  Every round then runs WINDOWS windows on each
side, the parent first in odd rounds and the change first in even ones,
carrying the states from window to window from zero.  Forward is the
tape's reset plus `_window_loss`, backward is `tape.backward`.  Per round
and phase, the ratio is the change's seconds over the parent's, each
summed over the round's windows.  For forward, backward and the whole
window the script prints the median ratio, its quartiles and the number
of rounds the change was faster.  Every window's loss, gradients and
final states are compared between the sides, outside the timed part.

After the windows, in the same order, each side samples SAMPLE_LANES
songs of SAMPLE_NOTES notes at temperature 1 from the float64 initial
model (`rnn.sample_batch`, lane i drawing from `default_rng([round, i])`),
and the `sample` row gives the ratio of those calls' seconds.  The script
exits 1 if any window differs in a bit or any song between the sides.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402  (numpy must load after the thread variables are set)
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import inspect  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from bench_pairs import describe, export_revision  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
VOCAB_SIZE = 31  # the db12 corpus's vocabulary size, the largest of the bundled corpora
EMBEDDING, SEQ_LEN = 64, 50  # `TrainConfig`'s defaults
WINDOWS = 10  # timed windows per round and side
SAMPLE_LANES, SAMPLE_NOTES = 100, 64  # lanes (`sample`'s default --count) and notes generated per lane
SEED_SONG = [0, 2, 4, 2]  # notes of the vocabulary's tokens 0 .. VOCAB_SIZE - 1
PHASES = ("forward", "backward", "window", "sample")


def load_package(src: Path, name: str):
    """The melodykit package under `src`, imported as `name`."""
    spec = importlib.util.spec_from_file_location(name, src / "melodykit" / "__init__.py",
                                                  submodule_search_locations=[str(src / "melodykit")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


class Side:
    """One package's float32 model and tape, and a plan where its `_window_loss` takes one, kept for the whole run."""

    def __init__(self, package, args: argparse.Namespace) -> None:
        self.rnn, core, tensor = package.rnn, package.core, package.tensor
        vocabulary = core.Vocabulary(tokens=tuple(range(VOCAB_SIZE)))
        sizes = dict(cell=args.cell, num_layers=args.layers, hidden_size=args.hidden, embedding_dim=EMBEDDING)
        model = self.master = self.rnn.init_model(vocabulary, core.DatasetVariant.CONTROL, rng=0, **sizes)
        self.model = self.rnn._empty_model(vocabulary, core.DatasetVariant.CONTROL, dtype=np.float32, **sizes)
        for shadow, master in zip(self.model.parameters(), model.parameters()):
            np.copyto(shadow.value, master.value)
        self.tape = tensor.GradientTape(np.float32)
        takes_plan = "plan" in inspect.signature(self.rnn._window_loss).parameters
        self.kwargs = {"plan": self.rnn._StackPlan()} if takes_plan else {}
        self.batch = args.batch

    def round(self, windows: list[tuple[np.ndarray, np.ndarray]]) -> tuple[float, float, list[str]]:
        """Forward and backward seconds summed over the windows, and each window's digest."""
        states = self.rnn._zero_states(self.model, self.batch, np.float32)
        forward = backward = 0.0
        digests = []
        for X, Y in windows:
            start = time.perf_counter()
            self.tape.reset()
            total, states = self.rnn._window_loss(self.tape, self.model, X, Y, states, **self.kwargs)
            mid = time.perf_counter()
            self.tape.backward(total)
            end = time.perf_counter()
            forward += mid - start
            backward += end - mid
            digest = hashlib.sha256(np.float64(total.value).tobytes())
            for a in [p.grad for p in self.model.parameters()] + [a for state in states for a in state]:
                if a is not None:
                    digest.update(a.tobytes())
            digests.append(digest.hexdigest())
        return forward, backward, digests

    def sample(self, r: int) -> tuple[float, list]:
        """Seconds of one temperature `sample_batch` call of round r, and its songs."""
        rngs = [np.random.default_rng([r, i]) for i in range(SAMPLE_LANES)]
        start = time.perf_counter()
        songs = self.rnn.sample_batch(self.master, SEED_SONG, SAMPLE_NOTES, "temperature", 1.0, rngs)
        return time.perf_counter() - start, songs


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    ap.add_argument("--parent", required=True, help="parent revision, e.g. HEAD or a commit")
    ap.add_argument("--cell", default="ugrnn", choices=("lstm", "ugrnn"))
    ap.add_argument("--layers", type=int, default=3)
    ap.add_argument("--batch", type=int, default=4)
    ap.add_argument("--hidden", type=int, default=128)
    ap.add_argument("--rounds", type=int, default=30)
    args = ap.parse_args(argv)
    if min(args.layers, args.batch, args.hidden, args.rounds) < 1:
        ap.error("every size and count must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    rng = np.random.default_rng(0)
    windows = [tuple(rng.integers(0, VOCAB_SIZE, (args.batch, SEQ_LEN)) for _ in "XY") for _ in range(WINDOWS)]
    work = Path(tempfile.mkdtemp(prefix="window_ab_"))
    try:
        export_revision(args.parent, work / "parent")
        sides = {"parent": Side(load_package(work / "parent" / "src", "melodykit_parent"), args),
                 "change": Side(load_package(ROOT / "src", "melodykit"), args)}
    finally:
        shutil.rmtree(work, ignore_errors=True)  # both packages are loaded by now

    for side in sides.values():
        side.round(windows[:1])  # allocates the workspace and builds the stack's parts
    ratios: dict[str, list[float]] = {phase: [] for phase in PHASES}
    per_window: dict[str, list[float]] = {name: [] for name in sides}
    per_sample: dict[str, list[float]] = {name: [] for name in sides}
    differ = songs_differ = 0
    for r in range(args.rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        runs = {name: sides[name].round(windows) for name in order}
        samples = {name: sides[name].sample(r) for name in order}
        differ += sum(a != b for a, b in zip(runs["parent"][2], runs["change"][2]))
        songs_differ += sum(a != b for a, b in zip(samples["parent"][1], samples["change"][1]))
        (pf, pb, _), (cf, cb, _) = runs["parent"], runs["change"]
        ps, cs = samples["parent"][0], samples["change"][0]
        for phase, p, c in zip(PHASES, (pf, pb, pf + pb, ps), (cf, cb, cf + cb, cs)):
            ratios[phase].append(c / p)
        for name, (f, b, _) in runs.items():
            per_window[name].append((f + b) / WINDOWS)
            per_sample[name].append(samples[name][0])

    print(f"window_ab: {args.cell} x{args.layers}, batch {args.batch}, hidden {args.hidden}, embedding "
          f"{EMBEDDING}, T {SEQ_LEN}; {args.rounds} rounds of {WINDOWS} windows and one {SAMPLE_LANES}-lane, "
          f"{SAMPLE_NOTES}-note sample per side; 1 BLAS thread")
    print(f"parent {describe(args.parent)}; change: the working tree")
    print("median window: " + ", ".join(f"{name} {np.median(v) * 1e3:.3f} ms" for name, v in per_window.items()))
    print("median sample: " + ", ".join(f"{name} {np.median(v) * 1e3:.3f} ms" for name, v in per_sample.items()))
    print(f"{'phase':<9} {'change/parent':>13} {'q1':>7} {'q3':>7}  change faster")
    for phase in PHASES:
        q1, median, q3 = np.percentile(ratios[phase], [25, 50, 75])
        faster = sum(ratio < 1.0 for ratio in ratios[phase])
        print(f"{phase:<9} {median:>13.3f} {q1:>7.3f} {q3:>7.3f}  {faster} of {args.rounds} rounds")
    total, songs = args.rounds * WINDOWS, args.rounds * SAMPLE_LANES
    if differ:
        print(f"DIFFERENT: {differ} of {total} windows differ in their loss, gradients or final states")
    if songs_differ:
        print(f"DIFFERENT: {songs_differ} of {songs} sampled songs differ")
    if differ or songs_differ:
        return 1
    print(f"bit-equal: loss, gradients and final states in all {total} windows; all {songs} sampled songs equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
