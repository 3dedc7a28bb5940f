#!/usr/bin/env python3
"""Where one training window's time and workspace go: every replayed call by kind, the head, the workspace bytes.

    python3 scripts/window_profile.py --cell lstm --layers 1 --batch 50 --hidden 128

Runs in-process at one BLAS thread (the script sets the thread variables
before numpy loads), on the `melodykit` package that Python imports.  One
float32 copy of an initial model (embedding width EMBEDDING, VOCAB_SIZE
tokens) and one tape run windows of (--batch, SEQ_LEN) random ids as
`train` does (reset, `rnn._window_loss`, backward), carrying the states
from window to window.  WARMUP windows come first: they allocate the
workspace and build the parts the tape keeps (`GradientTape.built`).
Then every call in every kept part is wrapped in a timer, and so are
`rnn._stack` and the backward of every tape record, and WINDOWS more
windows run.  WINDOWS untimed windows run between the two, so that the
timers' own effect on the phases shows.

Printed, each the median over the timed windows:

- the window's forward (`_window_loss`) and backward (`tape.backward`),
  in the untimed windows and in the timed ones;
- in each, the stack's record and, per kept part (the forward's waves,
  and the backward, one part for every layer, so the rows of upper layers'
  calls of one shape merge), ms per window, calls per window and us per
  call of each call kind (the call's name and its array arguments'
  shapes), then the stack's time outside the replayed calls (operand
  preparation, state and sequence copies, the gradient grants);
- the head: the forward's time outside the stack, and the backward of
  every record after the stack's.

The timer adds the cost of two clock reads and a Python call to every
timed call; the script measures that on a no-op and prints it, and
subtracts nothing.  The workspace line is the sum of the bytes of the
tape's arrays after a window's backward, with the largest arrays.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402  (numpy must load after the thread variables are set)
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402

from melodykit import core, rnn, tensor  # noqa: E402

VOCAB_SIZE = 31  # the db12 corpus's vocabulary size, the largest of the bundled corpora
EMBEDDING, SEQ_LEN = 64, 50  # `TrainConfig`'s defaults
WARMUP, WINDOWS = 3, 20
LARGEST = 6  # workspace arrays listed by size


def replayed(part) -> list:
    """The (call, args) list of what a part's build made: that itself, or the list it ends with."""
    return part if isinstance(part, list) else part[-1]


def kind(spec: rnn.CellSpec, call, args: tuple) -> str:
    """A call's kind: the cell's step kernel, adjoint or factor pass, else its name and its array arguments' shapes."""
    named = {spec.step_run: "kernel", spec.adjoint_run: "adjoint", spec.factors: "factor pass"}.get(call)
    shapes = " ".join(str(a.shape).replace(" ", "") for a in args if isinstance(a, np.ndarray))
    return named or f"{getattr(call, '__name__', type(call).__name__)} {shapes}"


class Clock:
    """Seconds and call counts of the current window, by key, and each timed window's totals."""

    def __init__(self) -> None:
        self.now: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.windows: list[dict] = []

    def timed(self, key, call):
        def run(*args):
            start = time.perf_counter()
            result = call(*args)
            self.now[key] += time.perf_counter() - start
            self.calls[key] += 1
            return result
        return run

    def close_window(self) -> None:
        self.windows.append(dict(self.now))
        self.now.clear()

    def ms(self, keys) -> float:
        """The median over the timed windows of the keys' summed seconds, in ms."""
        return statistics.median(sum(w.get(key, 0.0) for key in keys) for w in self.windows) * 1e3


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    ap.add_argument("--cell", default="ugrnn", choices=("lstm", "ugrnn"))
    ap.add_argument("--layers", type=int, default=3)
    ap.add_argument("--batch", type=int, default=4)
    ap.add_argument("--hidden", type=int, default=128)
    args = ap.parse_args(argv)
    if min(args.layers, args.batch, args.hidden) < 1:
        ap.error("every size must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    vocabulary = core.Vocabulary(tokens=tuple(range(VOCAB_SIZE)))
    sizes = dict(cell=args.cell, num_layers=args.layers, hidden_size=args.hidden, embedding_dim=EMBEDDING)
    master = rnn.init_model(vocabulary, core.DatasetVariant.CONTROL, rng=0, **sizes)
    model = rnn._empty_model(vocabulary, core.DatasetVariant.CONTROL, dtype=np.float32, **sizes)
    for shadow, weights in zip(model.parameters(), master.parameters()):
        np.copyto(shadow.value, weights.value)
    spec = rnn.cell_spec(args.cell)
    rng = np.random.default_rng(0)
    windows = [tuple(rng.integers(0, VOCAB_SIZE, (args.batch, SEQ_LEN)) for _ in "XY") for _ in range(4)]
    tape = tensor.GradientTape(np.float32)
    clock = Clock()
    states = rnn._zero_states(model, args.batch, np.float32)

    def window(w: int, timed: bool):
        nonlocal states
        X, Y = windows[w % len(windows)]
        tape.reset()
        start = time.perf_counter()
        loss, states = rnn._window_loss(tape, model, X, Y, states)
        clock.now["forward"] += time.perf_counter() - start
        if timed:
            for k, (out, back) in enumerate(tape._records):
                tape._records[k] = (out, clock.timed(("back", "stack" if k == 0 else "head"), back))
        start = time.perf_counter()
        tape.backward(loss)
        clock.now["backward"] += time.perf_counter() - start

    for w in range(WARMUP):
        window(w, False)
    workspace = sorted(tape._arrays, key=lambda a: a.nbytes, reverse=True)
    clock.now.clear()
    for w in range(WINDOWS):
        window(w, False)
        clock.close_window()
    untimed = {phase: clock.ms([phase]) for phase in ("forward", "backward")}
    clock.windows.clear()
    parts = {}
    for key, (_, part) in tape._built.items():
        calls = replayed(part)
        calls[:] = [(clock.timed((key, kind(spec, call, args)), call), args) for call, args in calls]
        parts[key] = calls
    stack = rnn._stack
    rnn._stack = clock.timed(("forward", "stack"), stack)
    noop = clock.timed("timer", lambda: None)
    start = time.perf_counter()
    for _ in range(10_000):
        noop()
    timer_us = (time.perf_counter() - start) / 10_000 * 1e6
    clock.now.clear()
    clock.calls.clear()
    try:
        for w in range(WINDOWS):
            window(w, True)
            clock.close_window()
    finally:
        rnn._stack = stack
    if any(key not in tape._built or replayed(tape._built[key][1]) is not calls for key, calls in parts.items()):
        print("window_profile: the tape rebuilt a kept part during the timed windows", file=sys.stderr)
        return 1

    print(f"window_profile: {args.cell} x{args.layers}, batch {args.batch}, hidden {args.hidden}, embedding "
          f"{EMBEDDING}, T {SEQ_LEN}, V {VOCAB_SIZE}; median of {WINDOWS} windows after {WARMUP} warm-up ones; "
          f"1 BLAS thread; a timed call costs about {timer_us:.2f} us more (not subtracted)")
    print(f"workspace: {sum(a.nbytes for a in workspace) / 1e6:.2f} MB in {len(workspace)} arrays; largest: "
          + ", ".join(f"{a.shape} {a.nbytes / 1e6:.2f} MB" for a in workspace[:LARGEST]))
    print(f"{'':52} {'ms/window':>10} {'calls/window':>13} {'us/call':>9}")

    def row(label: str, keys: list, calls: int = 0) -> None:
        ms = clock.ms(keys)
        per_call = f"{ms * 1e3 / calls:9.1f}" if calls else ""
        print(f"{label:52} {ms:10.3f} {calls or '':>13} {per_call:>9}")

    for phase, stack, own in (("forward", ("forward", "stack"), "waves"), ("backward", ("back", "stack"), "back")):
        print(f"{phase + ', untimed windows':52} {untimed[phase]:10.3f}")
        row(phase, [phase])
        row("  stack", [stack])
        replays = []
        for key in (key for key in parts if key[1] == own):
            print(f"    {' '.join(map(str, key))}")
            kinds = sorted((k for k in clock.calls if k[0] == key), key=lambda k: clock.ms([k]), reverse=True)
            for k in kinds:
                row(f"      {k[1]}", [k], clock.calls[k] // WINDOWS)
            replays += kinds
        # Medians of the per-window differences, as every row is a median of per-window sums.
        outside = [sum(w.get(k, 0.0) for k in replays) for w in clock.windows]
        print(f"{'    outside the replayed calls':52} "
              f"{statistics.median(w.get(stack, 0.0) - o for w, o in zip(clock.windows, outside)) * 1e3:10.3f}")
        if phase == "forward":
            head = statistics.median(w["forward"] - w[stack] for w in clock.windows) * 1e3
            print(f"{'  head (forward outside the stack)':52} {head:10.3f}")
        else:
            row("  head (every record after the stack)", [("back", "head")])
    return 0


if __name__ == "__main__":
    sys.exit(main())
