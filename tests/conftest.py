"""Shared fixtures and helpers.

The expensive piece is the toy memorization run (one per cell kind). It is
trained once per session and shared between the rnn tests and the
acceptance gate. `finite_diff_check` is the central-difference gradient
checker that the tape tests and acceptance criterion 4 compare against.
"""

import contextlib
import io
import time
from dataclasses import dataclass

import numpy as np
import pytest

from melodykit.cli import main as cli_main
from melodykit.core import DatasetVariant, build_corpus
from melodykit.rnn import ModelState, TrainConfig, train

# one 200-note random walk, clamped to a comfortable register
def make_toy_song():
    rng = np.random.default_rng(7)
    song = [60]
    for _ in range(199):
        step = int(rng.choice([-4, -2, -1, 1, 2, 4]))
        song.append(min(84, max(48, song[-1] + step)))
    return song


TOY_KNOBS = dict(
    num_layers=1,
    hidden_size=32,
    embedding_dim=16,
    batch_size=2,
    seq_len=20,
    epochs=500,
    learning_rate=0.01,
    lr_decay=1.0,
    max_iterations=2000,
)


@dataclass
class ToyRun:
    song: list
    model: ModelState
    curve: list
    seconds: float


@pytest.fixture(scope="session")
def toy_runs() -> dict[str, ToyRun]:
    song = make_toy_song()
    corpus = build_corpus([song], DatasetVariant.CONTROL)
    runs = {}
    for cell in ("lstm", "ugrnn"):
        start = time.perf_counter()
        model, curve = train(corpus, TrainConfig(cell=cell, **TOY_KNOBS), seed=0)
        runs[cell] = ToyRun(song, model, curve, time.perf_counter() - start)
    return runs


def random_song(rng, length, lo=0, hi=127):
    return [int(p) for p in rng.integers(lo, hi + 1, size=length)]


def run_cli(argv):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def finite_diff_check(loss_fn, params, h=1e-5, max_coords=None, rng=None):
    """Max relative error between analytic and central-difference gradients.

    loss_fn maps a parameter list to (loss, gradient list) and must be
    deterministic.  Checks every coordinate unless max_coords caps the
    sample per parameter.
    """
    _, grads = loss_fn([p.copy() for p in params])
    worst = 0.0
    for pi, p in enumerate(params):
        flat_n = p.size
        if max_coords is not None and flat_n > max_coords:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(flat_n, size=max_coords, replace=False)
        else:
            coords = range(flat_n)
        for c in coords:
            idx = np.unravel_index(c, p.shape)

            def perturbed(delta):
                trial = [q.copy() for q in params]
                trial[pi][idx] += delta
                return loss_fn(trial)[0]

            numeric = (perturbed(h) - perturbed(-h)) / (2.0 * h)
            analytic = float(grads[pi][idx])
            denom = max(abs(analytic), abs(numeric), 1e-12)
            worst = max(worst, abs(analytic - numeric) / denom)
    return worst
