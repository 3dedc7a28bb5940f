"""End-to-end acceptance checks, one per shipped guarantee.

Each test exercises one externally stated contract at its stated tolerance
and time budget and prints a single PASS/FAIL line (run with -s to see them).
Expected values come from independent brute-force oracles or from hand
anchors, never from the code under test.
"""

import contextlib
import json
import time
from pathlib import Path

import numpy as np

from melodykit.core import (
    DatasetVariant,
    Vocabulary,
    load_songs_jsonl,
    song_to_db12,
    song_to_interval,
    transpose,
)
from melodykit.metrics import centricity, cmm, lm
from melodykit.midi import parse_midi, write_midi
from melodykit.rnn import _window_loss, _zero_states, init_model, sample
from melodykit.tensor import GradientTape

from . import oracles
from .conftest import finite_diff_check, run_cli

DATA = Path(__file__).resolve().parent.parent / "data" / "mini_corpus.jsonl"


@contextlib.contextmanager
def criterion(num, name):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] {name}: FAIL")
        raise
    print(f"[criterion {num}] {name}: PASS ({time.perf_counter() - t0:.2f}s)")


# --- 1. interval transform -------------------------------------------------

def test_criterion_1_interval_transform():
    with criterion(1, "interval transform"):
        song = [60, 62, 64, 65, 62, 60, 60]
        song_to_interval(song)  # warm the import path before timing
        t0 = time.perf_counter()
        got = song_to_interval(song)
        shifted = song_to_interval(transpose(song, 7))
        elapsed = time.perf_counter() - t0
        assert got == [2, 2, 1, -3, -2, 0]
        assert shifted == got
        assert transpose(song, 7) == [67, 69, 71, 72, 69, 67, 67]
        assert elapsed < 1e-3


# --- 2. twelve-fold transposition ------------------------------------------

def test_criterion_2_db12_expansion():
    with criterion(2, "db12 expansion"):
        rng = np.random.default_rng(2)
        t0 = time.perf_counter()
        for _ in range(1000):
            length = int(rng.integers(2, 41))
            # 11..116 keeps every one of the 12 transpositions inside 0..127
            song = [int(rng.integers(11, 117)) for _ in range(length)]
            group = song_to_db12(song)
            assert len(group) == 12
            assert group[0] == song
            base = oracles.brute_intervals(song)
            shifts = []
            for member in group:
                assert oracles.brute_intervals(member) == base
                assert all(0 <= p <= 127 for p in member)
                shifts.append(member[0] - song[0])
            down = sum(1 for s in shifts if s < 0)
            up = sum(1 for s in shifts if s > 0)
            assert down + up == 11
            assert shifts == [0] + [-d for d in range(1, down + 1)] + list(range(1, up + 1))
        assert time.perf_counter() - t0 < 1.0


# --- 3. tonality metrics ----------------------------------------------------

def test_criterion_3_metrics_match_brute_force():
    with criterion(3, "tonality metrics"):
        rng = np.random.default_rng(3)
        t0 = time.perf_counter()
        for _ in range(1000):
            length = int(rng.integers(12, 41))
            song = [int(rng.integers(0, 128)) for _ in range(length)]
            assert abs(cmm(song) - oracles.brute_cmm(song)) <= 1e-12
            assert abs(lm(song) - oracles.brute_lm(song)) <= 1e-12
            assert abs(centricity(song) - oracles.brute_centr(song)) <= 1e-12
        chromatic = list(range(60, 73))
        assert (cmm(chromatic), lm(chromatic), centricity(chromatic)) == (1.0, 5.0, 1 / 12)
        flat = [60] * 12
        assert (cmm(flat), lm(flat), centricity(flat)) == (0.0, 5.0, 1.0)
        assert time.perf_counter() - t0 < 2.0


# --- 4. gradient correctness ------------------------------------------------

XS = np.array([[0, 3, 1], [2, 4, 0], [1, 1, 3], [4, 2, 2]])
YS = np.array([[3, 1, 4], [0, 2, 1], [2, 0, 4], [1, 3, 0]])


def batched_loss_fn(model):
    """The 3-step window loss that training runs, over the fixed batch."""
    params = model.parameters()

    def loss_fn(trial):
        for p, arr in zip(params, trial):
            p.value = arr.copy()
            p.grad = None
        tape = GradientTape()
        total, _ = _window_loss(tape, model, XS, YS, _zero_states(model, XS.shape[0]))
        tape.backward(total)
        grads = [p.grad.copy() if p.grad is not None else np.zeros_like(p.value) for p in params]
        return float(total.value), grads

    return loss_fn


def test_criterion_4_gradients_match_finite_differences():
    with criterion(4, "gradient check"):
        vocab = Vocabulary(tokens=(60, 62, 64, 65, 67))
        t0 = time.perf_counter()
        for cell in ("lstm", "ugrnn"):
            for layers in (1, 2):
                model = init_model(
                    vocab, DatasetVariant.CONTROL, cell=cell, num_layers=layers,
                    hidden_size=8, embedding_dim=4,
                    rng=np.random.default_rng(12), init_scale=0.8,
                )
                loss_fn = batched_loss_fn(model)
                worst = finite_diff_check(loss_fn, [p.value.copy() for p in model.parameters()], h=1e-5)
                assert worst < 1e-4, f"{cell} x{layers}: worst rel err {worst:.3e}"
        assert time.perf_counter() - t0 < 30.0


# --- 5. toy memorization ----------------------------------------------------

def test_criterion_5_toy_memorization(toy_runs):
    with criterion(5, "toy memorization"):
        for cell, run in toy_runs.items():
            losses = [loss for _, loss in run.curve]
            assert len(losses) <= 2000
            assert min(losses) < 0.1, f"{cell}: best loss {min(losses):.3f}"
            seed = run.song[:4]
            out = sample(run.model, seed, n=60, mode="greedy")
            target = run.song[4:64]
            streak = 0
            for got, want in zip(out[4:], target):
                if got != want:
                    break
                streak += 1
            assert streak >= 20, f"{cell}: only {streak} consecutive tokens match"
            assert run.seconds < 300.0, f"{cell}: took {run.seconds:.0f}s"


# --- 6..9 share one corpus built from the bundled songs ---------------------

def build_mini_corpus(tmp_path):
    corpus = tmp_path / "corpus.json"
    code, _, err = run_cli(["dataset", "--songs", DATA, "--out", corpus])
    assert code == 0, err
    return corpus


SMALL_MODEL = ["--hidden-size", "16", "--embedding-dim", "8",
               "--batch-size", "2", "--seq-len", "20", "--epochs", "1"]


def test_criterion_6_sample_and_eval_defaults(tmp_path):
    with criterion(6, "sample/eval pipeline"):
        t0 = time.perf_counter()
        corpus = build_mini_corpus(tmp_path)
        ckpt = tmp_path / "model.ckpt"
        code, _, err = run_cli(
            ["train", "--corpus", corpus, "--checkpoint", ckpt,
             "--max-iterations", "40"] + SMALL_MODEL
        )
        assert code == 0, err

        gen = tmp_path / "gen"
        code, _, err = run_cli(["sample", "--checkpoint", ckpt, "--out-dir", gen])
        assert code == 0, err
        songs = load_songs_jsonl(gen / "songs.jsonl")
        assert len(songs) == 100
        assert all(len(s) == 34 for s in songs)

        report = tmp_path / "report"
        code, _, err = run_cli(["eval", "--songs", gen / "songs.jsonl", "--out-dir", report])
        assert code == 0, err
        stats = json.loads((report / "stats.json").read_text())
        triples = [
            (oracles.brute_cmm(s), oracles.brute_lm(s), oracles.brute_centr(s))
            for s in songs
        ]
        for key, col in zip(("cmm", "lm", "centr"), zip(*triples)):
            mean, std = oracles.brute_mean_std(list(col))
            assert abs(stats[key]["mean"] - mean) <= 1e-12
            assert abs(stats[key]["std"] - std) <= 1e-12
        centroid = tuple(oracles.brute_mean_std(list(col))[0] for col in zip(*triples))
        assert stats["representative_index"] == oracles.brute_representative(triples, centroid)
        assert time.perf_counter() - t0 < 120.0


def test_criterion_7_midi_roundtrip():
    with criterion(7, "midi round trip"):
        rng = np.random.default_rng(7)
        t0 = time.perf_counter()
        for _ in range(500):
            length = int(rng.integers(1, 61))
            song = [int(rng.integers(0, 128)) for _ in range(length)]
            blob = write_midi(song)
            assert parse_midi(blob) == song
            assert blob[12:14] == (480).to_bytes(2, "big")  # quarter note = 480 ticks
            assert bytes([0xFF, 0x51, 0x03, 0x07, 0xA1, 0x20]) in blob  # 500000 us = 120 BPM
        assert time.perf_counter() - t0 < 5.0


def test_criterion_8_reproducibility(tmp_path):
    with criterion(8, "bit reproducibility"):
        t0 = time.perf_counter()
        corpus = build_mini_corpus(tmp_path)
        artifacts = []
        for tag in ("one", "two"):
            ckpt = tmp_path / f"{tag}.ckpt"
            curve = tmp_path / f"{tag}.csv"
            code, _, err = run_cli(
                ["train", "--corpus", corpus, "--checkpoint", ckpt, "--curve", curve,
                 "--seed", "11", "--max-iterations", "30"] + SMALL_MODEL
            )
            assert code == 0, err
            gen = tmp_path / f"gen_{tag}"
            code, _, err = run_cli(
                ["sample", "--checkpoint", ckpt, "--out-dir", gen, "--count", "5"]
            )
            assert code == 0, err
            artifacts.append(
                (ckpt.read_bytes(), curve.read_bytes(), (gen / "songs.jsonl").read_bytes())
            )
        assert artifacts[0] == artifacts[1]
        assert time.perf_counter() - t0 < 300.0


def test_criterion_9_layer_sweep(tmp_path):
    with criterion(9, "layer sweep"):
        t0 = time.perf_counter()
        corpus = build_mini_corpus(tmp_path)
        out = tmp_path / "sweep"
        code, _, err = run_cli(
            ["sweep", "--corpus", corpus, "--out-dir", out,
             "--cells", "lstm,ugrnn", "--layers", "1,2,3"] + SMALL_MODEL
        )
        assert code == 0, err
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        assert len(rows) == 6  # one per (cell, layers) pair
        finals = {}
        for row in rows:
            cell, layers, initial, final, status = row.split(",")
            assert status == "ok"
            assert float(final) < float(initial)
            finals[(cell, int(layers))] = float(final)
        best_rows = (out / "best.csv").read_text().splitlines()[1:]
        assert len(best_rows) == 2
        for row in best_rows:
            cell, best_layers, final = row.split(",")
            expect = min((l for c, l in finals if c == cell), key=lambda l: finals[(cell, l)])
            assert int(best_layers) == expect
            assert float(final) == finals[(cell, expect)]
        assert time.perf_counter() - t0 < 900.0
