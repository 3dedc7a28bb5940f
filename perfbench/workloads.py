"""The benchmark's workloads: each drives `melodykit.cli.main` in-process.

A workload has a set-up (inputs made from the seed, plus a warm-up pass of
the same configuration, so first-call costs land in set-up and not in the
timed rounds) and a round: a fixed sequence of CLI commands whose amount of
work does not depend on the seed.  The benchmark repeats rounds for the
requested number of seconds, one after another (a closed loop with one
client), checks every round's outputs, and reports medians over rounds.

Why these three (also in BENCHMARK.json):

* train-db12-lstm1-b50: large GEMMs dominate an iteration, so it shows
  changes to the numpy kernels in `tensor` and to fused gates; it bypasses
  sampling, MIDI and metrics.
* train-control-ugrnn3-b4: a tiny batch through a deep stack, so tape
  bookkeeping and Adam dominate; it shows per-op Python overhead and
  barely moves when only the kernels get faster.
* sample-score-ingest: sampling (B=1, no tape), MIDI writes and reads,
  metrics and the db12 transform; training does no work in its rounds, so
  it is the only workload that batched sampling moves.
"""

from __future__ import annotations

import io
import json
import re
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

SEQ_LEN = 50  # the CLI default, which every train command here keeps


class StageError(RuntimeError):
    """A CLI command exited nonzero."""


@dataclass
class Tally:
    """Attempts (iterations, songs and checks) and the failures among them."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def add(self, attempts: int, failures: list[str]) -> None:
        self.attempted += attempts
        self.failed += len(failures)
        self.messages += failures


@dataclass
class Round:
    """Wall time of one round, per command, plus its per-item times.

    `scale` converts them to the reference machine's seconds (reference.py).
    """

    wall_s: float
    stage_s: dict[str, float]
    item_s: list[float]
    scale: float = 1.0


class Bench:
    """State shared by the set-up, rounds and checks of one run."""

    def __init__(self, mk, probe, work: Path, corpus: Path, seed: int) -> None:
        self.mk = mk
        self.probe = probe
        self.work = work
        self.corpus = corpus
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.tally = Tally()
        self.tracer = None  # set for traced rounds

    def cli(self, *argv) -> tuple[float, str]:
        """Run one melodykit command; returns (wall seconds, its stdout)."""
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        tracer = self.tracer
        if tracer is not None:
            tracer.open(tracer.name_id(f"cli.{argv[0]}"))
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.mk.cli.main(argv)
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.close()
        if code != 0:
            raise StageError(f"melodykit {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        return wall, out.getvalue()

    def write_songs(self, path: Path, limit: int | None) -> int:
        """The bundled corpus (its first `limit` songs in that order) in a
        seed-drawn order; returns the song count."""
        lines = [ln for ln in self.corpus.read_text(encoding="utf-8").splitlines() if ln.strip()]
        order = np.random.default_rng(self.seed).permutation(len(lines))[:limit]
        path.write_text("".join(lines[i] + "\n" for i in order), encoding="utf-8")
        return len(order)


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q))


def median_time(rounds: list[Round], seconds) -> float:
    """Median over rounds of the time `seconds(round)`, in reference seconds."""
    return statistics.median(seconds(r) * r.scale for r in rounds)


def median_rate(rounds: list[Round], count: float, seconds) -> float:
    """Median over rounds of `count` per reference second of `seconds(round)`."""
    return statistics.median(count / (seconds(r) * r.scale) for r in rounds)


def item_times(probe_s: list[float], stage_s: float, n: int) -> list[float]:
    """Per-item times from the probe; the stage average when the program
    no longer goes item by item (one batch for all songs, say)."""
    return list(probe_s) if len(probe_s) == n else [stage_s / n] * n


EPOCHS = 2  # every training run covers its corpus twice; see checks.curve_failures


def windows_per_epoch(dataset_stdout: str, batch: int) -> int:
    """Iterations in one epoch, from the token count `dataset` prints."""
    tokens = int(re.search(r"tokens: (\d+)", dataset_stdout).group(1))
    return (tokens - 1) // batch // SEQ_LEN


class TrainWorkload:
    """`dataset` then `train` for two epochs."""

    kind = "train"
    warmup_iterations = 2

    def __init__(self, name: str, variant: str, cell: str, layers: int, batch: int,
                 songs: int | None) -> None:
        self.name = name
        self.variant = variant
        self.flags = ["--cell", cell, "--num-layers", layers, "--batch-size", batch]
        self.batch = batch
        self.songs = songs
        self.song_count = 0
        self.windows = 0
        self.losses: list[float] = []

    def _dataset(self, b: Bench) -> tuple[float, str]:
        w = b.work
        return b.cli("dataset", "--songs", w / "songs.jsonl", "--variant", self.variant,
                     "--out", w / "corpus.json")

    def _train(self, b: Bench, iterations: int) -> float:
        w = b.work
        wall, _ = b.cli("train", "--corpus", w / "corpus.json", "--checkpoint", w / "model.ckpt",
                        "--curve", w / "curve.csv", *self.flags,
                        "--max-iterations", iterations, "--seed", b.seed)
        return wall

    def setup(self, b: Bench) -> None:
        self.song_count = b.write_songs(b.work / "songs.jsonl", self.songs)
        _, out = self._dataset(b)
        self.windows = windows_per_epoch(out, self.batch)
        self._train(b, self.warmup_iterations)

    def round(self, b: Bench) -> Round:
        iterations = EPOCHS * self.windows
        t0 = time.perf_counter()
        dataset_s, _ = self._dataset(b)
        train_s = self._train(b, iterations)
        wall = time.perf_counter() - t0
        return Round(wall, {"dataset": dataset_s, "train": train_s},
                     item_times(b.probe.iteration_s, train_s, iterations))

    def check(self, b: Bench, r: Round) -> None:
        self.losses = checks.read_curve(b.work / "curve.csv")
        b.tally.add(len(self.losses) + 1, checks.curve_failures(self.losses, self.windows, EPOCHS))
        b.tally.add(1, checks.checkpoint_failures(b.mk, b.probe.model, b.work / "model.ckpt"))

    def metrics(self, rounds: list[Round]) -> dict[str, tuple[float, str, str]]:
        iters = [t * r.scale * 1e3 for r in rounds for t in r.item_s]
        tokens = self.batch * SEQ_LEN * EPOCHS * self.windows
        n = f"n={len(iters)} iterations over {len(rounds)} rounds"
        return {
            "pipeline_s": (median_time(rounds, lambda r: r.wall_s), "s", f"median of {len(rounds)} rounds"),
            "train_tok_per_s": (median_rate(rounds, tokens, lambda r: r.stage_s["train"]), "tok/s",
                                f"{tokens} tokens per train command"),
            "train_iter_ms_p50": (percentile(iters, 50), "ms", n),
            "train_iter_ms_p90": (percentile(iters, 90), "ms", n),
            "train_loss_final": (checks.epoch_mean(self.losses, self.windows, EPOCHS - 1), "nat/tok",
                                 f"mean per-token loss over the last of {EPOCHS} epochs"),
            "ingest_songs_per_s": (median_rate(rounds, self.song_count, lambda r: r.stage_s["dataset"]),
                                   "songs/s", f"{self.song_count} songs per dataset command"),
        }


class SampleWorkload:
    """`sample` many songs, read their MIDI files back with `dataset`, `eval` them."""

    kind = "sample"
    seed_notes = 4
    notes = 60  # generated after the seed, so each song has 64 notes
    train_batch = 4

    def __init__(self, name: str, count: int, songs: int | None) -> None:
        self.name = name
        self.count = count
        self.songs = songs
        self.vocabulary: list[int] = []
        self.loss_final = float("nan")
        self.ingest_out = ""

    def _sample(self, b: Bench, out_dir: Path, count: int) -> float:
        seed_song = ",".join(str(t) for t in b.rng.choice(self.vocabulary, size=self.seed_notes))
        wall, _ = b.cli("sample", "--checkpoint", b.work / "model.ckpt", "--out-dir", out_dir,
                        "--mode", "temperature", "--count", count, "--notes", self.notes,
                        "--seed-song", seed_song, "--seed", b.seed)
        return wall

    def setup(self, b: Bench) -> None:
        """Train the small checkpoint the rounds sample from, then warm up sampling."""
        w = b.work
        b.write_songs(w / "songs.jsonl", self.songs)
        _, out = b.cli("dataset", "--songs", w / "songs.jsonl", "--variant", "control",
                       "--out", w / "corpus.json")
        windows = windows_per_epoch(out, self.train_batch)
        b.probe.reset()
        b.cli("train", "--corpus", w / "corpus.json", "--checkpoint", w / "model.ckpt",
              "--curve", w / "curve.csv", "--cell", "lstm", "--num-layers", 1,
              "--batch-size", self.train_batch, "--max-iterations", EPOCHS * windows, "--seed", b.seed)
        losses = checks.read_curve(w / "curve.csv")
        b.tally.add(len(losses) + 1, checks.curve_failures(losses, windows, EPOCHS))
        b.tally.add(1, checks.checkpoint_failures(b.mk, b.probe.model, w / "model.ckpt"))
        self.loss_final = checks.epoch_mean(losses, windows, EPOCHS - 1)
        vocab = json.loads((w / "corpus.vocab.json").read_text(encoding="utf-8"))
        self.vocabulary = [int(t) for t in vocab["tokens"]]
        self._sample(b, w / "warmup", 2)

    def round(self, b: Bench) -> Round:
        w = b.work
        t0 = time.perf_counter()
        sample_s = self._sample(b, w / "samples", self.count)
        dataset_s, self.ingest_out = b.cli("dataset", "--midi-dir", w / "samples", "--variant", "db12",
                                           "--out", w / "ingest.json")
        eval_s, _ = b.cli("eval", "--songs", w / "samples" / "songs.jsonl", "--out-dir", w / "report")
        wall = time.perf_counter() - t0
        return Round(wall, {"sample": sample_s, "dataset": dataset_s, "eval": eval_s},
                     item_times(b.probe.song_s, sample_s, self.count))

    def check(self, b: Bench, r: Round) -> None:
        w = b.work
        songs = b.mk.core.load_songs_jsonl(w / "samples" / "songs.jsonl")
        length = self.seed_notes + self.notes
        b.tally.add(len(songs) + 1, checks.song_failures(songs, self.count, length))
        b.tally.add(len(songs), checks.midi_failures(b.mk, songs, w / "samples"))
        tokens = 12 * self.count * length  # db12 writes every song in twelve keys
        ingest_ok = f"songs: {self.count} kept, 0 dropped\ntokens: {tokens} (db12)" in self.ingest_out
        b.tally.add(1, [] if ingest_ok else [f"dataset --midi-dir: expected {tokens} db12 tokens"])
        b.tally.add(1, checks.stats_failures(w / "report" / "stats.json", songs))

    def metrics(self, rounds: list[Round]) -> dict[str, tuple[float, str, str]]:
        songs = [t * r.scale * 1e3 for r in rounds for t in r.item_s]
        tokens = (self.seed_notes + self.notes) * self.count
        n = f"n={len(songs)} songs over {len(rounds)} rounds"
        return {
            "pipeline_s": (median_time(rounds, lambda r: r.wall_s), "s", f"median of {len(rounds)} rounds"),
            "sample_tok_per_s": (median_rate(rounds, tokens, lambda r: r.stage_s["sample"]), "tok/s",
                                 f"{tokens} notes per sample command"),
            "sample_song_ms_p50": (percentile(songs, 50), "ms", n),
            "sample_song_ms_p90": (percentile(songs, 90), "ms", n),
            "eval_songs_per_s": (median_rate(rounds, self.count, lambda r: r.stage_s["eval"]),
                                 "songs/s", f"{self.count} songs per eval command"),
            "ingest_songs_per_s": (median_rate(rounds, self.count, lambda r: r.stage_s["dataset"]),
                                   "songs/s", f"{self.count} MIDI files per dataset command"),
            "train_loss_final": (self.loss_final, "nat/tok",
                                 f"mean per-token loss over the last of {EPOCHS} epochs of the set-up checkpoint"),
        }


def make_workloads(tiny: bool) -> dict[str, object]:
    """The workloads by name; `tiny` (the smoke test) trains on 6 songs and samples 4."""
    songs = 6 if tiny else None
    return {w.name: w for w in (
        TrainWorkload("train-db12-lstm1-b50", "db12", "lstm", 1, 50, songs),
        TrainWorkload("train-control-ugrnn3-b4", "control", "ugrnn", 3, 4, songs),
        SampleWorkload("sample-score-ingest", count=4 if tiny else 100, songs=songs),
    )}
