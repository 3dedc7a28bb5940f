"""Output checks the benchmark runs on what the CLI wrote.

Each check returns a list of failure messages (empty when it passes).  The
tonality metrics are recomputed here from their definitions with plain
loops, independently of `melodykit.metrics`, so `stats.json` is compared
against a second implementation rather than against itself.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

SPAN_N, SPAN_LB, SPAN_UB = 12, 5, 8  # the `eval` defaults the benchmark runs with
STATS_TOLERANCE = 1e-12


def read_curve(path: Path) -> list[float]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "iteration,loss":
        raise ValueError(f"{path}: missing iteration,loss header")
    return [float(line.split(",")[1]) for line in lines[1:]]


def epoch_mean(losses: list[float], windows: int, epoch: int) -> float:
    """Mean per-token loss over one epoch (`windows` iterations, 0-based epoch)."""
    part = losses[epoch * windows:(epoch + 1) * windows]
    return sum(part) / len(part)


def curve_failures(losses: list[float], windows: int, epochs: int) -> list[str]:
    """Every loss finite (one check per iteration), then one check of the
    planned iteration count and the last epoch's mean loss below the first's.

    Each epoch visits the same windows in the same order, so the comparison
    is like for like; a single window's loss depends on which songs the
    seed put in it and can rise from one window to the next.
    """
    bad = [f"iteration {i + 1}: loss {x!r} is not finite" for i, x in enumerate(losses)
           if not math.isfinite(x)]
    if len(losses) != windows * epochs:
        bad.append(f"curve has {len(losses)} iterations, expected {windows * epochs}")
    elif not epoch_mean(losses, windows, epochs - 1) < epoch_mean(losses, windows, 0):
        bad.append(f"last epoch's mean loss {epoch_mean(losses, windows, epochs - 1)!r} "
                   f"is not below the first's {epoch_mean(losses, windows, 0)!r}")
    return bad


def checkpoint_failures(mk, model, path: Path) -> list[str]:
    """A reloaded checkpoint gives the logits of the model that saved it."""
    if model is None:
        return ["no trained model was captured from rnn.train"]
    reloaded = mk.rnn.load_checkpoint(path)
    ids = np.arange(16) % model.vocab_size
    want, _ = mk.rnn.stack_forward(ids, model)
    got, _ = mk.rnn.stack_forward(ids, reloaded)
    if not np.allclose(got, want, rtol=1e-12, atol=1e-12):
        return [f"{path}: reloaded logits differ by up to {np.abs(got - want).max():.3e}"]
    return []


def song_failures(songs: list[list[int]], count: int, length: int) -> list[str]:
    """One check per song (length, notes in 0..127), plus one of the count."""
    bad = [f"song {i}: {len(s)} notes, expected {length}" if len(s) != length
           else f"song {i}: note outside 0..127" for i, s in enumerate(songs)
           if len(s) != length or not all(0 <= n <= 127 for n in s)]
    if len(songs) != count:
        bad.append(f"{len(songs)} songs written, expected {count}")
    return bad


def midi_failures(mk, songs: list[list[int]], sample_dir: Path) -> list[str]:
    """Each song_<i>.mid the CLI wrote (write_midi's bytes) parses back to song i."""
    bad = []
    for i, song in enumerate(songs):
        parsed = mk.midi.parse_midi((sample_dir / f"song_{i:03d}.mid").read_bytes())
        if parsed != song:
            bad.append(f"song {i}: parse_midi(write_midi(song)) != song")
    return bad


def _naive_report(song: list[int]) -> tuple[float, float, float]:
    spans = max(1, len(song) - SPAN_N + 1)
    steps = [abs(b - a) for a, b in zip(song, song[1:])]
    cmm = sum(steps) / len(steps)
    lm_total = 0.0
    centr_total = 0.0
    for j in range(spans):
        span = song[j:j + SPAN_N]
        distinct = len(set(span))
        if distinct < SPAN_LB:
            lm_total += SPAN_LB - distinct + 1
        elif distinct > SPAN_UB:
            lm_total += distinct - SPAN_UB + 1
        else:
            lm_total += 1.0
        centr_total += max(span.count(p) for p in span) / SPAN_N
    return cmm, lm_total / spans, centr_total / spans


def stats_failures(path: Path, songs: list[list[int]]) -> list[str]:
    """The stats.json at `path` equals a naive recomputation to 1e-12 (one check)."""
    stats = json.loads(path.read_text(encoding="utf-8"))
    reports = [_naive_report(s) for s in songs]
    bad = []
    if stats["count"] != len(songs):
        bad.append(f"stats count {stats['count']} != {len(songs)} songs")
    centroid = []
    for k, key in enumerate(("cmm", "lm", "centr")):
        values = [r[k] for r in reports]
        mean = sum(values) / len(values)
        std = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
        centroid.append(mean)
        for field, want in (("mean", mean), ("std", std)):
            got = stats[key][field]
            if abs(got - want) > STATS_TOLERANCE:
                bad.append(f"stats {key}.{field} = {got!r}, naive {want!r}")
    dist = [math.dist(r, centroid) for r in reports]
    rep = stats["representative_index"]
    if not (0 <= rep < len(reports)) or dist[rep] > min(dist) + STATS_TOLERANCE:
        bad.append(f"representative_index {rep} is not nearest the centroid")
    return ["; ".join(bad)] if bad else []
