"""Tonality metrics over sliding 12-note spans.

Three numbers summarise how melodic a note stream is: chromatic melodic
movement (mean absolute step size), local macroharmony (how many distinct
pitches each span uses, penalised outside a comfort band), and centricity
(how dominant each span's most frequent pitch is).  All metrics need at
least one full span and one step, so shorter songs are rejected.

`dataset_stats` scores the songs of each length as one array, in chunks
of at most `_CHUNK_CELLS` table cells so memory stays flat; the one-song
calls take the same path.  Reports equal a per-span loop's bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Song
from .errors import EmptyInput, SongTooShort

_CHUNK_CELLS = 1 << 16


@dataclass(frozen=True)
class SpanConfig:
    """Span length and the macroharmony comfort band [lb, ub]."""

    n: int = 12
    lb: int = 5
    ub: int = 8

    def __post_init__(self) -> None:
        if not (1 <= self.lb <= self.ub <= self.n):
            raise ValueError(f"need 1 <= lb <= ub <= n, got n={self.n} lb={self.lb} ub={self.ub}")


class MetricReport(NamedTuple):
    """One value per metric; every output lists the metrics in this order."""

    cmm: float
    lm: float
    centr: float


@dataclass(frozen=True)
class MetricStats:
    """Per-metric mean and population standard deviation over a song set."""

    mean: MetricReport
    std: MetricReport
    count: int


def _score_block(block: np.ndarray, cfg: SpanConfig) -> np.ndarray:
    """(songs, 3) cmm, lm, centr of a (songs, length) pitch array.

    Entry t of a (pitch, song) row of the cumulative one-hot table counts that pitch
    among the song's first t notes, so span j's counts are entries j + n minus entries j.
    Sums are of integers but centricity's, a row-wise cumsum that adds in span order.
    """
    songs, length = block.shape
    spans = length - cfg.n + 1
    low = block.min()
    table = np.zeros((int(block.max() - low) + 1, songs, length + 1), dtype=np.int32)
    table[block - low, np.arange(songs)[:, None], np.arange(1, length + 1)] = 1
    np.add.accumulate(table, axis=2, out=table)
    counts = table[:, :, cfg.n :] - table[:, :, :spans]
    distinct = np.count_nonzero(counts, axis=0)
    # Outside [lb, ub] a span scores 1 plus its distance to the band.
    span_lm = np.maximum(np.maximum(cfg.lb - distinct, distinct - cfg.ub), 0) + 1
    return np.stack([np.abs(np.diff(block, axis=1)).sum(axis=1) / (length - 1),
                     span_lm.sum(axis=1) / spans,
                     np.cumsum(counts.max(axis=0) / cfg.n, axis=1)[:, -1] / spans], axis=1)


def dataset_stats(songs: list[Song], cfg: SpanConfig = SpanConfig()) -> tuple[list[MetricReport], MetricStats]:
    """Per-song reports and their stats; SongTooShort names the first too-short song by its index."""
    need = max(cfg.n, 2)  # one full span, and one step for CMM
    lengths = np.fromiter(map(len, songs), dtype=np.int64, count=len(songs))
    if (short := np.flatnonzero(lengths < need)).size:
        raise SongTooShort(f"song {short[0]}: metrics need at least {need} notes, got {lengths[short[0]]}")
    values = np.empty((len(songs), 3))
    for length in np.unique(lengths).tolist():
        index = np.flatnonzero(lengths == length)
        block = np.array([songs[i] for i in index], dtype=np.int64)
        rows = max(1, _CHUNK_CELLS // ((length + 1) * (int(block.max() - block.min()) + 1)))
        for start in range(0, index.size, rows):
            values[index[start : start + rows]] = _score_block(block[start : start + rows], cfg)
    reports = [MetricReport(*row) for row in values.tolist()]
    return reports, stats_of_reports(reports)


def evaluate_song(song: Song, cfg: SpanConfig = SpanConfig()) -> MetricReport:
    """One song's cmm, lm and centricity, scored on `dataset_stats`'s path."""
    return dataset_stats([song], cfg)[0][0]


def stats_of_reports(reports: list[MetricReport]) -> MetricStats:
    if not reports:
        raise EmptyInput("no reports to aggregate")
    n = len(reports)
    columns = list(zip(*reports))
    means = [sum(col) / n for col in columns]
    stds = [math.sqrt(sum((v - m) ** 2 for v in col) / n) for col, m in zip(columns, means)]
    return MetricStats(mean=MetricReport(*means), std=MetricReport(*stds), count=n)


def representative_song(reports: list[MetricReport], centroid: MetricReport) -> int:
    """Index of the report nearest the centroid in raw Euclidean distance.

    Ties resolve to the lowest index.
    """
    if not reports:
        raise EmptyInput("no reports to choose from")
    best_i = 0
    best_d = math.inf
    for i, r in enumerate(reports):
        d = math.sqrt(sum((a - b) ** 2 for a, b in zip(r, centroid)))
        if d < best_d:
            best_i, best_d = i, d
    return best_i
