"""Tonality metrics over sliding 12-note spans.

Three numbers summarise how melodic a note stream is: chromatic melodic
movement (mean absolute step size), local macroharmony (how many distinct
pitches each span uses, penalised outside a comfort band), and centricity
(how dominant each span's most frequent pitch is).  All metrics need at
least one full span, so songs shorter than the span length are rejected.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, astuple, dataclass

from .core import Song
from .errors import BadSpanLength, EmptyInput, MelodyKitError, SongTooShort


@dataclass(frozen=True)
class SpanConfig:
    """Span length and the macroharmony comfort band [lb, ub]."""

    n: int = 12
    lb: int = 5
    ub: int = 8

    def __post_init__(self) -> None:
        if not (1 <= self.lb <= self.ub <= self.n):
            raise ValueError(f"need 1 <= lb <= ub <= n, got n={self.n} lb={self.lb} ub={self.ub}")


@dataclass(frozen=True)
class MetricReport:
    """One value per metric; every output lists the metrics in this order."""

    cmm: float
    lm: float
    centr: float

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


@dataclass(frozen=True)
class MetricStats:
    """Per-metric mean and population standard deviation over a song set."""

    mean: MetricReport
    std: MetricReport
    count: int


def span_count(song_len: int, n: int) -> int:
    """Number of length-n sliding windows (stride 1); 1 when the song fits in one."""
    return max(1, song_len - n + 1)


def _require_full_span(song: Song, n: int) -> None:
    if len(song) < n:
        raise SongTooShort(f"metrics need at least {n} notes, got {len(song)}")


def cmm(song: Song, cfg: SpanConfig = SpanConfig()) -> float:
    """Mean absolute semitone step between consecutive notes."""
    _require_full_span(song, cfg.n)
    total = sum(abs(song[i + 1] - song[i]) for i in range(len(song) - 1))
    return total / (len(song) - 1)


def llm(span: Song, cfg: SpanConfig = SpanConfig()) -> float:
    """Macroharmony score of one span.

    1 inside the comfort band; outside it the penalty grows linearly with
    the distance to the band, so 1 and n distinct notes score the same.
    Pitches count as distinct per octave (no pitch-class folding).
    """
    if len(span) != cfg.n:
        raise BadSpanLength(f"span must have exactly {cfg.n} notes, got {len(span)}")
    d = len(set(span))
    if cfg.lb <= d <= cfg.ub:
        return 1.0
    if d < cfg.lb:
        return float(cfg.lb - d + 1)
    return float(d - cfg.ub + 1)


def lm(song: Song, cfg: SpanConfig = SpanConfig()) -> float:
    """Mean llm over all sliding spans."""
    _require_full_span(song, cfg.n)
    spans = span_count(len(song), cfg.n)
    return sum(llm(song[j : j + cfg.n], cfg) for j in range(spans)) / spans


def centricity(song: Song, cfg: SpanConfig = SpanConfig()) -> float:
    """Mean over spans of the most frequent pitch's share of the span."""
    _require_full_span(song, cfg.n)
    spans = span_count(len(song), cfg.n)
    total = 0.0
    for j in range(spans):
        counts = Counter(song[j : j + cfg.n])
        total += max(counts.values()) / cfg.n
    return total / spans


def evaluate_song(song: Song, cfg: SpanConfig = SpanConfig()) -> MetricReport:
    return MetricReport(cmm=cmm(song, cfg), lm=lm(song, cfg), centr=centricity(song, cfg))


def dataset_stats(songs: list[Song], cfg: SpanConfig = SpanConfig()) -> tuple[list[MetricReport], MetricStats]:
    """Per-song reports and their stats; an error names the song it came from."""
    reports = []
    for i, song in enumerate(songs):
        try:
            reports.append(evaluate_song(song, cfg))
        except MelodyKitError as exc:
            raise type(exc)(f"song {i}: {exc}") from exc
    return reports, stats_of_reports(reports)


def stats_of_reports(reports: list[MetricReport]) -> MetricStats:
    if not reports:
        raise EmptyInput("no reports to aggregate")
    n = len(reports)
    columns = list(zip(*(astuple(r) for r in reports)))
    means = [sum(col) / n for col in columns]
    stds = [math.sqrt(sum((v - m) ** 2 for v in col) / n) for col, m in zip(columns, means)]
    return MetricStats(mean=MetricReport(*means), std=MetricReport(*stds), count=n)


def representative_song(reports: list[MetricReport], centroid: MetricReport) -> int:
    """Index of the report nearest the centroid in raw Euclidean distance.

    Ties resolve to the lowest index.
    """
    if not reports:
        raise EmptyInput("no reports to choose from")
    c = astuple(centroid)
    best_i = 0
    best_d = math.inf
    for i, r in enumerate(reports):
        d = math.sqrt(sum((a - b) ** 2 for a, b in zip(astuple(r), c)))
        if d < best_d:
            best_i, best_d = i, d
    return best_i
