import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melodykit.errors import BadSpanLength, EmptyInput, SongTooShort
from melodykit.metrics import (
    MetricReport,
    SpanConfig,
    centricity,
    cmm,
    dataset_stats,
    evaluate_song,
    llm,
    lm,
    representative_song,
    span_count,
    stats_of_reports,
)

from . import oracles

CHROMATIC_13 = list(range(60, 73))
CONSTANT_12 = [60] * 12

scoreable_songs = st.lists(st.integers(0, 127), min_size=12, max_size=40)


@pytest.mark.parametrize("length,n,expected", [(12, 12, 1), (34, 12, 23), (5, 12, 1)])
def test_span_count(length, n, expected):
    assert span_count(length, n) == expected


def test_cmm_anchors():
    assert cmm(CHROMATIC_13) == 1.0
    assert cmm(CONSTANT_12) == 0.0
    # |diffs| of the 12-note melody: 2+2+1+3+2+0+0+2+2+1+3 = 18
    song = [60, 62, 64, 65, 62, 60, 60, 60, 62, 64, 65, 62]
    assert cmm(song) == pytest.approx(18 / 11, abs=0)


def test_cmm_rejects_short_songs():
    with pytest.raises(SongTooShort):
        cmm([60] * 11)


def test_llm_band():
    span = [60, 61, 62, 63, 64, 65, 60, 61, 62, 63, 64, 65]  # 6 distinct
    assert llm(span) == 1.0
    assert llm(CONSTANT_12) == 5.0  # (5-1)+1
    span10 = [60, 61, 62, 63, 64, 65, 66, 67, 68, 69, 60, 61]  # 10 distinct
    assert llm(span10) == 3.0  # (10-8)+1


def test_llm_wants_exact_span():
    with pytest.raises(BadSpanLength):
        llm([60] * 11)
    with pytest.raises(BadSpanLength):
        llm([60] * 13)


def test_lm_anchors():
    assert lm([60, 61, 62, 63, 64, 65, 60, 61, 62, 63, 64, 65]) == 1.0
    assert lm([60] * 13) == 5.0  # two all-constant windows
    assert lm(CHROMATIC_13) == 5.0  # every window has 12 distinct notes


def test_centricity_anchors():
    assert centricity(CONSTANT_12) == 1.0
    assert centricity(list(range(60, 72))) == pytest.approx(1 / 12)
    song = [60, 60, 60, 62, 64, 65, 62, 60, 60, 67, 69, 71]
    assert centricity(song) == pytest.approx(5 / 12)


def test_evaluate_song_composes():
    assert evaluate_song(CONSTANT_12) == MetricReport(0.0, 5.0, 1.0)
    r = evaluate_song(CHROMATIC_13)
    assert (r.cmm, r.lm) == (1.0, 5.0)
    assert r.centr == pytest.approx(1 / 12)


@given(scoreable_songs)
@settings(max_examples=300)
def test_metrics_match_oracles(song):
    r = evaluate_song(song)
    assert abs(r.cmm - oracles.brute_cmm(song)) <= 1e-12
    assert abs(r.lm - oracles.brute_lm(song)) <= 1e-12
    assert abs(r.centr - oracles.brute_centr(song)) <= 1e-12


@given(st.lists(st.integers(11, 110), min_size=12, max_size=30), st.integers(-10, 10))
def test_transposition_invariance(song, shift):
    assert evaluate_song([n + shift for n in song]) == evaluate_song(song)


@given(scoreable_songs)
def test_cmm_reversal_invariance(song):
    assert cmm(list(reversed(song))) == pytest.approx(cmm(song))


@given(scoreable_songs)
def test_llm_at_least_one(song):
    score = llm(song[:12])
    assert score >= 1.0
    assert (score == 1.0) == (5 <= len(set(song[:12])) <= 8)


def test_span_config_validation():
    with pytest.raises(ValueError):
        SpanConfig(n=12, lb=9, ub=8)
    with pytest.raises(ValueError):
        SpanConfig(n=4, lb=5, ub=8)
    cfg = SpanConfig(n=6, lb=2, ub=3)
    assert llm([60, 61, 60, 61, 60, 61], cfg) == 1.0


def test_dataset_stats_single_song():
    reports, stats = dataset_stats([CONSTANT_12])
    assert reports == [MetricReport(0.0, 5.0, 1.0)]
    assert stats.mean == MetricReport(0.0, 5.0, 1.0)
    assert stats.std == MetricReport(0.0, 0.0, 0.0)
    assert stats.count == 1


def test_stats_two_point():
    reports = [MetricReport(1.0, 1.0, 0.5), MetricReport(3.0, 1.0, 0.5)]
    stats = stats_of_reports(reports)
    assert stats.mean.cmm == 2.0
    assert stats.std.cmm == 1.0  # population std over two points


def test_dataset_stats_matches_oracle():
    rng = np.random.default_rng(3)
    songs = [[int(p) for p in rng.integers(40, 90, size=rng.integers(12, 40))] for _ in range(50)]
    reports, stats = dataset_stats(songs)
    assert reports == [evaluate_song(s) for s in songs]
    cmm_mean, cmm_std = oracles.brute_mean_std([oracles.brute_cmm(s) for s in songs])
    lm_mean, lm_std = oracles.brute_mean_std([oracles.brute_lm(s) for s in songs])
    assert stats.mean.cmm == pytest.approx(cmm_mean, abs=1e-12)
    assert stats.std.cmm == pytest.approx(cmm_std, abs=1e-12)
    assert stats.mean.lm == pytest.approx(lm_mean, abs=1e-12)
    assert stats.std.lm == pytest.approx(lm_std, abs=1e-12)


def test_dataset_stats_names_offender():
    with pytest.raises(SongTooShort) as exc_info:
        dataset_stats([CONSTANT_12, [60, 62]])
    assert "song 1" in str(exc_info.value)
    with pytest.raises(EmptyInput):
        dataset_stats([])


def test_representative_trivial_cases():
    c = MetricReport(2.0, 1.5, 0.2)
    assert representative_song([c], c) == 0
    assert representative_song([c, MetricReport(5.0, 5.0, 0.9)], c) == 0


def test_representative_tie_takes_lowest_index():
    c = MetricReport(0.0, 0.0, 0.0)
    reports = [MetricReport(1.0, 0.0, 0.0), MetricReport(-1.0, 0.0, 0.0)]
    assert representative_song(reports, c) == 0


def test_representative_matches_scan():
    rng = np.random.default_rng(11)
    reports = [MetricReport(*rng.uniform(0, 5, size=3)) for _ in range(10)]
    centroid = stats_of_reports(reports).mean
    want = oracles.brute_representative(
        [(r.cmm, r.lm, r.centr) for r in reports],
        (centroid.cmm, centroid.lm, centroid.centr),
    )
    assert representative_song(reports, centroid) == want


def test_representative_empty():
    with pytest.raises(EmptyInput):
        representative_song([], MetricReport(0, 0, 0))
