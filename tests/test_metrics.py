import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melodykit.errors import EmptyInput, SongTooShort
from melodykit.metrics import (
    MetricReport,
    SpanConfig,
    dataset_stats,
    evaluate_song,
    representative_song,
    stats_of_reports,
)

from . import oracles

CHROMATIC_13 = list(range(60, 73))
CONSTANT_12 = [60] * 12

scoreable_songs = st.lists(st.integers(0, 127), min_size=12, max_size=40)


@pytest.mark.parametrize("length,n,expected", [(12, 12, 1), (34, 12, 23), (5, 12, 1)])
def test_span_count(length, n, expected):
    # The first span holds 9 distinct pitches and scores 2; every later one
    # holds 8 and scores 1, so lm = (spans + 1) / spans.  A song shorter than
    # one span has no span to score and is refused.
    song = [59] + [60 + i % 8 for i in range(1, length)]
    if length < n:
        with pytest.raises(SongTooShort):
            evaluate_song(song, SpanConfig(n=n))
    else:
        assert evaluate_song(song, SpanConfig(n=n)).lm == (expected + 1) / expected


def test_cmm_anchors():
    assert evaluate_song(CHROMATIC_13).cmm == 1.0
    assert evaluate_song(CONSTANT_12).cmm == 0.0
    # |diffs| of the 12-note melody: 2+2+1+3+2+0+0+2+2+1+3 = 18
    song = [60, 62, 64, 65, 62, 60, 60, 60, 62, 64, 65, 62]
    assert evaluate_song(song).cmm == pytest.approx(18 / 11, abs=0)


def test_cmm_rejects_short_songs():
    with pytest.raises(SongTooShort):
        evaluate_song([60] * 11)


def test_llm_band():
    # One-span songs: lm is that span's macroharmony score.
    span = [60, 61, 62, 63, 64, 65, 60, 61, 62, 63, 64, 65]  # 6 distinct
    assert evaluate_song(span).lm == 1.0
    assert evaluate_song(CONSTANT_12).lm == 5.0  # (5-1)+1
    span10 = [60, 61, 62, 63, 64, 65, 66, 67, 68, 69, 60, 61]  # 10 distinct
    assert evaluate_song(span10).lm == 3.0  # (10-8)+1


def test_llm_wants_exact_span():
    with pytest.raises(SongTooShort):
        evaluate_song([60] * 11)
    with pytest.raises(SongTooShort) as exc_info:
        dataset_stats([[60] * 13, [60] * 11])
    assert str(exc_info.value) == "song 1: metrics need at least 12 notes, got 11"


def test_one_note_span_needs_a_step():
    # CMM divides by the step count: one note has none.
    cfg = SpanConfig(n=1, lb=1, ub=1)
    with pytest.raises(SongTooShort) as exc_info:
        dataset_stats([[60, 62], [60]], cfg)
    assert str(exc_info.value) == "song 1: metrics need at least 2 notes, got 1"
    assert evaluate_song([60, 62], cfg) == MetricReport(2.0, 1.0, 1.0)


def test_lm_anchors():
    assert evaluate_song([60, 61, 62, 63, 64, 65, 60, 61, 62, 63, 64, 65]).lm == 1.0
    assert evaluate_song([60] * 13).lm == 5.0  # two all-constant windows
    assert evaluate_song(CHROMATIC_13).lm == 5.0  # every window has 12 distinct notes


def test_centricity_anchors():
    assert evaluate_song(CONSTANT_12).centr == 1.0
    assert evaluate_song(list(range(60, 72))).centr == pytest.approx(1 / 12)
    song = [60, 60, 60, 62, 64, 65, 62, 60, 60, 67, 69, 71]
    assert evaluate_song(song).centr == pytest.approx(5 / 12)


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
    assert evaluate_song(list(reversed(song))).cmm == pytest.approx(evaluate_song(song).cmm)


@given(scoreable_songs)
def test_llm_at_least_one(song):
    score = evaluate_song(song[:12]).lm
    assert score >= 1.0
    assert (score == 1.0) == (5 <= len(set(song[:12])) <= 8)


def test_span_config_validation():
    with pytest.raises(ValueError):
        SpanConfig(n=12, lb=9, ub=8)
    with pytest.raises(ValueError):
        SpanConfig(n=4, lb=5, ub=8)
    cfg = SpanConfig(n=6, lb=2, ub=3)
    assert evaluate_song([60, 61, 60, 61, 60, 61], cfg).lm == 1.0


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


@st.composite
def song_sets(draw):
    """A SpanConfig and 1-8 songs of mixed lengths over one pitch range.

    Lengths repeat often, and several songs of 200 notes over a wide range
    fill more than one chunk, so grouping and chunk boundaries are both hit.
    """
    n = draw(st.integers(1, 20))
    lb = draw(st.integers(1, n))
    cfg = SpanConfig(n=n, lb=lb, ub=draw(st.integers(lb, n)))
    low = draw(st.integers(0, 127))
    pitches = st.integers(low, draw(st.integers(low, 127)))
    lengths = st.sampled_from([max(n, 2), 200]) | st.integers(max(n, 2), 200)
    songs = draw(st.lists(lengths.flatmap(lambda k: st.lists(pitches, min_size=k, max_size=k)),
                          min_size=1, max_size=8))
    return cfg, songs


@given(song_sets(), st.data())
@settings(max_examples=80, deadline=None)
def test_dataset_stats_equals_span_loop(case, data):
    cfg, songs = case
    if data.draw(st.booleans()):  # put in some songs too short to score
        for _ in range(data.draw(st.integers(1, 3))):
            short = data.draw(st.lists(st.integers(0, 127), max_size=max(cfg.n, 2) - 1))
            songs.insert(data.draw(st.integers(0, len(songs))), short)
    try:
        want = oracles.brute_reports(songs, cfg.n, cfg.lb, cfg.ub)
    except oracles.Rejected as exc:
        with pytest.raises(SongTooShort) as exc_info:
            dataset_stats(songs, cfg)
        assert (type(exc_info.value).__name__, str(exc_info.value)) == (exc.kind, str(exc))
        return
    reports, _ = dataset_stats(songs, cfg)
    assert [(r.cmm, r.lm, r.centr) for r in reports] == want
    assert all(type(v) is float for r in reports for v in (r.cmm, r.lm, r.centr))


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
