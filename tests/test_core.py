import os
import stat
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melodykit.cli import _write_corpus
from melodykit.core import (
    DatasetVariant,
    Vocabulary,
    build_corpus,
    check_song,
    clean_corpus,
    interval_to_song,
    load_songs_jsonl,
    save_songs_jsonl,
    song_to_db12,
    song_to_interval,
    write_atomic,
)
from melodykit.errors import EmptyCorpus, MalformedFile, PitchOutOfRange, SongTooShort

from . import oracles
from .oracles import brute_intervals

# range-safe for db12: 11 semitones of headroom both ways
safe_songs = st.lists(st.integers(11, 116), min_size=1, max_size=40)
valid_songs = st.lists(st.integers(0, 127), min_size=2, max_size=60)


def test_clean_corpus_threshold():
    assert clean_corpus([[60, 62, 64, 65], [60, 62], [60, 61, 62, 63, 64]]) == [
        [60, 62, 64, 65],
        [60, 61, 62, 63, 64],
    ]
    assert clean_corpus([]) == []
    assert clean_corpus([[60, 62, 64]]) == []  # length 3 is still too short


def test_interval_worked_example():
    assert song_to_interval([60, 62, 64, 65, 62, 60, 60]) == [2, 2, 1, -3, -2, 0]
    # the transposed twin shares the series
    assert song_to_interval([67, 69, 71, 72, 69, 67, 67]) == [2, 2, 1, -3, -2, 0]
    assert song_to_interval([60, 60, 60]) == [0, 0]


def test_interval_needs_two_notes():
    with pytest.raises(SongTooShort):
        song_to_interval([60])


def test_interval_to_song_inverse():
    assert interval_to_song(60, [2, 2, 1, -3, -2, 0]) == [60, 62, 64, 65, 62, 60, 60]
    assert interval_to_song(60, []) == [60]


def test_interval_to_song_range_errors():
    with pytest.raises(PitchOutOfRange):
        interval_to_song(1, [-2])
    with pytest.raises(PitchOutOfRange):
        interval_to_song(128, [])
    with pytest.raises(PitchOutOfRange):
        interval_to_song(120, [5, 5])


@given(valid_songs)
def test_interval_roundtrip(song):
    assert interval_to_song(song[0], song_to_interval(song)) == song


@given(valid_songs)
def test_interval_matches_oracle(song):
    assert song_to_interval(song) == brute_intervals(song)


def test_db12_names_the_shift_that_leaves_the_range():
    # midpoint 61: 6 copies down, 5 up; the last row is the +5 copy
    assert song_to_db12([60, 62])[11].tolist() == [65, 67]
    # midpoint 63: 7 copies down, 4 up; the -1 copy is the first to leave
    with pytest.raises(PitchOutOfRange, match=r"^shift -1: note\[0\] = -1 outside \[0, 127\]$"):
        song_to_db12([0, 127])
    # midpoint 69: 10 copies down, 1 up, which takes 127 to 128
    with pytest.raises(PitchOutOfRange, match=r"^shift 1: note\[1\] = 128 outside"):
        song_to_db12([12, 127])


def test_check_song_rejects():
    with pytest.raises(SongTooShort):
        check_song([])
    with pytest.raises(PitchOutOfRange):
        check_song([60, 200])


def db12_shifts(song, outputs):
    return [out[0] - song[0] for out in outputs]


def db12_rows(song):
    block = song_to_db12(song)
    assert block.shape == (12, len(song)) and block.dtype == np.int64
    return block.tolist()


def test_db12_hand_anchor_centred():
    # midpoint 62, two below middle C: budget 9 splits 5 up / 4 down,
    # then the gap moves 2 more down
    outs = db12_rows([60, 62, 64])
    assert len(outs) == 12
    assert outs[0] == [60, 62, 64]
    shifts = db12_shifts([60, 62, 64], outs)
    assert shifts == [0, -1, -2, -3, -4, -5, -6, 1, 2, 3, 4, 5]


def test_db12_hand_anchor_single_note():
    outs = db12_rows([60])
    shifts = db12_shifts([60], outs)
    assert shifts == [0, -1, -2, -3, -4, -5, 1, 2, 3, 4, 5, 6]


def test_db12_far_off_centre():
    # midpoint 100 is 40 above middle C: every copy moves down
    outs = db12_rows([95, 100, 105])
    shifts = db12_shifts([95, 100, 105], outs)
    assert shifts == [0] + [-k for k in range(1, 12)]
    outs = db12_rows([15, 20])
    shifts = db12_shifts([15, 20], outs)
    assert shifts == [0] + list(range(1, 12))


@given(safe_songs)
@settings(max_examples=300)
def test_db12_cardinality_and_invariance(song):
    outs = db12_rows(song)
    assert len(outs) == 12
    assert outs[0] == song
    shifts = db12_shifts(song, outs)
    up, down = max(shifts), -min(shifts)
    assert up + down == 11
    assert sorted(shifts) == list(range(-down, up + 1))
    if len(song) >= 2:
        base = brute_intervals(song)
        for out in outs:
            assert brute_intervals(out) == base


def test_vocabulary_examples():
    assert build_corpus([[60, 62, 60, 62]], DatasetVariant.CONTROL).vocabulary.size == 2
    assert build_corpus([[0], [127]], DatasetVariant.CONTROL).vocabulary.tokens == (0, 127)
    c = build_corpus([[3, 0, 0, 2, 4]], DatasetVariant.INTERVAL)  # steps -3, 0, 2, 2
    assert c.vocabulary.tokens == (-3, 0, 2)
    assert c.x.tolist() == [0, 1, 2] and c.y.tolist() == [1, 2, 2]


def test_vocabulary_roundtrip_and_lookup():
    v = Vocabulary(tokens=(-3, 0, 2))
    assert v.encode([-3, 0, 2]).tolist() == [0, 1, 2]
    assert v.decode(v.encode([2, -3, 0])) == [2, -3, 0]
    assert 0 in v and 1 not in v
    with pytest.raises(KeyError):
        v.encode([1])


@pytest.mark.parametrize("tokens", [(2, 0, -3), (-3, 0, 0, 2)])
def test_vocabulary_rejects_unordered_tokens(tokens):
    # Ids are ranks in ascending order, so only a strictly ascending tuple
    # maps each id back to its token.
    with pytest.raises(ValueError, match="strictly ascending"):
        Vocabulary(tokens=tokens)


@pytest.mark.parametrize(
    "songs, variant",
    [([], DatasetVariant.CONTROL), ([[60]], DatasetVariant.CONTROL), ([[60, 62]], DatasetVariant.INTERVAL)],
    ids=["no-songs", "one-note", "one-step"],
)
def test_build_corpus_needs_two_tokens(songs, variant):
    with pytest.raises(EmptyCorpus, match="need at least 2"):
        build_corpus(songs, variant)


@pytest.mark.parametrize("variant", list(DatasetVariant))
def test_build_corpus_checks_every_song(variant):
    with pytest.raises(PitchOutOfRange, match=r"^song\[2\] = 200 outside"):
        build_corpus([[60, 62, 64, 65], [60, 62, 200, 64]], variant)


def test_build_corpus_control():
    c = build_corpus([[60, 62, 64, 65]], DatasetVariant.CONTROL)
    vocab = c.vocabulary
    assert vocab.decode(c.x) == [60, 62, 64]
    assert vocab.decode(c.y) == [62, 64, 65]
    assert c.x.dtype == np.int64


def test_build_corpus_interval():
    c = build_corpus([[60, 62, 64, 65]], DatasetVariant.INTERVAL)
    assert c.vocabulary.decode(c.x) == [2, 2]
    assert c.vocabulary.decode(c.y) == [2, 1]


def test_build_corpus_db12_length():
    song = [60, 62, 64, 65]
    c = build_corpus([song], DatasetVariant.DB12)
    assert c.x.size == 12 * len(song) - 1


def corpus_tokens(corpus):
    return corpus.vocabulary.decode(corpus.x) + corpus.vocabulary.decode(corpus.y[-1:])


def test_build_corpus_token_streams():
    songs = [[60, 62, 64, 65], [70, 71, 72, 73]]
    assert corpus_tokens(build_corpus(songs, DatasetVariant.CONTROL)) == [60, 62, 64, 65, 70, 71, 72, 73]
    # no step from the first song's last note to the second's first
    assert corpus_tokens(build_corpus(songs, DatasetVariant.INTERVAL)) == [2, 2, 1, 1, 1, 1]
    db12 = corpus_tokens(build_corpus(songs, DatasetVariant.DB12))
    assert db12 == [n for s in songs for row in song_to_db12(s).tolist() for n in row]
    assert len(db12) == 12 * 8


@st.composite
def song_sets(draw):
    """A few songs of 0..127; lengths 1 and 2 and wide ranges are common, and
    now and then one pitch lies outside [0, 127]."""
    songs = draw(st.lists(st.lists(st.integers(0, 127), min_size=1, max_size=12), max_size=5))
    if songs and draw(st.integers(0, 7)) == 0:
        song = draw(st.sampled_from(songs))
        song[draw(st.integers(0, len(song) - 1))] = draw(st.sampled_from([-1, 128]))
    return songs


@given(song_sets(), st.sampled_from(list(DatasetVariant)))
@settings(max_examples=150, deadline=None)
def test_build_corpus_and_corpus_text_match_the_oracle(songs, variant):
    try:
        tokens, ids = oracles.brute_corpus(songs, variant.value)
    except oracles.Rejected as expected:
        with pytest.raises((SongTooShort, PitchOutOfRange, EmptyCorpus)) as got:
            build_corpus(songs, variant)
        assert (type(got.value).__name__, str(got.value)) == (expected.kind, str(expected))
        return
    corpus = build_corpus(songs, variant)
    assert corpus.vocabulary.tokens == tuple(tokens)
    assert corpus.x.dtype == corpus.y.dtype == np.int64
    assert corpus.x.tolist() == ids[:-1] and corpus.y.tolist() == ids[1:]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "corpus.json"
        sidecar = _write_corpus(corpus, out)
        expected = oracles.brute_corpus_files(variant.value, tokens, ids)
        assert (out.read_bytes(), sidecar.read_bytes()) == tuple(t.encode() for t in expected)
        assert sorted(p.name for p in Path(tmp).iterdir()) == ["corpus.json", "corpus.vocab.json"]


def test_build_corpus_y_is_x_shifted():
    c = build_corpus([[60, 62, 64, 65, 67]], DatasetVariant.CONTROL)
    np.testing.assert_array_equal(c.x[1:], c.y[:-1])


def test_write_atomic_calls_on_one_path_do_not_share_a_temporary_file(tmp_path, monkeypatch):
    # A second call on the same path runs to completion while the first
    # waits to rename: both must return, and the target must hold one
    # call's bytes whole, the last rename's.
    target = tmp_path / "out.bin"
    renamed = []
    real_replace = os.replace

    def replace(src, dst):
        renamed.append(Path(src).name)
        if len(renamed) == 1:
            write_atomic(target, b"B" * 3000)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    write_atomic(target, b"A" * 5000, b"a")
    monkeypatch.undo()
    assert target.read_bytes() == b"A" * 5000 + b"a"
    assert len(set(renamed)) == 2 and all(n.startswith(".out.bin.") and n.endswith(".tmp") for n in renamed)
    assert sorted(tmp_path.iterdir()) == [target]
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask  # what open() gives, not mkstemp's 0o600


def test_songs_jsonl_roundtrip(tmp_path):
    songs = [[60, 62, 64], [11, 116]]
    path = tmp_path / "songs.jsonl"
    save_songs_jsonl(songs, path)
    assert load_songs_jsonl(path) == songs


@pytest.mark.parametrize(
    "line",
    ['{"not": "a list"}', "[60, 61.5]", "[60, true]", "not json", '[60, "x"]',
     pytest.param("[" * 200_000, id="deep-nesting")],
)
def test_songs_jsonl_rejects_bad_lines(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_text("[60, 62]\n" + line + "\n")
    with pytest.raises(MalformedFile) as exc_info:
        load_songs_jsonl(path)
    assert ":2:" in str(exc_info.value)  # offending line is named
