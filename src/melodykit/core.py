"""Domain types and dataset transformations.

A song is a list of MIDI note numbers played as a monophonic quarter-note
stream.  Three dataset variants feed the trainer:

* control  - raw note tokens, songs concatenated as-is
* interval - signed semitone deltas, so transposed copies collapse to one
* db12     - every song plus eleven chromatic transpositions centred on
             middle C, so the model sees each melody in twelve keys
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import EmptyCorpus, PitchOutOfRange, SongTooShort

Song = list[int]
IntervalSequence = list[int]

MIDI_MIN = 0
MIDI_MAX = 127
CENTRAL_C = 60

# Songs of 3 or fewer notes carry no usable continuation structure.
MIN_KEPT_NOTES = 4


class DatasetVariant(str, Enum):
    CONTROL = "control"
    INTERVAL = "interval"
    DB12 = "db12"


def check_song(song: Song, what: str = "song") -> None:
    """Validate non-emptiness and MIDI range; raises on violation."""
    if len(song) == 0:
        raise SongTooShort(f"{what} is empty")
    for i, note in enumerate(song):
        if not (MIDI_MIN <= note <= MIDI_MAX):
            raise PitchOutOfRange(f"{what}[{i}] = {note} outside [{MIDI_MIN}, {MIDI_MAX}]")


def clean_corpus(songs: list[Song]) -> list[Song]:
    """Keep songs with more than 3 notes, preserving input order."""
    return [s for s in songs if len(s) >= MIN_KEPT_NOTES]


def song_to_interval(song: Song) -> IntervalSequence:
    """Signed semitone deltas between consecutive notes.

    A song of k notes yields k-1 intervals; transposed copies of the same
    melody map to the identical sequence.
    """
    if len(song) < 2:
        raise SongTooShort(f"need at least 2 notes, got {len(song)}")
    return [song[i + 1] - song[i] for i in range(len(song) - 1)]


def interval_to_song(start: int, intervals: IntervalSequence) -> Song:
    """Rebuild the note stream from a start pitch and deltas.

    Exact inverse of song_to_interval given the original first note.
    """
    if not (MIDI_MIN <= start <= MIDI_MAX):
        raise PitchOutOfRange(f"start note {start} outside [{MIDI_MIN}, {MIDI_MAX}]")
    song = [start]
    for i, step in enumerate(intervals):
        nxt = song[-1] + step
        if not (MIDI_MIN <= nxt <= MIDI_MAX):
            raise PitchOutOfRange(f"note {nxt} after interval {i} outside [{MIDI_MIN}, {MIDI_MAX}]")
        song.append(nxt)
    return song


def transpose(song: Song, shift: int) -> Song:
    """Shift every note by `shift` semitones; range-checked."""
    moved = [n + shift for n in song]
    for i, note in enumerate(moved):
        if not (MIDI_MIN <= note <= MIDI_MAX):
            raise PitchOutOfRange(f"shift {shift}: note[{i}] = {note} outside [{MIDI_MIN}, {MIDI_MAX}]")
    return moved


def song_to_db12(song: Song) -> list[Song]:
    """The song plus eleven transpositions spread around middle C.

    The melody's range midpoint decides how many of the eleven shifted
    copies go down versus up: the counts split the remaining budget after
    reserving the gap to middle C, and a melody already more than eleven
    semitones off-centre sends all eleven copies toward middle C.  Output
    order is the original, then down-shifts -1..-down, then up-shifts
    +1..+up, with up + down == 11 always.
    """
    check_song(song)
    middle = (max(song) - min(song)) // 2 + min(song)
    gap = CENTRAL_C - middle
    remaining = 11 - abs(gap)
    if remaining >= 0:
        up = math.ceil(remaining / 2)
        down = remaining - up
        if gap < 0:
            down += -gap
        else:
            up += gap
    else:
        down, up = (11, 0) if gap <= 0 else (0, 11)
    out = [list(song)]
    for i in range(down):
        out.append(transpose(song, -(i + 1)))
    for i in range(up):
        out.append(transpose(song, i + 1))
    return out


@dataclass(frozen=True)
class Vocabulary:
    """Bijective token <-> id map; ids are ranks in ascending token order."""

    tokens: tuple[int, ...]

    def __post_init__(self) -> None:
        for prev, token in zip(self.tokens, self.tokens[1:]):
            if token <= prev:
                raise ValueError(f"vocabulary tokens must be strictly ascending; {token} follows {prev}")

    @cached_property
    def _ids(self) -> dict[int, int]:
        return {token: i for i, token in enumerate(self.tokens)}

    @property
    def size(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: int) -> bool:
        return token in self._ids

    def encode(self, seq: list[int]) -> np.ndarray:
        return np.array([self._ids[t] for t in seq], dtype=np.int64)

    def decode(self, ids) -> list[int]:
        return [self.tokens[int(i)] for i in ids]


def build_vocabulary(token_streams: list[list[int]]) -> Vocabulary:
    """Distinct tokens across all streams, ascending."""
    seen: set[int] = set()
    for stream in token_streams:
        seen.update(stream)
    if not seen:
        raise EmptyCorpus("no tokens in corpus")
    return Vocabulary(tokens=tuple(sorted(seen)))


@dataclass(frozen=True)
class TrainingCorpus:
    """Next-token training pairs: y is x shifted left by one position."""

    x: np.ndarray
    y: np.ndarray
    vocabulary: Vocabulary
    variant: DatasetVariant


def token_stream(songs: list[Song], variant: DatasetVariant) -> list[int]:
    """Concatenated token stream for a variant; per-song transforms first."""
    stream: list[int] = []
    if variant is DatasetVariant.CONTROL:
        for s in songs:
            stream.extend(s)
    elif variant is DatasetVariant.INTERVAL:
        for s in songs:
            stream.extend(song_to_interval(s))
    elif variant is DatasetVariant.DB12:
        for s in songs:
            for copy in song_to_db12(s):
                stream.extend(copy)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return stream


def build_corpus(songs: list[Song], variant: DatasetVariant) -> TrainingCorpus:
    """Transform songs, concatenate, and emit shift-by-one id pairs.

    Callers pass cleaned songs (every length >= 4); transform errors
    propagate unchanged.
    """
    stream = token_stream(songs, variant)
    if len(stream) < 2:
        raise EmptyCorpus(f"token stream has {len(stream)} tokens; need at least 2")
    vocab = build_vocabulary([stream])
    ids = vocab.encode(stream)
    return TrainingCorpus(x=ids[:-1], y=ids[1:], vocabulary=vocab, variant=variant)


def load_songs_jsonl(path: str | Path) -> list[Song]:
    """Read one song per line, each a JSON array of MIDI note numbers."""
    songs: list[Song] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                notes = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(notes, list) or not all(
                isinstance(n, int) and not isinstance(n, bool) for n in notes
            ):
                raise ValueError(f"{path}:{lineno}: expected an array of integers")
            check_song(notes, what=f"{path}:{lineno}")
            songs.append(notes)
    return songs


def save_songs_jsonl(songs: list[Song], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for song in songs:
            fh.write(json.dumps(song) + "\n")


def write_atomic(path: str | Path, *chunks: bytes) -> None:
    """Write the chunks to a temporary sibling of path, then rename it over path.

    A failure midway leaves path as it was (absent, or with its old bytes)
    and removes the temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
