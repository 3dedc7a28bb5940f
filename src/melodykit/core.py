"""Domain types and dataset transformations.

A song is a list of MIDI note numbers played as a monophonic quarter-note
stream.  Three dataset variants feed the trainer:

* control  - raw note tokens, songs concatenated as-is
* interval - signed semitone deltas, so transposed copies collapse to one
* db12     - every song plus eleven chromatic transpositions centred on
             middle C, so the model sees each melody in twelve keys

build_corpus works on arrays, not per note: each song's twelve db12 keys
are one (12, len) block, and one presence table over the token stream
gives both the vocabulary and the ids.  The corpus it returns is the same
whichever way it is computed.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import EmptyCorpus, MalformedFile, PitchOutOfRange, SongTooShort

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
    if min(song) < MIDI_MIN or max(song) > MIDI_MAX:
        for i, note in enumerate(song):
            if not (MIDI_MIN <= note <= MIDI_MAX):
                raise PitchOutOfRange(f"{what}[{i}] = {note} outside [{MIDI_MIN}, {MIDI_MAX}]")


def read_json(data: bytes, what: str):
    """The JSON value in data, decoded as strict UTF-8; MalformedFile naming `what` if there is none."""
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, an int past 4300 digits, deep nesting
        raise MalformedFile(f"{what}: invalid JSON ({exc})") from exc


def json_ints(values, what: str) -> np.ndarray:
    """A JSON list as a 1-D int64 array; MalformedFile naming `what` unless every item is an int within int64."""
    if isinstance(values, list) and set(map(type, values)) <= {int}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    raise MalformedFile(f"{what}: expected a list of int64 integers, not floats, strings, booleans, nulls or lists")


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


# Row `down` holds the twelve db12 shifts of a song that sends `down` copies
# down: 0, then -1..-down, then +1..+(11 - down).
_DB12_SHIFTS = np.array(
    [[0] + [-k for k in range(1, down + 1)] + list(range(1, 12 - down)) for down in range(12)],
    dtype=np.int64,
)


def song_to_db12(song: Song) -> np.ndarray:
    """The song plus eleven transpositions spread around middle C, as a (12, len) block.

    The melody's range midpoint decides how many of the eleven shifted
    copies go down versus up: the counts split the remaining budget after
    reserving the gap to middle C, and a melody already more than eleven
    semitones off-centre sends all eleven copies toward middle C.  Row
    order is the original, then down-shifts -1..-down, then up-shifts
    +1..+up, with up + down == 11 always.  A copy that leaves the MIDI
    range raises PitchOutOfRange naming its shift and its first bad note.
    """
    check_song(song)
    low, high = min(song), max(song)
    middle = (high - low) // 2 + low
    gap = CENTRAL_C - middle
    remaining = 11 - abs(gap)
    if remaining >= 0:
        up = math.ceil(remaining / 2)
        down = remaining - up
        if gap < 0:
            down += -gap
    else:
        down = 11 if gap <= 0 else 0
    shifts = _DB12_SHIFTS[down]
    block = np.asarray(song, dtype=np.int64) + shifts[:, None]
    if low - down < MIDI_MIN or high + (11 - down) > MIDI_MAX:
        bad = (block < MIDI_MIN) | (block > MIDI_MAX)
        row, i = divmod(int(bad.argmax()), len(song))
        raise PitchOutOfRange(
            f"shift {shifts[row]}: note[{i}] = {block[row, i]} outside [{MIDI_MIN}, {MIDI_MAX}]")
    return block


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


@dataclass(frozen=True)
class TrainingCorpus:
    """Next-token training pairs: y is x shifted left by one position."""

    x: np.ndarray
    y: np.ndarray
    vocabulary: Vocabulary
    variant: DatasetVariant


def _token_stream(songs: list[Song], variant: DatasetVariant) -> np.ndarray:
    """The variant's tokens of every song, concatenated, checking each song in order."""
    if variant is DatasetVariant.DB12:
        blocks = [song_to_db12(s).ravel() for s in songs]
        return np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)
    if variant not in (DatasetVariant.CONTROL, DatasetVariant.INTERVAL):
        raise ValueError(f"unknown variant {variant!r}")
    for song in songs:
        if variant is DatasetVariant.INTERVAL and len(song) < 2:
            raise SongTooShort(f"need at least 2 notes, got {len(song)}")
        check_song(song)
    lengths = np.array([len(s) for s in songs], dtype=np.int64)
    notes = np.fromiter(itertools.chain.from_iterable(songs), dtype=np.int64, count=int(lengths.sum()))
    if variant is DatasetVariant.CONTROL:
        return notes
    # Drop the step from each song's last note to the next song's first.
    return np.delete(np.diff(notes), np.cumsum(lengths)[:-1] - 1)


def build_corpus(songs: list[Song], variant: DatasetVariant) -> TrainingCorpus:
    """Transform songs, concatenate, and emit shift-by-one id pairs.

    Callers pass cleaned songs (every length >= 4); each song must pass
    check_song, and the interval variant needs two notes per song.  The
    first failing song's error propagates unchanged.
    """
    stream = _token_stream(songs, variant)
    if stream.size < 2:
        raise EmptyCorpus(f"token stream has {stream.size} tokens; need at least 2")
    # Every token is a pitch or a step between two pitches, so a presence
    # table over [min, max] lists the vocabulary in ascending order, and
    # its running count is each token's rank: no sort and no dict lookup.
    low = int(stream.min())
    offsets = stream - low
    present = np.zeros(int(stream.max()) - low + 1, dtype=bool)
    present[offsets] = True
    ids = (np.cumsum(present, dtype=np.int64) - 1)[offsets]
    vocab = Vocabulary(tokens=tuple((np.flatnonzero(present) + low).tolist()))
    return TrainingCorpus(x=ids[:-1], y=ids[1:], vocabulary=vocab, variant=variant)


def load_songs_jsonl(path: str | Path) -> list[Song]:
    """One song per line, each a JSON array of MIDI note numbers; a bad line is MalformedFile naming `path:lineno`."""
    songs: list[Song] = []
    for lineno, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
        if line.strip():
            what = f"{path}:{lineno}"
            song = json_ints(read_json(line, what), what).tolist()
            check_song(song, what=what)
            songs.append(song)
    return songs


def save_songs_jsonl(songs: list[Song], path: str | Path) -> None:
    """Write one song per line as a JSON array, replacing path whole."""
    write_atomic(path, "".join(json.dumps(song) + "\n" for song in songs).encode("utf-8"))


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
