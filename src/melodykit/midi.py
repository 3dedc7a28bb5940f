"""Standard MIDI file reading and writing for monophonic quarter-note songs.

The parser accepts format 0 and 1 files, walks every track with running
status, and collects note-on events (velocity 0 counts as note-off).
Notes merge across tracks ordered by absolute tick, then track order.
Overlapping notes are a hard error: this package only models one voice.
So is a channel event's data byte with its high bit set, and a status
byte 0xF1-0xFE other than 0xF7, which a MIDI file may not hold.

The writer emits a fixed shape: format 0, one track, 480 ticks per
quarter note, a 120 BPM tempo event, then each note as a velocity-90
note-on lasting exactly 480 ticks.  parse_midi(write_midi(song)) == song.

Neither makes a Python object per note: the writer copies the pitches into
a repeated note template.  The reader first inverts that layout: it takes
the note-on pitch bytes from their fixed offsets, re-encodes them and
returns them if the result equals the file byte for byte.  Any other file
goes to the track walker, which keeps every note's start tick, end tick
and pitch in three flat lists and reads one-byte delta times inline.
"""

from __future__ import annotations

from collections import deque

from .core import Song, check_song
from .errors import MalformedFile, PolyphonyDetected

TICKS_PER_QUARTER = 480
TEMPO_USEC_PER_QUARTER = 500_000  # 120 BPM
NOTE_VELOCITY = 90


def _read_u16(data: bytes, pos: int) -> int:
    return int.from_bytes(data[pos : pos + 2], "big")


def _read_u32(data: bytes, pos: int) -> int:
    return int.from_bytes(data[pos : pos + 4], "big")


def _read_vlq(data: bytes, pos: int) -> tuple[int, int]:
    """Variable-length quantity: 7 bits per byte, high bit continues, max 4 bytes."""
    value = 0
    for i in range(4):
        if pos >= len(data):
            raise MalformedFile("truncated variable-length quantity")
        byte = data[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos
    raise MalformedFile("variable-length quantity longer than 4 bytes")


def _parse_track(
    data: bytes, track_index: int, starts: list[int], ends: list[int], pitches: list[int]
) -> None:
    """Walk one MTrk payload and append each note's start tick, end tick and pitch."""
    # (channel << 7 | pitch) -> indices of that key's sounding notes, oldest first; a note-off ends
    # the oldest in constant time, so the walk is linear in the track's length
    sounding: dict[int, deque[int]] = {}
    size = len(data)
    pos = 0
    tick = 0
    running_status: int | None = None
    while pos < size:
        delta = data[pos]
        if delta < 0x80:  # a one-byte delta time, the common case
            pos += 1
        else:
            delta, pos = _read_vlq(data, pos)
        tick += delta
        if pos >= size:
            raise MalformedFile(f"track {track_index}: truncated event")
        status = data[pos]
        if status & 0x80:
            pos += 1
            # meta and sysex cancel running status
            running_status = status if status < 0xF0 else None
        elif running_status is None:
            raise MalformedFile(f"track {track_index}: data byte with no running status")
        else:
            status = running_status

        if status >= 0xF0:
            if status == 0xFF:  # meta event
                if pos >= size:
                    raise MalformedFile(f"track {track_index}: truncated meta event")
                meta_type = data[pos]
                length, pos = _read_vlq(data, pos + 1)
                if pos + length > size:
                    raise MalformedFile(f"track {track_index}: meta event overruns track")
                pos += length
                if meta_type == 0x2F:  # end of track
                    break
                continue
            if status == 0xF0 or status == 0xF7:  # sysex
                length, pos = _read_vlq(data, pos)
                if pos + length > size:
                    raise MalformedFile(f"track {track_index}: sysex overruns track")
                pos += length
                continue
            raise MalformedFile(f"track {track_index}: status byte {status:#x} is not allowed in a MIDI file")

        kind = status & 0xF0
        n_data = 1 if kind == 0xC0 or kind == 0xD0 else 2
        if pos + n_data > size:
            raise MalformedFile(f"track {track_index}: truncated channel event")
        d1 = data[pos]
        d2 = data[pos + 1] if n_data == 2 else 0
        pos += n_data
        if (d1 | d2) & 0x80:
            bad = d1 if d1 & 0x80 else d2
            raise MalformedFile(f"track {track_index}: data byte {bad:#x} has its high bit set")

        if kind == 0x90 and d2:  # note on
            key = (status & 0x0F) << 7 | d1
            notes = sounding.get(key)
            if notes is None:
                sounding[key] = deque((len(pitches),))
            else:
                notes.append(len(pitches))
            starts.append(tick)
            ends.append(tick)
            pitches.append(d1)
        elif kind == 0x80 or kind == 0x90:  # note off
            notes = sounding.get((status & 0x0F) << 7 | d1)
            if notes:
                ends[notes.popleft()] = tick
        # other channel events carry no note information
    for notes in sounding.values():
        for i in notes:
            ends[i] = tick  # close dangling notes at the track's final tick


def parse_midi(data: bytes) -> Song:
    """Extract the monophonic note sequence from a format 0 or 1 file."""
    # A file in write_midi's layout is a 29-byte prefix, one 9-byte record
    # per note whose third byte is its pitch, and a 4-byte end of track:
    # 33 + 9k bytes, the k pitches at offsets 31, 40, ...
    pitches = data[31:-4:9]
    if len(data) == 33 + 9 * len(pitches) and pitches and pitches.isascii() and _encode(pitches) == data:
        return list(pitches)
    if len(data) < 14 or data[0:4] != b"MThd":
        raise MalformedFile("missing MThd header")
    header_len = _read_u32(data, 4)
    if header_len < 6 or 8 + header_len > len(data):
        raise MalformedFile("bad MThd length")
    fmt = _read_u16(data, 8)
    ntracks = _read_u16(data, 10)
    if fmt not in (0, 1):
        raise MalformedFile(f"unsupported format {fmt}; only 0 and 1")
    if fmt == 0 and ntracks != 1:
        raise MalformedFile(f"format 0 must have exactly 1 track, declares {ntracks}")

    starts: list[int] = []
    ends: list[int] = []
    pitches: list[int] = []
    pos = 8 + header_len
    track_index = 0
    while track_index < ntracks:
        if pos + 8 > len(data):
            raise MalformedFile(f"expected {ntracks} tracks, found {track_index}")
        chunk_id = data[pos : pos + 4]
        chunk_len = _read_u32(data, pos + 4)
        payload_start = pos + 8
        if payload_start + chunk_len > len(data):
            raise MalformedFile("chunk overruns file")
        if chunk_id == b"MTrk":
            _parse_track(data[payload_start : payload_start + chunk_len], track_index, starts, ends, pitches)
            track_index += 1
        # unknown chunk ids are skipped per the format
        pos = payload_start + chunk_len

    # Tracks are walked in order and ticks only grow within one, so a stable
    # sort by (start, end) orders the notes by (tick, end tick, track, order
    # in track): the zero-length notes at a tick come before a note that
    # sounds on from it, whatever the order of their note-ons.
    order = sorted(range(len(pitches)), key=lambda i: (starts[i], ends[i]))
    latest_end = None
    for i in order:
        if latest_end is not None and starts[i] < latest_end:
            raise PolyphonyDetected(
                f"note {pitches[i]} at tick {starts[i]} overlaps a note ending at tick {latest_end}"
            )
        if latest_end is None or ends[i] > latest_end:
            latest_end = ends[i]
    return [pitches[i] for i in order]


# Each note is the same nine bytes but for its pitch (offsets 2 and 7): a
# note-on at delta 0, then its note-off 480 ticks later (two-byte VLQ).
_NOTE = bytes([0x00, 0x90, 0, NOTE_VELOCITY,
               0x80 | TICKS_PER_QUARTER >> 7, TICKS_PER_QUARTER & 0x7F, 0x80, 0, 0x00])
_HEADER = (b"MThd" + (6).to_bytes(4, "big") + (0).to_bytes(2, "big") + (1).to_bytes(2, "big")
           + TICKS_PER_QUARTER.to_bytes(2, "big"))
_TEMPO = bytes([0x00, 0xFF, 0x51, 0x03]) + TEMPO_USEC_PER_QUARTER.to_bytes(3, "big")
_END_OF_TRACK = bytes([0x00, 0xFF, 0x2F, 0x00])


def write_midi(song: Song) -> bytes:
    """Serialise a song as format 0: 480-tick quarter notes at 120 BPM."""
    check_song(song)
    return _encode(bytes(song))


def _encode(pitches: bytes) -> bytes:
    """write_midi's bytes for pitches already known to lie in [0, 127]."""
    notes = bytearray(_NOTE * len(pitches))
    notes[2 :: len(_NOTE)] = pitches
    notes[7 :: len(_NOTE)] = pitches
    track_len = len(_TEMPO) + len(notes) + len(_END_OF_TRACK)
    return b"".join((_HEADER, b"MTrk", track_len.to_bytes(4, "big"), _TEMPO, notes, _END_OF_TRACK))
