"""Straight-line reference implementations the tests compare against.

Everything here is deliberately naive: plain Python loops over lists, no
numpy, and no imports from the package under test. Keeping these dumb and
separate is the point; if a clever implementation and a dumb one agree on
thousands of random inputs, both are probably right.
"""

import json
import math

SPAN = 12
LOWER = 5
UPPER = 8


def brute_intervals(song):
    out = []
    for i in range(1, len(song)):
        out.append(song[i] - song[i - 1])
    return out


def brute_span_count(length, n=SPAN):
    if length <= n:
        return 1
    return length - n + 1


def brute_cmm(song):
    total = 0
    for i in range(1, len(song)):
        diff = song[i] - song[i - 1]
        if diff < 0:
            diff = -diff
        total += diff
    return total / (len(song) - 1)


def brute_llm(span, lb=LOWER, ub=UPPER):
    distinct = []
    for note in span:
        if note not in distinct:
            distinct.append(note)
    d = len(distinct)
    if lb <= d <= ub:
        return 1.0
    if d < lb:
        return float((lb - d) + 1)
    return float((d - ub) + 1)


def brute_lm(song, n=SPAN, lb=LOWER, ub=UPPER):
    sq = brute_span_count(len(song), n)
    total = 0.0
    for j in range(sq):
        total += brute_llm(song[j:j + n], lb, ub)
    return total / sq


def brute_centr(song, n=SPAN):
    sq = brute_span_count(len(song), n)
    total = 0.0
    for j in range(sq):
        span = song[j:j + n]
        best = 0
        for note in span:
            count = 0
            for other in span:
                if other == note:
                    count += 1
            if count > best:
                best = count
        total += best / n
    return total / sq


def brute_reports(songs, n=SPAN, lb=LOWER, ub=UPPER):
    """Each song's (cmm, lm, centr), scored span by span in input order.

    Refuses the first song shorter than one span, or than the two notes
    CMM needs, by its index.
    """
    need = max(n, 2)
    for i, song in enumerate(songs):
        if len(song) < need:
            raise Rejected("SongTooShort", f"song {i}: metrics need at least {need} notes, got {len(song)}")
    return [(brute_cmm(s), brute_lm(s, n, lb, ub), brute_centr(s, n)) for s in songs]


def brute_mean_std(values):
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return mean, math.sqrt(var)


def brute_representative(triples, centroid):
    best_index = 0
    best_dist = None
    for i, triple in enumerate(triples):
        dist = math.sqrt(sum((a - b) ** 2 for a, b in zip(triple, centroid)))
        if best_dist is None or dist < best_dist:
            best_dist = dist
            best_index = i
    return best_index


# --- data path -------------------------------------------------------------
# The list-based dataset and MIDI code that the package's array form
# replaced, kept as the reference the property tests compare against. Two
# checks were added to both sides: every song's pitches lie in [0, 127] for
# every variant, and a channel event's data bytes lie below 0x80.

MIDI_MIN = 0
MIDI_MAX = 127
CENTRAL_C = 60


class Rejected(Exception):
    """The oracle refused its input; `kind` names the package error it stands for."""

    def __init__(self, kind, message):
        super().__init__(message)
        self.kind = kind


def brute_check_song(song, what="song"):
    if len(song) == 0:
        raise Rejected("SongTooShort", f"{what} is empty")
    for i, note in enumerate(song):
        if not (MIDI_MIN <= note <= MIDI_MAX):
            raise Rejected("PitchOutOfRange", f"{what}[{i}] = {note} outside [{MIDI_MIN}, {MIDI_MAX}]")


def brute_transpose(song, shift):
    moved = [n + shift for n in song]
    for i, note in enumerate(moved):
        if not (MIDI_MIN <= note <= MIDI_MAX):
            raise Rejected("PitchOutOfRange",
                           f"shift {shift}: note[{i}] = {note} outside [{MIDI_MIN}, {MIDI_MAX}]")
    return moved


def brute_db12(song):
    """The song, its down-shifts -1..-down, then its up-shifts +1..+up."""
    brute_check_song(song)
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
        out.append(brute_transpose(song, -(i + 1)))
    for i in range(up):
        out.append(brute_transpose(song, i + 1))
    return out


def brute_token_stream(songs, variant):
    stream = []
    for song in songs:
        if variant == "control":
            brute_check_song(song)
            stream.extend(song)
        elif variant == "interval":
            if len(song) < 2:
                raise Rejected("SongTooShort", f"need at least 2 notes, got {len(song)}")
            brute_check_song(song)
            stream.extend(brute_intervals(song))
        else:
            for copy in brute_db12(song):
                stream.extend(copy)
    return stream


def brute_corpus(songs, variant):
    """(vocabulary tokens, id stream): ids are ranks in ascending token order."""
    stream = brute_token_stream(songs, variant)
    if len(stream) < 2:
        raise Rejected("EmptyCorpus", f"token stream has {len(stream)} tokens; need at least 2")
    tokens = sorted(set(stream))
    rank = {token: i for i, token in enumerate(tokens)}
    return tokens, [rank[t] for t in stream]


def brute_corpus_files(variant, tokens, ids):
    """The texts of a corpus file and its vocabulary sidecar."""
    corpus = json.dumps({"variant": variant, "x": ids[:-1], "y": ids[1:]}, sort_keys=True) + "\n"
    sidecar = json.dumps({"variant": variant, "tokens": tokens}, sort_keys=True) + "\n"
    return corpus, sidecar


def _brute_vlq(data, pos):
    value = 0
    for _ in range(4):
        if pos >= len(data):
            raise Rejected("MalformedFile", "truncated variable-length quantity")
        byte = data[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos
    raise Rejected("MalformedFile", "variable-length quantity longer than 4 bytes")


class _Note:
    def __init__(self, start, pitch, track, order):
        self.start = start
        self.end = None
        self.pitch = pitch
        self.track = track
        self.order = order


def _brute_track(data, track_index):
    notes = []
    open_notes = {}
    pos = 0
    tick = 0
    running_status = None
    while pos < len(data):
        delta, pos = _brute_vlq(data, pos)
        tick += delta
        if pos >= len(data):
            raise Rejected("MalformedFile", f"track {track_index}: truncated event")
        status = data[pos]
        if status & 0x80:
            pos += 1
            running_status = status if status < 0xF0 else None
        else:
            if running_status is None:
                raise Rejected("MalformedFile", f"track {track_index}: data byte with no running status")
            status = running_status

        if status == 0xFF:
            if pos >= len(data):
                raise Rejected("MalformedFile", f"track {track_index}: truncated meta event")
            meta_type = data[pos]
            pos += 1
            length, pos = _brute_vlq(data, pos)
            if pos + length > len(data):
                raise Rejected("MalformedFile", f"track {track_index}: meta event overruns track")
            pos += length
            if meta_type == 0x2F:
                break
            continue
        if status in (0xF0, 0xF7):
            length, pos = _brute_vlq(data, pos)
            if pos + length > len(data):
                raise Rejected("MalformedFile", f"track {track_index}: sysex overruns track")
            pos += length
            continue
        if status > 0xF0:
            raise Rejected("MalformedFile",
                           f"track {track_index}: status byte {status:#x} is not allowed in a MIDI file")

        kind = status & 0xF0
        channel = status & 0x0F
        n_data = 1 if kind in (0xC0, 0xD0) else 2
        if pos + n_data > len(data):
            raise Rejected("MalformedFile", f"track {track_index}: truncated channel event")
        d1 = data[pos]
        d2 = data[pos + 1] if n_data == 2 else 0
        pos += n_data
        for byte in (d1, d2):
            if byte >= 0x80:
                raise Rejected("MalformedFile", f"track {track_index}: data byte {byte:#x} has its high bit set")

        if kind == 0x90 and d2 > 0:
            note = _Note(tick, d1, track_index, len(notes))
            open_notes.setdefault((channel, d1), []).append(note)
            notes.append(note)
        elif kind == 0x80 or (kind == 0x90 and d2 == 0):
            stack = open_notes.get((channel, d1))
            if stack:
                stack.pop(0).end = tick
    for note in notes:
        if note.end is None:
            note.end = tick
    return notes


def brute_parse_midi(data):
    """The note sequence of a format 0 or 1 file, one object per note."""
    if len(data) < 14 or data[0:4] != b"MThd":
        raise Rejected("MalformedFile", "missing MThd header")
    header_len = int.from_bytes(data[4:8], "big")
    if header_len < 6 or 8 + header_len > len(data):
        raise Rejected("MalformedFile", "bad MThd length")
    fmt = int.from_bytes(data[8:10], "big")
    ntracks = int.from_bytes(data[10:12], "big")
    if fmt not in (0, 1):
        raise Rejected("MalformedFile", f"unsupported format {fmt}; only 0 and 1")
    if fmt == 0 and ntracks != 1:
        raise Rejected("MalformedFile", f"format 0 must have exactly 1 track, declares {ntracks}")
    notes = []
    pos = 8 + header_len
    track_index = 0
    while track_index < ntracks:
        if pos + 8 > len(data):
            raise Rejected("MalformedFile", f"expected {ntracks} tracks, found {track_index}")
        chunk_len = int.from_bytes(data[pos + 4:pos + 8], "big")
        start = pos + 8
        if start + chunk_len > len(data):
            raise Rejected("MalformedFile", "chunk overruns file")
        if data[pos:pos + 4] == b"MTrk":
            notes.extend(_brute_track(data[start:start + chunk_len], track_index))
            track_index += 1
        pos = start + chunk_len
    notes.sort(key=lambda n: (n.start, n.end, n.track, n.order))
    latest_end = None
    for note in notes:
        if latest_end is not None and note.start < latest_end:
            raise Rejected("PolyphonyDetected",
                           f"note {note.pitch} at tick {note.start} overlaps a note ending at tick {latest_end}")
        if latest_end is None or note.end > latest_end:
            latest_end = note.end
    return [note.pitch for note in notes]
