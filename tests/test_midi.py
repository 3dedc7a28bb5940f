import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melodykit import midi
from melodykit.errors import MalformedFile, PolyphonyDetected
from melodykit.midi import parse_midi, write_midi

from . import oracles

songs = st.lists(st.integers(0, 127), min_size=1, max_size=50)


def header(fmt, ntracks, division=480):
    return (
        b"MThd" + (6).to_bytes(4, "big")
        + fmt.to_bytes(2, "big") + ntracks.to_bytes(2, "big")
        + division.to_bytes(2, "big")
    )


def track(body: bytes) -> bytes:
    return b"MTrk" + len(body).to_bytes(4, "big") + body


END = bytes([0x00, 0xFF, 0x2F, 0x00])


def on(pitch, vel=90, delta=0, status=True, channel=0):
    ev = bytes([delta]) if delta < 0x80 else None
    assert ev is not None, "use explicit VLQs for long deltas"
    return ev + (bytes([0x90 | channel]) if status else b"") + bytes([pitch, vel])


def off(pitch, delta=0x60, status=True, channel=0):
    return bytes([delta]) + (bytes([0x80 | channel]) if status else b"") + bytes([pitch, 0x40])


# The parser skips an unknown chunk, and a file that ends in one no longer
# has write_midi's layout, so parse_midi reads it with the track walker.
UNKNOWN_CHUNK = b"XFIH" + (0).to_bytes(4, "big")


def walk(data):
    return parse_midi(data + UNKNOWN_CHUNK)


def outcome(parse, data):
    try:
        return parse(data)
    except (MalformedFile, PolyphonyDetected) as exc:
        return type(exc).__name__, str(exc)


def refuse(*args, **kwargs):
    raise AssertionError("called")


# --- writer anatomy -------------------------------------------------------

def test_write_header_bytes():
    data = write_midi([60])
    assert data[:4] == b"MThd"
    assert int.from_bytes(data[4:8], "big") == 6
    assert int.from_bytes(data[8:10], "big") == 0       # format 0
    assert int.from_bytes(data[10:12], "big") == 1      # one track
    assert int.from_bytes(data[12:14], "big") == 480    # division


def test_write_tempo_meta_declares_120_bpm():
    data = write_midi([60])
    assert bytes([0x00, 0xFF, 0x51, 0x03, 0x07, 0xA1, 0x20]) in data  # 500000 us


def test_write_single_note_events():
    data = write_midi([60])
    body = data[14 + 8 :]
    # after the tempo meta: on at delta 0, off 480 ticks later, end of track
    assert bytes([0x00, 0x90, 60, 90]) in body
    assert bytes([0x83, 0x60, 0x80, 60, 0x00]) in body  # VLQ 480 = 0x83 0x60
    assert body.endswith(bytes([0x00, 0xFF, 0x2F, 0x00]))


def test_write_rejects_bad_songs():
    with pytest.raises(Exception):
        write_midi([])
    with pytest.raises(Exception):
        write_midi([200])


def test_roundtrip_examples():
    for song in ([60], [60, 62, 64, 62], [0, 127]):
        assert parse_midi(write_midi(song)) == song
        assert walk(write_midi(song)) == song


@given(songs)
@settings(max_examples=200)
def test_roundtrip_property(song):
    assert parse_midi(write_midi(song)) == song
    assert walk(write_midi(song)) == song
    # the undamaged files of the oracle comparison below
    for make in (running_status_tracks, multi_tracks):
        assert parse_midi(assemble(*make(song))) == song


# --- the writer's layout, read back by re-encoding -----------------------

def test_appended_chunk_is_read_by_the_walker(monkeypatch):
    data = write_midi([60, 62, 64])
    monkeypatch.setattr(midi, "_encode", refuse)
    assert walk(data) == [60, 62, 64]


def test_parse_does_not_call_write_midi(monkeypatch):
    # perfbench wraps midi.write_midi to count the bytes it writes, so the
    # reader must re-encode without going through that name.
    data = write_midi([60, 62, 64])
    monkeypatch.setattr(midi, "write_midi", refuse)
    assert parse_midi(data) == [60, 62, 64]


@st.composite
def writer_layouts(draw):
    """write_midi's layout for any pitch bytes, 0x80 and above too, maybe with one track byte changed."""
    data = bytearray(midi._encode(bytes(draw(st.lists(st.integers(0, 255), min_size=1, max_size=30)))))
    if draw(st.booleans()):
        data[draw(st.integers(22, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


@given(writer_layouts())
@settings(max_examples=300)
def test_writer_layout_reads_as_the_walker_reads_it(data):
    assert outcome(parse_midi, data) == outcome(walk, data)


@pytest.mark.parametrize("offsets", [(31 + 9,), (31 + 9, 36 + 9)], ids=["note-on", "note-on-and-off"])
def test_writer_layout_with_a_high_pitch_byte_is_refused_by_the_walker(offsets):
    # Setting the second note's note-on and note-off pitch bytes both gives
    # exactly the writer's layout around a pitch byte of 0xc8.
    data = bytearray(write_midi([60, 64, 64, 65]))
    for i in offsets:
        data[i] = 0xC8
    with pytest.raises(MalformedFile, match="^track 0: data byte 0xc8 has its high bit set$"):
        parse_midi(bytes(data))


@pytest.mark.parametrize("velocity, expected", [(100, [60, 62, 64]), (0, [60, 64])])
def test_writer_layout_with_another_velocity_is_read_by_the_walker(velocity, expected):
    # Velocity 0 makes the second note-on a note-off, so that note is gone.
    data = bytearray(write_midi([60, 62, 64]))
    data[32 + 9] = velocity
    assert parse_midi(bytes(data)) == walk(bytes(data)) == expected


# --- parser behaviors -----------------------------------------------------

def test_parse_plain_sequence():
    body = on(60) + off(60) + on(62) + off(62) + on(64) + off(64) + END
    assert parse_midi(header(0, 1) + track(body)) == [60, 62, 64]


def test_parse_velocity_zero_is_note_off():
    body = on(60) + bytes([0x60, 0x90, 60, 0]) + END  # on ... then vel-0 on
    assert parse_midi(header(0, 1) + track(body)) == [60]


def test_parse_running_status():
    # one 0x90 status byte, three on/off pairs riding on it
    body = (
        on(60)
        + bytes([0x60, 60, 0])        # off via running status, vel 0
        + bytes([0x00, 62, 90])       # on
        + bytes([0x60, 62, 0])
        + bytes([0x00, 64, 90])
        + bytes([0x60, 64, 0])
        + END
    )
    assert parse_midi(header(0, 1) + track(body)) == [60, 62, 64]


def test_meta_event_cancels_running_status():
    # a text meta between events; the next event has no status byte
    meta = bytes([0x00, 0xFF, 0x01, 0x02]) + b"hi"
    body = on(60) + off(60) + meta + bytes([0x00, 62, 90])
    with pytest.raises(MalformedFile):
        parse_midi(header(0, 1) + track(body + END))


def test_data_byte_with_no_status_at_start():
    body = bytes([0x00, 60, 90]) + END
    with pytest.raises(MalformedFile):
        parse_midi(header(0, 1) + track(body))


def test_unknown_meta_and_sysex_are_skipped():
    sysex = bytes([0x00, 0xF0, 0x03]) + b"\x01\x02\xf7"
    meta = bytes([0x00, 0xFF, 0x58, 0x04]) + b"\x04\x02\x18\x08"  # time signature
    body = meta + on(60) + sysex + off(60) + END
    assert parse_midi(header(0, 1) + track(body)) == [60]


def test_dangling_note_closed_at_track_end():
    body = on(60) + END  # no off event
    assert parse_midi(header(0, 1) + track(body)) == [60]


def test_format1_tracks_merge_by_start_tick():
    # track 0 holds notes at ticks 0 and 960, track 1 a note at tick 480
    t0 = on(60) + off(60) + bytes([0x83, 0x60, 0x90, 64, 90]) + off(64) + END
    t1 = bytes([0x83, 0x60, 0x90, 62, 90]) + off(62) + END
    data = header(1, 2) + track(t0) + track(t1)
    assert parse_midi(data) == [60, 62, 64]


def test_polyphony_within_a_track():
    body = on(60) + on(64) + off(60, delta=0x60) + off(64) + END  # chord
    with pytest.raises(PolyphonyDetected):
        parse_midi(header(0, 1) + track(body))


def test_note_off_ends_the_oldest_sounding_note():
    # two 60s sound from ticks 0 and 16; the off at 32 ends the first one
    body = on(60) + on(60, delta=0x10) + off(60, delta=0x10) + off(60) + END
    with pytest.raises(PolyphonyDetected, match="^note 60 at tick 16 overlaps a note ending at tick 32$"):
        parse_midi(header(0, 1) + track(body))


def test_zero_length_notes_at_one_tick_parse_as_a_sequence():
    # A note-on and its note-off at the same tick make a note that ends where it starts, so it overlaps
    # no note that starts there after it: any number of them at one tick parse as a sequence, in the
    # order of their note-ons, whether each ends before the next starts or all end after all start.
    one_by_one = on(60) + off(60, delta=0) + on(62) + off(62, delta=0) + on(60) + off(60, delta=0) + END
    assert parse_midi(header(0, 1) + track(one_by_one)) == [60, 62, 60]
    stacked = on(60) + on(62) + on(60) + off(60, delta=0) + off(62, delta=0) + off(60, delta=0) + END
    assert parse_midi(header(0, 1) + track(stacked)) == [60, 62, 60]
    assert parse_midi(header(0, 1) + track(stacked[:-len(END)] + on(64, delta=0x10) + off(64) + END)) == [
        60, 62, 60, 64]


@pytest.mark.parametrize("sounding_first", [True, False], ids=["sounding-note-on-first", "zero-length-note-on-first"])
def test_zero_length_notes_come_before_a_note_sounding_from_their_tick(sounding_first):
    # Note 60 sounds over [0, 96) and note 62 is zero-length at tick 0.  62 ends where 60 starts, so both
    # orders of their note-ons parse as [62, 60]; with 60's note-on first, 62 once overlapped it.
    sounding, zero_length = on(60), on(62) + off(62, delta=0)
    body = sounding + zero_length if sounding_first else zero_length + sounding
    assert parse_midi(header(0, 1) + track(body + off(60) + END)) == [62, 60]


def stacked_note_ons(count):
    """A track of `count` note-ons of pitch 60 at tick 0, then as many note-offs, all by running status."""
    body = bytes([0x00, 0x90, 60, 90]) + bytes([0x00, 60, 90]) * (count - 1) + bytes([0x00, 60, 0]) * count
    return header(0, 1) + track(body + END)


def test_track_walker_is_linear_in_stacked_note_ons():
    # Each note-off ends the oldest sounding note of its key.  Taking it from the front of a list took
    # time linear in how many sound, so N stacked note-ons parsed in time quadratic in N (0.25 s at
    # 40k, 2.7 s at 160k).  Wall time is noisy on a shared machine, so the test bounds the ratio of
    # two sizes' times, each the best of three parses: 8 for a linear walker, about 30 for the list.
    small, large = 10_000, 80_000

    def best(data):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            song = parse_midi(data)
            times.append(time.perf_counter() - start)
        return song, min(times)

    (small_song, small_s), (large_song, large_s) = best(stacked_note_ons(small)), best(stacked_note_ons(large))
    assert small_song == [60] * small and large_song == [60] * large
    assert large_s / small_s < 2 * large / small, f"{small} notes in {small_s:.3f} s, {large} in {large_s:.3f} s"


def test_polyphony_across_tracks():
    t0 = on(60) + off(60) + END           # note spans ticks [0, 96]
    t1 = bytes([0x10, 0x90, 62, 90]) + off(62) + END  # starts at tick 16
    with pytest.raises(PolyphonyDetected):
        parse_midi(header(1, 2) + track(t0) + track(t1))


def test_unknown_chunks_are_skipped():
    extra = b"XFIH" + (4).to_bytes(4, "big") + b"\x00\x01\x02\x03"
    body = on(60) + off(60) + END
    assert parse_midi(header(0, 1) + extra + track(body)) == [60]
    assert parse_midi(header(0, 1) + track(body) + extra) == [60]


# --- malformed inputs -----------------------------------------------------

@pytest.mark.parametrize(
    "data",
    [
        b"",
        b"MThe" + bytes(12),
        header(2, 1) + track(END),                 # format 2 unsupported
        header(0, 2) + track(END) + track(END),    # format 0 with 2 tracks
        header(0, 1),                              # declared track missing
        header(0, 1) + track(on(60) + off(60) + END)[:-3],  # chunk overrun
        header(0, 1) + track(bytes([0x00, 0x90, 60])),      # truncated event
        header(0, 1) + track(bytes([0x00, 0xFF, 0x51])),    # truncated meta
    ],
)
def test_malformed_files_rejected(data):
    with pytest.raises(MalformedFile):
        parse_midi(data)


def test_vlq_longer_than_four_bytes_rejected():
    body = bytes([0x81, 0x81, 0x81, 0x81, 0x01]) + bytes([0x90, 60, 90]) + END
    with pytest.raises(MalformedFile):
        parse_midi(header(0, 1) + track(body))


def test_truncated_vlq_rejected():
    with pytest.raises(MalformedFile):
        parse_midi(header(0, 1) + track(bytes([0x81])))


@given(songs)
@settings(max_examples=50)
def test_parse_pitches_in_range(song):
    assert all(0 <= p <= 127 for p in parse_midi(write_midi(song)))


@pytest.mark.parametrize(
    "event",
    [
        bytes([0x00, 0x90, 200, 90]),     # note-on pitch
        bytes([0x00, 0x90, 64, 200]),     # note-on velocity
        bytes([0x00, 0x80, 200, 0x40]),   # note-off pitch
        bytes([0x00, 64, 0x80]),          # running status, second data byte
        bytes([0x00, 0xC0, 0x85]),        # program change, one data byte
    ],
)
def test_data_byte_with_high_bit_rejected(event):
    # A data byte of 0x80 or more used to be read as a pitch: [60, 200, 64, 65].
    body = on(60) + off(60) + event + on(64) + off(64) + on(65) + off(65) + END
    with pytest.raises(MalformedFile, match=r"^track 0: data byte 0x[89a-f][0-9a-f] has its high bit set$"):
        parse_midi(header(0, 1) + track(body))


@pytest.mark.parametrize("status", [0xF1, 0xF8, 0xFE])
def test_reserved_status_byte_rejected(status):
    # A MIDI file may hold no system status but 0xF0, 0xF7 and 0xFF.  0xF8
    # used to be read as an event with two data bytes, so this track parsed
    # to its four notes.
    notes = on(60) + off(60) + on(62) + off(62) + on(64) + off(64) + on(65) + off(65)
    body = bytes([0x00, status, 0x3C, 0x5A]) + notes + END
    for parse in (parse_midi, oracles.brute_parse_midi):
        with pytest.raises((MalformedFile, oracles.Rejected),
                           match=rf"^track 0: status byte {status:#x} is not allowed in a MIDI file$"):
            parse(header(0, 1) + track(body))


# --- against the object-per-note parser ----------------------------------

def written_tracks(song):
    data = write_midi(song)
    return 0, [data[22:]]


def running_status_tracks(song):
    """One note-on status byte, then every event on running status (velocity 0 ends a note)."""
    body = bytes([0x00, 0x90, song[0], 90])
    for i, pitch in enumerate(song):
        if i:
            body += bytes([0x00, pitch, 90])
        body += bytes([0x83, 0x60, pitch, 0])
    return 0, [body + END]


def multi_tracks(song):
    """Format 1: a tempo track, then the song's notes dealt to two tracks by turn."""
    bodies = [bytes([0x00, 0xFF, 0x51, 0x03, 0x07, 0xA1, 0x20]) + END]
    for parity in (0, 1):
        body, last = b"", 0
        for i in range(parity, len(song), 2):
            delta = 0x60 * i - last  # a two-byte VLQ, even when it is 0
            body += bytes([0x80 | delta >> 7, delta & 0x7F, 0x90, song[i], 90])
            body += bytes([0x60, 0x80, song[i], 0x40])
            last = 0x60 * (i + 1)
        bodies.append(body + END)
    return 1, bodies


def assemble(fmt, bodies):
    return header(fmt, len(bodies)) + b"".join(track(b) for b in bodies)


@st.composite
def damaged(draw, data):
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(data)))
        how = draw(st.sampled_from(["flip", "flip", "cut", "insert"]))
        if how == "flip" and pos < len(data):
            data[pos] ^= draw(st.integers(1, 255))
        elif how == "cut":
            del data[pos:]
        elif how == "insert":
            data[pos:pos] = draw(st.binary(min_size=1, max_size=3))
    return bytes(data)


@st.composite
def damaged_files(draw):
    """A file damaged anywhere, or one of its tracks damaged inside a chunk of the right length."""
    song = draw(st.lists(st.integers(0, 127), min_size=1, max_size=8))
    fmt, bodies = draw(st.sampled_from([written_tracks, running_status_tracks, multi_tracks]))(song)
    if draw(st.booleans()):
        return draw(damaged(assemble(fmt, bodies)))
    i = draw(st.integers(0, len(bodies) - 1))
    bodies[i] = draw(damaged(bodies[i]))
    return assemble(fmt, bodies)


@given(damaged_files())
@settings(max_examples=300, deadline=None)
def test_parse_matches_the_object_per_note_parser(data):
    try:
        expected = oracles.brute_parse_midi(data)
    except oracles.Rejected as rejected:
        with pytest.raises((MalformedFile, PolyphonyDetected)) as got:
            parse_midi(data)
        assert (type(got.value).__name__, str(got.value)) == (rejected.kind, str(rejected))
        return
    assert parse_midi(data) == expected
