"""The CLI's error contract on damaged inputs and extreme flags (hypothesis).

Each example copies one valid set of inputs (a control corpus and its
vocabulary sidecar, a checkpoint trained on it, a songs JSONL file) into a
fresh directory, damages one JSON value in one of them, the checkpoint's
blob or the bytes of MIDI files, or picks extreme numeric flags, and calls
`cli.main` in process.  Every case must end as exit 0 with the command's
output written, or as exit 1 with exactly one JSON line on stderr.  Either way no exception may escape `main`, no
warning may be issued and no `.*.tmp` file may be left.
"""

import contextlib
import hashlib
import json
import shutil
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melodykit.core import load_songs_jsonl
from melodykit.midi import write_midi

from .conftest import run_cli
from .test_cli import SMALL_TRAIN, make_train_songs
from .test_midi import damaged as damaged_bytes

TRAIN = SMALL_TRAIN + ["--max-iterations", "2"]

# Stands for the damaged value until the JSON text is dumped.
SENTINEL = "@damaged@"

ODD_VALUES = st.one_of(
    st.booleans(), st.none(), st.floats(), st.integers(-2**70, 2**70), st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
# Deep nesting, an integer past Python's digit limit, bytes that are not UTF-8, or an odd value.
PAYLOADS = st.one_of(
    st.just(b"[" * 200_000), st.just(b"9" * 5000), st.sampled_from([b'"\xff"', b'"\xed\xa0\x80"', b"\x80"]),
    ODD_VALUES.map(lambda v: json.dumps(v).encode()),
)
# Only sizes that are valid and tiny or fail at once: never one that allocates or loops for long.
SIZES = st.sampled_from([-1, 0, 1, 2, 10**20, 2**63, 2**64])


@st.composite
def damaged(draw, text: str) -> bytes:
    """The JSON value in text with one part, or the whole, replaced by a payload; or text as UTF-16."""
    if draw(st.integers(0, 9)) == 0:
        return text.encode("utf-16")

    def replace(value):
        if isinstance(value, dict) and value and draw(st.integers(0, 3)):
            key = draw(st.sampled_from(sorted(value)))
            return {**value, key: replace(value[key])}
        if isinstance(value, list) and value and draw(st.integers(0, 3)):
            i = draw(st.integers(0, len(value) - 1))
            return value[:i] + [replace(value[i])] + value[i + 1:]
        return SENTINEL

    dumped = json.dumps(replace(json.loads(text)), sort_keys=True).encode()
    return dumped.replace(json.dumps(SENTINEL).encode(), draw(PAYLOADS))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    base = tmp_path_factory.mktemp("inputs")
    make_train_songs(base / "songs.jsonl")
    for argv in (["dataset", "--songs", base / "songs.jsonl", "--out", base / "corpus.json"],
                 ["train", "--corpus", base / "corpus.json", "--checkpoint", base / "model.ckpt"] + TRAIN):
        code, _, err = run_cli(argv)
        assert code == 0, err
    return base


def assert_contract(argv: list, work: Path, output: str) -> str | None:
    """Run argv and check the contract; returns the error's name, or None on exit 0."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(argv)
    assert [str(w.message) for w in caught] == []
    assert sorted(work.rglob(".*.tmp")) == []
    if code == 0:
        assert (work / output).is_file()
        return None
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1, err
    error = json.loads(lines[0])
    assert set(error) == {"error", "message"}
    return error["error"]


def command(target: str, work: Path) -> tuple[list, str]:
    """The argv that reads the target file, and the output an exit 0 must leave."""
    if target in ("corpus.json", "corpus.vocab.json"):
        return ["train", "--corpus", work / "corpus.json", "--checkpoint", work / "out.ckpt"] + TRAIN, "out.ckpt"
    if target == "model.ckpt":
        return ["sample", "--checkpoint", work / "model.ckpt", "--out-dir", work / "gen",
                "--count", "2", "--notes", "3"], "gen/songs.jsonl"
    return ["eval", "--songs", work / "songs.jsonl", "--out-dir", work / "ev"], "ev/stats.json"


@pytest.mark.parametrize("target", ["corpus.json", "corpus.vocab.json", "model.ckpt", "songs.jsonl"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_damaged_json_input_keeps_the_error_contract(inputs, target, data):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in ("corpus.json", "corpus.vocab.json", "model.ckpt", "songs.jsonl"):
            shutil.copyfile(inputs / name, work / name)
        raw = (inputs / target).read_bytes()
        if target == "model.ckpt":  # the JSON header line; the blob stays
            head, blob = raw.split(b"\n", 1)
            raw = data.draw(damaged(head.decode())) + b"\n" + blob
        elif target == "songs.jsonl":
            lines = raw.splitlines()
            i = data.draw(st.integers(0, len(lines) - 1))
            lines[i] = data.draw(damaged(lines[i].decode()))
            raw = b"\n".join(lines) + b"\n"
        else:
            raw = data.draw(damaged(raw.decode()))
        (work / target).write_bytes(raw)
        argv, output = command(target, work)
        assert_contract(argv, work, output)


# Values a re-signed blob may hold: not finite, past any safe range, subnormal or zero.
BLOB_VALUES = st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e300, -1e300, 5e-324, 0.0])


@settings(max_examples=25, deadline=None)
@given(data=st.data(), cmd=st.sampled_from(["sample", "eval"]), resign=st.booleans())
def test_damaged_checkpoint_blob_keeps_the_error_contract(inputs, data, cmd, resign):
    head, blob = (inputs / "model.ckpt").read_bytes().split(b"\n", 1)
    if resign:
        # The checksum matches, so only the values themselves can be refused.
        flat = np.frombuffer(blob, dtype="<f8").copy()
        for i in data.draw(st.lists(st.integers(0, flat.size - 1), min_size=1, max_size=4)):
            flat[i] = data.draw(BLOB_VALUES)
        damaged_blob = flat.tobytes()
        header = json.loads(head)
        header["blob_sha256"] = hashlib.sha256(damaged_blob).hexdigest()
        head = json.dumps(header, sort_keys=True).encode()
    else:
        # Cut, extended or both, and not re-signed.
        damaged_blob = blob[: data.draw(st.integers(0, len(blob)))] + data.draw(st.binary(max_size=16))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "model.ckpt").write_bytes(head + b"\n" + damaged_blob)
        argv = [cmd, "--checkpoint", work / "model.ckpt", "--out-dir", work / "gen", "--count", "2", "--notes", "12"]
        error = assert_contract(argv, work, "gen/songs.jsonl")
    refused = not np.isfinite(flat).all() if resign else damaged_blob != blob
    if refused:
        assert error == "MalformedFile"


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_damaged_midi_files_keep_the_error_contract(inputs, data):
    songs = load_songs_jsonl(inputs / "songs.jsonl")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "midi").mkdir()
        hit = data.draw(st.integers(0, len(songs) - 1))
        for i, song in enumerate(songs):
            raw = write_midi(song)
            if i == hit or data.draw(st.booleans()):
                raw = data.draw(damaged_bytes(raw))
            (work / "midi" / f"song_{i}.mid").write_bytes(raw)
        argv = ["dataset", "--midi-dir", work / "midi", "--out", work / "corpus.json"]
        assert_contract(argv, work, "corpus.json")


@settings(max_examples=25, deadline=None)
@given(cmd=st.sampled_from(["sample", "eval"]), mode=st.sampled_from(["greedy", "temperature"]),
       count=SIZES, notes=SIZES)
def test_sampling_sizes_keep_the_error_contract(inputs, cmd, mode, count, notes):
    # A count past 2 must fail before any lane's generator is made; refusing
    # them keeps a size check that comes too late from running for ever.
    refuse = mock.patch.object(np.random, "default_rng", side_effect=AssertionError("a generator was made"))
    with tempfile.TemporaryDirectory() as tmp, refuse if count > 2 else contextlib.nullcontext():
        work = Path(tmp)
        argv = [cmd, "--checkpoint", inputs / "model.ckpt", "--out-dir", work / "gen", "--mode", mode,
                "--count", count, "--notes", notes]
        assert_contract(argv, work, "gen/songs.jsonl")


@settings(max_examples=25, deadline=None)
@given(sizes=st.fixed_dictionaries({flag: SIZES for flag in (
    "--num-layers", "--hidden-size", "--embedding-dim", "--batch-size", "--seq-len")}))
def test_training_sizes_keep_the_error_contract(inputs, sizes):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        argv = ["train", "--corpus", inputs / "corpus.json", "--checkpoint", work / "out.ckpt"] + TRAIN
        for flag, value in sizes.items():
            argv += [flag, value]
        assert_contract(argv, work, "out.ckpt")


@pytest.mark.parametrize("key, form", [("format_version", lambda v: True), ("param_count", float),
                                       ("param_count", str)], ids=["bool-version", "float-count", "string-count"])
def test_checkpoint_header_integers_refuse_other_types(inputs, tmp_path, key, form):
    # Each edit writes the right value (True == 1) in a form that is not a
    # JSON integer; each is MalformedFile naming the field.
    head, blob = (inputs / "model.ckpt").read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header[key] = form(header[key])
    (tmp_path / "model.ckpt").write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + blob)
    argv, output = command("model.ckpt", tmp_path)
    code, _, err = run_cli(argv)
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1, err
    error = json.loads(lines[0])
    assert error["error"] == "MalformedFile" and key in error["message"]
    assert not (tmp_path / output).exists()
