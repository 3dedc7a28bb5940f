import argparse
import errno
import hashlib
import json
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from melodykit import core
from melodykit.cli import DEFAULT_EPOCHS, _train_config, main
from melodykit.core import DatasetVariant, load_songs_jsonl, save_songs_jsonl
from melodykit.midi import parse_midi, write_midi
from melodykit.rnn import load_checkpoint, save_checkpoint

from . import oracles
from .conftest import run_cli
from .test_midi import assemble, multi_tracks, running_status_tracks

PITCHES = [58, 60, 62, 64, 65]


def make_train_songs(path, count=3, length=34):
    rng = np.random.default_rng(0)
    songs = [[int(rng.choice(PITCHES)) for _ in range(length)] for _ in range(count)]
    songs[0][:4] = [60, 62, 64, 62]  # keep the default seed in vocabulary
    save_songs_jsonl(songs, path)
    return songs


# sweep's grid sets the cell and the layer count, so sweep takes SMALL_SWEEP.
SMALL_SWEEP = [
    "--hidden-size", "8", "--embedding-dim", "4", "--batch-size", "2", "--seq-len", "5",
    "--epochs", "1",
]
SMALL_TRAIN = ["--cell", "ugrnn", "--num-layers", "1", *SMALL_SWEEP]


def build_corpus_file(tmp_path, variant="control"):
    songs_path = tmp_path / "songs.jsonl"
    make_train_songs(songs_path)
    corpus_path = tmp_path / f"corpus_{variant}.json"
    code, _, err = run_cli(
        ["dataset", "--songs", songs_path, "--variant", variant, "--out", corpus_path]
    )
    assert code == 0, err
    return corpus_path


def train_checkpoint(tmp_path):
    corpus_path = build_corpus_file(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    code, _, err = run_cli(
        ["train", "--corpus", corpus_path, "--checkpoint", ckpt] + SMALL_TRAIN
    )
    assert code == 0, err
    return ckpt


# --- usage errors ----------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--hidden-size", "abc"],  # invalid value
        ["sample", "--mode", "beam"],       # invalid choice
        ["eval", "--span-n"],               # missing argument
        ["dataset", "--bogus"],             # unrecognised flag
        ["bogus"],                          # unknown subcommand
        [],                                 # missing subcommand
    ],
)
def test_usage_errors_are_one_json_line(argv):
    code, out, err = run_cli(argv)
    assert_json_error(code, err, "ValueError")
    assert "usage:" not in out + err


def test_help_still_exits_zero():
    with pytest.raises(SystemExit) as exc_info:
        run_cli(["train", "--help"])
    assert exc_info.value.code == 0


# --- dataset ---------------------------------------------------------------

def test_dataset_reports_counts_and_writes_sidecar(tmp_path):
    songs_path = tmp_path / "songs.jsonl"
    songs = make_train_songs(songs_path)
    save_songs_jsonl(songs + [[60, 62]], songs_path)  # one too-short song
    out = tmp_path / "corpus.json"
    code, stdout, _ = run_cli(["dataset", "--songs", songs_path, "--out", out])
    assert code == 0
    assert "3 kept, 1 dropped" in stdout
    payload = json.loads(out.read_text())
    assert set(payload) == {"variant", "x", "y"}
    assert payload["x"][1:] == payload["y"][:-1]  # shift-by-one pairing
    sidecar = json.loads((tmp_path / "corpus.vocab.json").read_text())
    assert sidecar["tokens"] == sorted(sidecar["tokens"])
    total = sum(len(s) for s in songs)
    assert len(payload["x"]) == total - 1


def test_dataset_out_into_a_missing_directory(tmp_path):
    # The message names the flag and its directory, not the temporary file.
    songs_path = tmp_path / "songs.jsonl"
    make_train_songs(songs_path)
    missing = tmp_path / "missing"
    code, stdout, err = run_cli(["dataset", "--songs", songs_path, "--out", missing / "c.json"])
    assert_json_error(code, err, "FileNotFoundError")
    message = json.loads(err)["message"]
    assert "--out" in message and f"directory {missing} does not exist" in message
    assert ".tmp" not in message
    assert stdout == "" and not missing.exists()


def test_dataset_variants_change_token_count(tmp_path):
    songs_path = tmp_path / "songs.jsonl"
    songs = make_train_songs(songs_path)
    control, interval, db12 = (tmp_path / f"{v}.json" for v in ("c", "i", "d"))
    for variant, out in (("control", control), ("interval", interval), ("db12", db12)):
        code, _, err = run_cli(
            ["dataset", "--songs", songs_path, "--variant", variant, "--out", out]
        )
        assert code == 0, err
    n_control = len(json.loads(control.read_text())["x"]) + 1
    n_interval = len(json.loads(interval.read_text())["x"]) + 1
    n_db12 = len(json.loads(db12.read_text())["x"]) + 1
    assert n_control == sum(len(s) for s in songs)
    assert n_interval == sum(len(s) - 1 for s in songs)
    assert n_db12 == 12 * n_control


def test_dataset_from_midi_directory(tmp_path):
    midi_dir = tmp_path / "mid"
    midi_dir.mkdir()
    song_a = [60, 62, 64, 62] * 3
    song_b = [65, 64, 62, 60] * 3
    (midi_dir / "a.mid").write_bytes(write_midi(song_a))
    (midi_dir / "b.mid").write_bytes(write_midi(song_b))
    (midi_dir / "notes.txt").write_text("ignored")
    out = tmp_path / "corpus.json"
    code, stdout, _ = run_cli(["dataset", "--midi-dir", midi_dir, "--out", out])
    assert code == 0
    assert "2 kept" in stdout
    payload = json.loads(out.read_text())
    assert len(payload["x"]) == len(song_a) + len(song_b) - 1


@pytest.mark.parametrize("variant", ["control", "interval", "db12"])
def test_dataset_from_mixed_midi_directory_equals_songs_corpus(tmp_path, variant):
    # write_midi's files are read by re-encoding their pitches, the
    # running-status and format 1 files by the track walker; all give back
    # the songs, so the corpus is the one --songs builds.
    songs_path = tmp_path / "songs.jsonl"
    songs = make_train_songs(songs_path, count=4)
    midi_dir = tmp_path / "mid"
    midi_dir.mkdir()
    for i, (song, make) in enumerate(zip(songs, [None, running_status_tracks, multi_tracks, None])):
        (midi_dir / f"song_{i}.mid").write_bytes(write_midi(song) if make is None else assemble(*make(song)))
    outs = {}
    for source, flag in ((songs_path, "--songs"), (midi_dir, "--midi-dir")):
        out = tmp_path / flag.strip("-") / "corpus.json"
        out.parent.mkdir()
        code, stdout, err = run_cli(["dataset", flag, source, "--variant", variant, "--out", out])
        assert code == 0, err
        outs[flag] = stdout.splitlines()[:2], out.read_bytes(), out.with_name("corpus.vocab.json").read_bytes()
    assert outs["--midi-dir"] == outs["--songs"]


@pytest.mark.parametrize("variant", ["control", "interval", "db12"])
def test_dataset_rejects_midi_data_byte_with_high_bit(tmp_path, variant):
    # Before, pitch byte 200 became a note: exit 0 and vocabulary [60, 64, 65, 200].
    midi_dir = tmp_path / "mid"
    midi_dir.mkdir()
    (midi_dir / "a.mid").write_bytes(write_midi([60, 62, 64, 62]))
    bad = bytearray(write_midi([60, 64, 64, 65]))
    bad[bad.index(bytes([0x90, 64]), 30) + 1] = 200  # the second note-on's pitch
    (midi_dir / "b.mid").write_bytes(bytes(bad))
    out = tmp_path / "corpus.json"
    code, stdout, err = run_cli(["dataset", "--midi-dir", midi_dir, "--variant", variant, "--out", out])
    assert_json_error(code, err, "MalformedFile")
    assert json.loads(err)["message"] == f"{midi_dir / 'b.mid'}: track 0: data byte 0xc8 has its high bit set"
    assert stdout == "" and list(tmp_path.iterdir()) == [midi_dir]


def fail_kth_output(monkeypatch, k):
    """Make the k-th file that core opens for writing stop halfway through its first write on a full disk."""
    real_open = open
    opened = []

    class WriteFails:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    def failing_open(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        if "w" in mode:
            opened.append(path)
            if len(opened) == k:
                return WriteFails(fh)
        return fh

    monkeypatch.setattr(core, "open", failing_open, raising=False)


@pytest.mark.parametrize("failing", ["corpus", "sidecar"])
def test_dataset_write_failure_keeps_old_outputs(tmp_path, monkeypatch, failing):
    songs_path = tmp_path / "songs.jsonl"
    make_train_songs(songs_path)
    out = tmp_path / "corpus.json"
    sidecar = tmp_path / "corpus.vocab.json"
    code, _, err = run_cli(["dataset", "--songs", songs_path, "--variant", "control", "--out", out])
    assert code == 0, err
    before = {p: p.read_bytes() for p in (out, sidecar)}
    fail_kth_output(monkeypatch, 1 if failing == "corpus" else 2)
    code, _, err = run_cli(["dataset", "--songs", songs_path, "--variant", "db12", "--out", out])
    monkeypatch.undo()
    assert_json_error(code, err, "OSError")
    assert sorted(tmp_path.iterdir()) == sorted([songs_path, out, sidecar])  # no temporary file
    assert sidecar.read_bytes() == before[sidecar]
    if failing == "corpus":
        assert out.read_bytes() == before[out]
    else:
        # The new corpus is in place, but its old sidecar's variant no longer
        # matches, so train refuses the pair.
        code, _, err = run_cli(["train", "--corpus", out, "--checkpoint", tmp_path / "m.ckpt"])
        assert_json_error(code, err, "MalformedFile")


def test_dataset_requires_one_input_source(tmp_path):
    songs_path = tmp_path / "songs.jsonl"
    make_train_songs(songs_path)
    out = tmp_path / "corpus.json"
    code, _, err = run_cli(
        ["dataset", "--songs", songs_path, "--midi-dir", tmp_path, "--out", out]
    )
    assert code == 1
    assert json.loads(err)["error"] == "ValueError"
    code, _, err = run_cli(["dataset", "--out", out])
    assert code == 1
    assert "exactly one" in json.loads(err)["message"]


def test_dataset_env_var_paths(tmp_path, monkeypatch):
    songs_path = tmp_path / "songs.jsonl"
    make_train_songs(songs_path)
    out = tmp_path / "corpus.json"
    monkeypatch.setenv("MELODYKIT_SONGS", str(songs_path))
    monkeypatch.setenv("MELODYKIT_OUT", str(out))
    code, _, err = run_cli(["dataset"])
    assert code == 0, err
    assert out.exists()


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A song file, a MIDI directory of the same songs, a corpus and a checkpoint trained on it."""
    tmp_path = tmp_path_factory.mktemp("inputs")
    songs = make_train_songs(tmp_path / "songs.jsonl")
    (tmp_path / "midi").mkdir()
    for i, song in enumerate(songs):
        (tmp_path / "midi" / f"song_{i}.mid").write_bytes(write_midi(song))
    ckpt = train_checkpoint(tmp_path)
    return tmp_path, ckpt


# Every command's path flags, each in a full command line; the {in} and
# {out} fields are the input and output directories.
PATH_FLAG_COMMANDS = [
    ("dataset", "--songs", "{in}/songs.jsonl", "--out", "{out}/corpus.json"),
    ("dataset", "--midi-dir", "{in}/midi", "--out", "{out}/corpus.json"),
    ("train", "--corpus", "{in}/corpus_control.json", "--checkpoint", "{out}/m.ckpt", "--curve", "{out}/curve.csv",
     *SMALL_TRAIN),
    ("sweep", "--corpus", "{in}/corpus_control.json", "--out-dir", "{out}/sweep", "--cells", "ugrnn",
     "--layers", "1", "--hidden-size", "8", "--embedding-dim", "4", "--batch-size", "2", "--seq-len", "5",
     "--epochs", "1"),
    ("sample", "--checkpoint", "{in}/model.ckpt", "--out-dir", "{out}/gen", "--count", "2", "--notes", "3"),
    ("eval", "--songs", "{in}/songs.jsonl", "--out-dir", "{out}/eval"),
]


@pytest.mark.parametrize("command, flag", [
    pytest.param(argv, flag, id=f"{argv[0]}_{argv[1][2:]}_{flag[2:]}")
    for argv in PATH_FLAG_COMMANDS for flag in argv if flag in (
        "--songs", "--midi-dir", "--out", "--corpus", "--checkpoint", "--curve", "--out-dir")
])
def test_path_flag_falls_back_to_its_env_var(tmp_path, monkeypatch, cli_inputs, command, flag):
    # The variables are set after the CLI was imported, so they are read on
    # each call; an explicit flag wins over its variable.
    inputs, _ = cli_inputs
    for name in [name for name in os.environ if name.startswith("MELODYKIT_")]:
        monkeypatch.delenv(name)
    argv = [a.format(**{"in": inputs, "out": tmp_path}) for a in command]
    i = argv.index(flag)
    var = "MELODYKIT_" + flag[2:].upper().replace("-", "_")
    code, want, err = run_cli(argv)
    assert code == 0, err

    monkeypatch.setenv(var, argv[i + 1])
    code, got, err = run_cli(argv[:i] + argv[i + 2 :])
    assert (code, got) == (0, want), err

    monkeypatch.setenv(var, str(tmp_path / "missing" / "path"))
    code, got, err = run_cli(argv)
    assert (code, got) == (0, want), err


# --- train -----------------------------------------------------------------

def test_train_writes_checkpoint_and_curve(tmp_path):
    corpus_path = build_corpus_file(tmp_path)
    ckpt, curve = tmp_path / "m.ckpt", tmp_path / "curve.csv"
    code, stdout, err = run_cli(
        ["train", "--corpus", corpus_path, "--checkpoint", ckpt, "--curve", curve]
        + SMALL_TRAIN
    )
    assert code == 0, err
    lines = curve.read_text().splitlines()
    assert lines[0] == "iteration,loss"
    iters = [int(l.split(",")[0]) for l in lines[1:]]
    assert iters == list(range(1, len(iters) + 1))
    model = load_checkpoint(ckpt)
    assert model.cell == "ugrnn"
    assert "trained ugrnn x1" in stdout


def test_train_epochs_zero_saves_initial_model(tmp_path):
    corpus_path = build_corpus_file(tmp_path)
    ckpt, curve = tmp_path / "m.ckpt", tmp_path / "curve.csv"
    code, _, err = run_cli(
        ["train", "--corpus", corpus_path, "--checkpoint", ckpt, "--curve", curve,
         "--epochs", "0", "--hidden-size", "8", "--embedding-dim", "4",
         "--batch-size", "2", "--seq-len", "5"]
    )
    assert code == 0, err
    assert curve.read_text() == "iteration,loss\n"
    load_checkpoint(ckpt)


def test_train_max_iterations_zero_trains_nothing(tmp_path):
    corpus_path = build_corpus_file(tmp_path)
    ckpt, curve = tmp_path / "m.ckpt", tmp_path / "curve.csv"
    code, stdout, err = run_cli(
        ["train", "--corpus", corpus_path, "--checkpoint", ckpt, "--curve", curve]
        + SMALL_TRAIN + ["--max-iterations", "0"]
    )
    assert code == 0, err
    assert "for 0 iterations" in stdout
    assert curve.read_text() == "iteration,loss\n"


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--learning-rate", "-1"),
        ("--learning-rate", "nan"),
        ("--clip-norm", "0"),
        ("--lr-decay", "-1"),
        ("--max-iterations", "-5"),
    ],
)
def test_train_rejects_bad_optimiser_settings(tmp_path, flag, value):
    corpus_path = build_corpus_file(tmp_path)
    code, _, err = run_cli(
        ["train", "--corpus", corpus_path, "--checkpoint", tmp_path / "m.ckpt"]
        + SMALL_TRAIN + [flag, value]
    )
    assert_json_error(code, err, "ValueError")
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize(
    "edit", [lambda t: t[::-1], lambda t: [t[0]] + t[:-1]], ids=["reversed", "duplicated"]
)
def test_train_rejects_unordered_vocabulary(tmp_path, edit):
    corpus_path = build_corpus_file(tmp_path)
    sidecar = tmp_path / "corpus_control.vocab.json"
    payload = json.loads(sidecar.read_text())
    payload["tokens"] = edit(payload["tokens"])
    sidecar.write_text(json.dumps(payload))
    code, _, err = run_cli(
        ["train", "--corpus", corpus_path, "--checkpoint", tmp_path / "m.ckpt"] + SMALL_TRAIN
    )
    assert_json_error(code, err, "ValueError")
    assert "strictly ascending" in json.loads(err)["message"]
    assert not (tmp_path / "m.ckpt").exists()


def test_train_is_deterministic(tmp_path):
    corpus_path = build_corpus_file(tmp_path)
    outs = []
    for tag in ("one", "two"):
        ckpt, curve = tmp_path / f"{tag}.ckpt", tmp_path / f"{tag}.csv"
        code, _, err = run_cli(
            ["train", "--corpus", corpus_path, "--checkpoint", ckpt,
             "--curve", curve, "--seed", "3"] + SMALL_TRAIN
        )
        assert code == 0, err
        outs.append((ckpt.read_bytes(), curve.read_bytes()))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("output", ["--curve", "--checkpoint"])
def test_train_missing_output_dir_writes_and_prints_nothing(tmp_path, output):
    corpus_path = build_corpus_file(tmp_path)
    paths = {"--checkpoint": tmp_path / "m.ckpt", "--curve": tmp_path / "curve.csv"}
    paths[output] = tmp_path / "missing_dir" / "out"
    code, stdout, err = run_cli(
        ["train", "--corpus", corpus_path, "--checkpoint", paths["--checkpoint"],
         "--curve", paths["--curve"]] + SMALL_TRAIN
    )
    assert_json_error(code, err, "FileNotFoundError")
    assert "missing_dir" in json.loads(err)["message"]
    assert stdout == ""
    assert not (tmp_path / "m.ckpt").exists()
    assert not (tmp_path / "curve.csv").exists()
    assert not (tmp_path / "missing_dir").exists()


def test_train_failed_checkpoint_write_leaves_no_curve(tmp_path):
    corpus_path = build_corpus_file(tmp_path)
    checkpoint = tmp_path / "m.ckpt"
    checkpoint.mkdir()
    curve = tmp_path / "curve.csv"
    code, stdout, err = run_cli(
        ["train", "--corpus", corpus_path, "--checkpoint", checkpoint, "--curve", curve] + SMALL_TRAIN
    )
    assert_json_error(code, err, "IsADirectoryError")
    assert stdout == ""
    assert not curve.exists()
    assert list(checkpoint.iterdir()) == []


def test_train_divergence_exits_1_and_writes_nothing(tmp_path):
    corpus_path = build_corpus_file(tmp_path)
    ckpt, curve = tmp_path / "m.ckpt", tmp_path / "curve.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, err = run_cli(
            ["train", "--corpus", corpus_path, "--checkpoint", ckpt, "--curve", curve,
             "--learning-rate", "1e300"] + SMALL_TRAIN
        )
    assert_json_error(code, err, "TrainingDiverged")
    assert "at iteration 2" in json.loads(err)["message"]
    assert [str(w.message) for w in caught] == []  # no numpy overflow warnings
    assert stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "corpus_control.json", "corpus_control.vocab.json", "songs.jsonl"]


def test_train_refuses_to_save_an_overflowed_last_step(tmp_path):
    # The only step is the last, so no later window loss could report it.
    corpus_path = build_corpus_file(tmp_path)
    ckpt, curve = tmp_path / "m.ckpt", tmp_path / "curve.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, err = run_cli(
            ["train", "--corpus", corpus_path, "--checkpoint", ckpt, "--curve", curve,
             "--learning-rate", "1e300", "--max-iterations", "1", "--batch-size", "4",
             "--seq-len", "5", "--hidden-size", "16", "--embedding-dim", "8"]
        )
    assert_json_error(code, err, "TrainingDiverged")
    assert "after the Adam step of iteration 1" in json.loads(err)["message"]
    assert [str(w.message) for w in caught] == []
    assert stdout == ""
    assert not ckpt.exists() and not curve.exists()


@pytest.mark.parametrize("argv", [
    ["sample", "--mode", "greedy"],
    ["sample", "--mode", "temperature"],
], ids=["sample-greedy", "sample-temperature"])
def test_sampling_overflowed_weights_warns_nothing(tmp_path, argv):
    # Weights scaled up to about 1e300, as one step at a huge learning rate
    # used to leave them (train refuses to save such a model), would
    # overflow a float32 step; the checkpoint is refused at load, before
    # any step, so nothing is warned and nothing is written.
    corpus_path = build_corpus_file(tmp_path)
    ckpt = tmp_path / "m.ckpt"
    code, _, err = run_cli(
        ["train", "--corpus", corpus_path, "--checkpoint", ckpt,
         "--max-iterations", "1", "--batch-size", "4", "--seq-len", "5", "--hidden-size", "16",
         "--embedding-dim", "8"]
    )
    assert code == 0, err
    model = load_checkpoint(ckpt)
    for p in model.parameters():
        p.value *= 1e300
    save_checkpoint(model, ckpt)
    out_dir = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, err = run_cli(argv + ["--checkpoint", ckpt, "--out-dir", out_dir, "--count", "3"])
    assert_json_error(code, err, "MalformedFile")
    assert "embedding holds a non-finite value or one past 2**56" in json.loads(err)["message"]
    assert [str(w.message) for w in caught] == []
    assert stdout == "" and not out_dir.exists()


@pytest.mark.parametrize("command", ["sample"])
@pytest.mark.parametrize("place", ["embedding", "layer 1 W", "projection b"])
@pytest.mark.parametrize("bad, refused", [
    (2.0 ** 56, False), (-(2.0 ** 56), False),
    (np.nextafter(2.0 ** 56, np.inf), True), (1e300, True), (-1e300, True),
], ids=["2**56", "-2**56", "past-2**56", "1e300", "-1e300"])
def test_checkpoint_weight_bound_is_2_to_the_56(tmp_path, command, place, bad, refused):
    # The bound train keeps after every step: a re-signed weight of exactly
    # +-2**56 samples (in float32, without overflow), one past it is refused.
    ckpt = checkpoint_with_weight(tmp_path, place, bad)
    out_dir = tmp_path / "gen"
    code, stdout, err = run_cli([command, "--checkpoint", ckpt, "--out-dir", out_dir, "--count", "3"])
    if refused:
        assert_json_error(code, err, "MalformedFile")
        assert f"{place} holds a non-finite value or one past 2**56" in json.loads(err)["message"]
        assert stdout == "" and not out_dir.exists()
    else:
        assert code == 0 and err == "", err
        assert len(load_songs_jsonl(out_dir / "songs.jsonl")) == 3


def test_default_epochs_per_variant():
    ns = argparse.Namespace(
        cell="lstm", num_layers=1, hidden_size=8, embedding_dim=4,
        batch_size=2, seq_len=5, epochs=None, learning_rate=0.002,
        lr_decay=0.97, clip_norm=5.0, max_iterations=None,
    )
    assert _train_config(ns, DatasetVariant.CONTROL).epochs == 300
    assert _train_config(ns, DatasetVariant.INTERVAL).epochs == 300
    assert _train_config(ns, DatasetVariant.DB12).epochs == 50
    assert DEFAULT_EPOCHS[DatasetVariant.DB12] == 50
    ns.epochs = 7
    assert _train_config(ns, DatasetVariant.DB12).epochs == 7


def test_train_missing_corpus_is_json_error(tmp_path):
    code, _, err = run_cli(
        ["train", "--corpus", tmp_path / "nope.json", "--checkpoint", tmp_path / "m.ckpt"]
    )
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "FileNotFoundError"
    assert "nope.json" in payload["message"]


def assert_json_error(code, err, error):
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert json.loads(lines[0])["error"] == error


@pytest.mark.parametrize("key, index, bad_id", [("x", 0, 999), ("x", 3, -1), ("y", 2, -3)])
def test_train_rejects_corpus_ids_outside_vocabulary(tmp_path, key, index, bad_id):
    corpus_path = build_corpus_file(tmp_path)
    payload = json.loads(corpus_path.read_text())
    payload[key][index] = bad_id
    corpus_path.write_text(json.dumps(payload))
    code, _, err = run_cli(
        ["train", "--corpus", corpus_path, "--checkpoint", tmp_path / "m.ckpt"] + SMALL_TRAIN
    )
    assert_json_error(code, err, "BadToken")
    assert str(bad_id) in json.loads(err)["message"]
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize(
    "target, edit",
    [
        ("corpus", lambda p: {k: v for k, v in p.items() if k != "x"}),
        ("corpus", lambda p: {k: v for k, v in p.items() if k != "y"}),
        ("corpus", lambda p: {k: v for k, v in p.items() if k != "variant"}),
        ("sidecar", lambda p: {k: v for k, v in p.items() if k != "tokens"}),
        ("corpus", lambda p: p["x"]),  # a JSON list, not an object
        ("corpus", lambda p: {**p, "x": None}),
        ("corpus", lambda p: {**p, "x": [p["x"], p["x"]]}),
        ("corpus", lambda p: {**p, "y": p["y"][:-1]}),
        ("sidecar", lambda p: {**p, "tokens": 5}),
        ("sidecar", lambda p: {k: v for k, v in p.items() if k != "variant"}),
        # Tokens int() used to read as 58, 60 and 1.
        ("sidecar", lambda p: {**p, "tokens": [58.0] + p["tokens"][1:]}),
        ("sidecar", lambda p: {**p, "tokens": [p["tokens"][0], "60"] + p["tokens"][2:]}),
        ("sidecar", lambda p: {**p, "tokens": [True] + p["tokens"][1:]}),
        # Ids that a cast to int64 used to read as 2 and 3, or failed on outside the error contract.
        ("corpus", lambda p: {**p, "x": [2.7] + p["x"][1:]}),
        ("corpus", lambda p: {**p, "x": ["3"] + p["x"][1:]}),
        ("corpus", lambda p: {**p, "x": [p["x"][:2]] + p["x"][1:]}),
        ("corpus", lambda p: {**p, "x": [2**70] + p["x"][1:]}),
        # Trained with exit 0 before: a bool id read as 0 or 1, and y need not follow x.
        ("corpus", lambda p: {**p, "x": [True] + p["x"][1:]}),
        ("corpus", lambda p: {**p, "y": p["y"][::-1]}),
    ],
    ids=["no-x", "no-y", "no-variant", "no-tokens", "list", "null-x", "2d-x", "short-y", "int-tokens",
         "no-sidecar-variant", "float-token", "string-token", "bool-token",
         "float-id", "string-id", "nested-id", "huge-id", "bool-id", "unshifted-y"],
)
def test_train_rejects_malformed_corpus(tmp_path, target, edit):
    corpus_path = build_corpus_file(tmp_path)
    path = corpus_path if target == "corpus" else corpus_path.with_name(corpus_path.stem + ".vocab.json")
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    code, _, err = run_cli(
        ["train", "--corpus", corpus_path, "--checkpoint", tmp_path / "m.ckpt"] + SMALL_TRAIN
    )
    assert_json_error(code, err, "MalformedFile")
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize(
    "edit",
    [
        lambda h: h.update(num_layers=True),
        lambda h: h.update(hidden_size="8"),
        lambda h: h["vocabulary"].__setitem__(0, 58.0),
    ],
    ids=["bool-layers", "string-hidden", "float-token"],
)
def test_sample_rejects_non_integer_checkpoint_header(tmp_path, edit):
    # Each edit writes the size or token it replaces (ugrnn x1, hidden 8,
    # first token 58) in a form int() used to load.
    ckpt = train_checkpoint(tmp_path)
    head, blob = ckpt.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    edit(header)
    ckpt.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + blob)
    code, _, err = run_cli(["sample", "--checkpoint", ckpt, "--out-dir", tmp_path / "gen"])
    assert_json_error(code, err, "MalformedFile")
    assert not (tmp_path / "gen").exists()


@pytest.mark.parametrize(
    "header",
    [
        lambda h: json.dumps(h).encode("utf-16"),
        lambda h: b"[" * 200_000,
        lambda h: json.dumps({**h, "hidden_size": "@"}).replace('"@"', "9" * 5000).encode(),
    ],
    ids=["utf-16", "deep-nesting", "5000-digits"],
)
def test_sample_rejects_unreadable_checkpoint_header(tmp_path, header):
    ckpt = train_checkpoint(tmp_path)
    head, blob = ckpt.read_bytes().split(b"\n", 1)
    ckpt.write_bytes(header(json.loads(head)) + b"\n" + blob)
    code, _, err = run_cli(["sample", "--checkpoint", ckpt, "--out-dir", tmp_path / "gen"])
    assert_json_error(code, err, "MalformedFile")
    assert not (tmp_path / "gen").exists()


@pytest.mark.parametrize("target", ["corpus", "sidecar"])
def test_deeply_nested_corpus_json_is_malformed_file(tmp_path, target):
    # Nesting past the recursion limit used to end in a RecursionError traceback.
    corpus_path = build_corpus_file(tmp_path)
    path = corpus_path if target == "corpus" else corpus_path.with_name(corpus_path.stem + ".vocab.json")
    path.write_text("[" * 200_000 + "\n")
    code, _, err = run_cli(["train", "--corpus", corpus_path, "--checkpoint", tmp_path / "m.ckpt"] + SMALL_TRAIN)
    assert_json_error(code, err, "MalformedFile")
    assert str(path) in json.loads(err)["message"]
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_corpus_rejects_sidecar_of_another_variant(tmp_path, command):
    # a db12 token table next to a control corpus would decode every id wrongly
    corpus_path = build_corpus_file(tmp_path)
    db12_path = build_corpus_file(tmp_path, variant="db12")
    sidecar = corpus_path.with_name(corpus_path.stem + ".vocab.json")
    sidecar.write_bytes(db12_path.with_name(db12_path.stem + ".vocab.json").read_bytes())
    out = tmp_path / "out"
    target = ["--checkpoint", out] + SMALL_TRAIN if command == "train" else ["--out-dir", out] + SMALL_SWEEP
    code, _, err = run_cli([command, "--corpus", corpus_path] + target)
    assert_json_error(code, err, "MalformedFile")
    assert "variant" in json.loads(err)["message"]
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--hidden-size", "--embedding-dim"])
def test_train_rejects_zero_width(tmp_path, flag):
    corpus_path = build_corpus_file(tmp_path)
    code, _, err = run_cli(
        ["train", "--corpus", corpus_path, "--checkpoint", tmp_path / "m.ckpt"]
        + SMALL_TRAIN + [flag, "0"]
    )
    assert_json_error(code, err, "ValueError")
    assert not (tmp_path / "m.ckpt").exists()


def test_train_oversized_width_is_one_json_line(tmp_path):
    # Memory is the only bound on --hidden-size; 10**7 units ask for a
    # petabyte weight matrix, beyond any address space.
    corpus_path = build_corpus_file(tmp_path)
    code, stdout, err = run_cli(
        ["train", "--corpus", corpus_path, "--checkpoint", tmp_path / "m.ckpt",
         "--hidden-size", str(10**7), "--max-iterations", "1", "--batch-size", "4"]
    )
    assert_json_error(code, err, "MemoryError")
    assert stdout == "" and not (tmp_path / "m.ckpt").exists()


# --- sample ----------------------------------------------------------------

def test_sample_writes_song_files(tmp_path):
    ckpt = train_checkpoint(tmp_path)
    out_dir = tmp_path / "gen"
    code, stdout, err = run_cli(
        ["sample", "--checkpoint", ckpt, "--out-dir", out_dir,
         "--count", "3", "--notes", "5"]
    )
    assert code == 0, err
    songs = load_songs_jsonl(out_dir / "songs.jsonl")
    assert len(songs) == 3
    assert all(len(s) == 9 for s in songs)  # 4 seed + 5 generated
    assert all(s[:4] == [60, 62, 64, 62] for s in songs)
    for i, song in enumerate(songs):
        assert parse_midi((out_dir / f"song_{i:03d}.mid").read_bytes()) == song
    assert "wrote 3 songs" in stdout


def test_sample_greedy_rerun_is_byte_identical(tmp_path):
    ckpt = train_checkpoint(tmp_path)
    blobs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        code, _, err = run_cli(
            ["sample", "--checkpoint", ckpt, "--out-dir", out_dir,
             "--count", "2", "--notes", "6"]
        )
        assert code == 0, err
        blobs.append((out_dir / "songs.jsonl").read_bytes())
    assert blobs[0] == blobs[1]


def test_sample_greedy_makes_no_generator(tmp_path, monkeypatch):
    ckpt = train_checkpoint(tmp_path)
    argv = ["sample", "--checkpoint", ckpt, "--count", "3", "--notes", "6"]
    code, _, err = run_cli(argv + ["--out-dir", tmp_path / "a"])
    assert code == 0, err

    def refuse(*args, **kwargs):
        raise AssertionError("greedy sampling made a generator")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    code, _, err = run_cli(argv + ["--out-dir", tmp_path / "b"])
    monkeypatch.undo()
    assert code == 0, err
    for name in ["songs.jsonl"] + [f"song_{i:03d}.mid" for i in range(3)]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_sample_custom_seed_song(tmp_path):
    ckpt = train_checkpoint(tmp_path)
    out_dir = tmp_path / "gen"
    code, _, err = run_cli(
        ["sample", "--checkpoint", ckpt, "--out-dir", out_dir,
         "--seed-song", "60,62", "--count", "1", "--notes", "4"]
    )
    assert code == 0, err
    songs = load_songs_jsonl(out_dir / "songs.jsonl")
    assert songs[0][:2] == [60, 62] and len(songs[0]) == 6


@pytest.mark.parametrize("command", ["sample"])
def test_seed_song_parses_like_layers(tmp_path, command):
    # A trailing comma is skipped, as --layers skips it.
    ckpt = train_checkpoint(tmp_path)
    out_dir = tmp_path / "gen"
    code, _, err = run_cli(
        [command, "--checkpoint", ckpt, "--out-dir", out_dir,
         "--seed-song", "60,62,", "--count", "1", "--notes", "14"]
    )
    assert code == 0, err
    songs = load_songs_jsonl(out_dir / "songs.jsonl")
    assert songs[0][:2] == [60, 62] and len(songs[0]) == 16


@pytest.mark.parametrize("command", ["sample"])
def test_seed_song_error_names_the_flag(tmp_path, command):
    ckpt = train_checkpoint(tmp_path)
    code, _, err = run_cli(
        [command, "--checkpoint", ckpt, "--out-dir", tmp_path / "gen", "--seed-song", "60,abc"]
    )
    assert_json_error(code, err, "ValueError")
    assert "--seed-song" in json.loads(err)["message"]
    assert not (tmp_path / "gen").exists()


def test_sample_unknown_seed_token(tmp_path):
    ckpt = train_checkpoint(tmp_path)
    code, _, err = run_cli(
        ["sample", "--checkpoint", ckpt, "--out-dir", tmp_path / "gen",
         "--seed-song", "60,1", "--count", "1", "--notes", "2"]
    )
    assert code == 1
    assert json.loads(err)["error"] == "UnknownSeedToken"


def test_sample_rejects_zero_width_checkpoint(tmp_path):
    # A consistent checkpoint with hidden_size 0: only the embedding table and
    # the projection bias hold values, and the count and checksum match them.
    ckpt = train_checkpoint(tmp_path)
    head, blob = ckpt.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    flat = np.frombuffer(blob, dtype="<f8")
    vocab, emb = len(header["vocabulary"]), header["embedding_dim"]
    blob = np.concatenate([flat[: vocab * emb], flat[-vocab:]]).astype("<f8").tobytes()
    header.update(hidden_size=0, param_count=vocab * emb + vocab,
                  blob_sha256=hashlib.sha256(blob).hexdigest())
    ckpt.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + blob)
    code, _, err = run_cli(["sample", "--checkpoint", ckpt, "--out-dir", tmp_path / "gen"])
    assert_json_error(code, err, "MalformedFile")
    assert not (tmp_path / "gen").exists()


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("mode", ["greedy", "temperature"])
def test_sample_rejects_non_finite_checkpoint(tmp_path, mode, bad):
    # Refused at load, before greedy argmax could take the first NaN logit
    # for the maximum.
    ckpt = train_checkpoint(tmp_path)
    model = load_checkpoint(ckpt)
    model.proj_b.value[0] = bad
    save_checkpoint(model, ckpt)
    code, _, err = run_cli(
        ["sample", "--checkpoint", ckpt, "--out-dir", tmp_path / "gen", "--mode", mode]
    )
    assert_json_error(code, err, "MalformedFile")
    assert "projection b holds a non-finite value" in json.loads(err)["message"]


def checkpoint_with_weight(tmp_path, place, value):
    """A trained checkpoint, re-signed with one weight of `place` set to value."""
    ckpt = train_checkpoint(tmp_path)
    model = load_checkpoint(ckpt)
    array = {"embedding": model.embedding, "layer 1 W": model.layers[0].w, "projection b": model.proj_b}[place].value
    array.flat[array.size // 2] = value
    save_checkpoint(model, ckpt)
    return ckpt


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("place", ["embedding", "layer 1 W", "projection b"])
@pytest.mark.parametrize("command", ["sample"])
def test_non_finite_checkpoint_weight_is_malformed_file(tmp_path, command, place, bad):
    # A re-signed blob, as save_checkpoint writes it.  Loaded, inf in the
    # embedding sampled saturated songs with exit 0, and -inf in the
    # projection or NaN anywhere failed on the logits instead.
    ckpt = checkpoint_with_weight(tmp_path, place, bad)
    code, _, err = run_cli([command, "--checkpoint", ckpt, "--out-dir", tmp_path / "gen"])
    assert_json_error(code, err, "MalformedFile")
    assert f"{place} holds a non-finite value" in json.loads(err)["message"]
    assert not (tmp_path / "gen").exists()


@pytest.mark.parametrize("temperature", ["nan", "inf", "1e-320"])
def test_sample_rejects_bad_temperature(tmp_path, temperature):
    # 1e-320 is finite and positive, but dividing the logits by it overflows.
    ckpt = train_checkpoint(tmp_path)
    code, _, err = run_cli(
        ["sample", "--checkpoint", ckpt, "--out-dir", tmp_path / "gen",
         "--mode", "temperature", "--temperature", temperature]
    )
    assert_json_error(code, err, "ValueError")
    assert "temperature" in json.loads(err)["message"]
    assert not (tmp_path / "gen").exists()


@pytest.mark.parametrize("flag, value", [("--count", "0"), ("--count", "-3"), ("--notes", "-1")],
                         ids=["0", "-3", "notes--1"])
@pytest.mark.parametrize("command", ["sample"])
def test_sampling_rejects_count_below_one(tmp_path, command, flag, value):
    # Each message names the flag, not the library parameter behind it (n, for --notes).
    ckpt = train_checkpoint(tmp_path)
    code, _, err = run_cli(
        [command, "--checkpoint", ckpt, "--out-dir", tmp_path / "gen", flag, value]
    )
    assert_json_error(code, err, "ValueError")
    assert flag in json.loads(err)["message"]
    assert not (tmp_path / "gen" / "songs.jsonl").exists()


@pytest.mark.parametrize("flag", ["--count", "--notes"])
@pytest.mark.parametrize("command, mode", [("sample", "greedy"), ("sample", "temperature")])
def test_sampling_size_past_any_array_is_one_json_line(tmp_path, monkeypatch, command, mode, flag):
    # These used to end in an OverflowError traceback.  The (count, notes)
    # output is sized before any lane's generator is made, so none may be.
    ckpt = train_checkpoint(tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("a generator was made before the output was sized")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    code, _, err = run_cli(
        [command, "--checkpoint", ckpt, "--out-dir", tmp_path / "gen", "--mode", mode, flag, str(10**20)]
    )
    assert_json_error(code, err, "ValueError")
    assert flag in json.loads(err)["message"]
    assert not (tmp_path / "gen").exists()


@pytest.mark.parametrize("flag, value", [("--notes", "-1"), ("--count", "0"), ("--seed-song", "60,x"),
                                         ("--count", str(10**20))])
@pytest.mark.parametrize("command", ["sample"])
def test_sampling_flags_are_checked_before_the_checkpoint_is_read(tmp_path, command, flag, value):
    # The checkpoint does not exist, so reading it first would report FileNotFoundError.
    code, _, err = run_cli(
        [command, "--checkpoint", tmp_path / "missing.ckpt", "--out-dir", tmp_path / "d", flag, value]
    )
    assert_json_error(code, err, "ValueError")
    assert flag in json.loads(err)["message"]
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("flag, value, error", [
    ("--temperature", "nan", "ValueError"),
    ("--seed-song", "300", "PitchOutOfRange"),
    ("--seed-song", "", "ValueError"),
], ids=["temperature-nan", "seed-song-300", "seed-song-empty"])
def test_seed_song_and_temperature_are_checked_before_the_checkpoint_is_read(tmp_path, flag, value, error):
    # rnn.check_sampling, the rule sample_batch applies, runs before the missing checkpoint is read.
    code, stdout, err = run_cli(
        ["sample", "--checkpoint", tmp_path / "missing.ckpt", "--out-dir", tmp_path / "d", flag, value]
    )
    assert_json_error(code, err, error)
    assert stdout == "" and not (tmp_path / "d").exists()


@pytest.mark.parametrize("seed_song, error", [
    ("1", "UnknownSeedToken"), ("200", "PitchOutOfRange"), ("", "ValueError"),
], ids=["not-in-vocabulary", "past-127", "empty"])
@pytest.mark.parametrize("notes", ["0", "1"])
def test_sample_checks_the_seed_song_whatever_the_note_count(tmp_path, notes, seed_song, error):
    # With --notes 0 these seeds used to be written out as songs, or failed after songs.jsonl was written.
    ckpt = train_checkpoint(tmp_path)
    out_dir = tmp_path / "gen"
    code, stdout, err = run_cli(
        ["sample", "--checkpoint", ckpt, "--out-dir", out_dir, "--seed-song", seed_song, "--notes", notes,
         "--count", "2"]
    )
    assert_json_error(code, err, error)
    assert stdout == "" and not out_dir.exists()


@pytest.mark.parametrize("mode", ["greedy", "temperature"])
def test_sample_song_does_not_depend_on_count(tmp_path, mode):
    ckpt = train_checkpoint(tmp_path)
    for count in ("3", "7"):
        code, _, err = run_cli(
            ["sample", "--checkpoint", ckpt, "--out-dir", tmp_path / count,
             "--mode", mode, "--count", count, "--notes", "12", "--seed", "3"]
        )
        assert code == 0, err
    few = (tmp_path / "3" / "songs.jsonl").read_bytes().splitlines(keepends=True)
    many = (tmp_path / "7" / "songs.jsonl").read_bytes().splitlines(keepends=True)
    assert len(few) == 3 and few == many[:3]
    for i in range(3):
        name = f"song_{i:03d}.mid"
        assert (tmp_path / "3" / name).read_bytes() == (tmp_path / "7" / name).read_bytes()


# --- eval ------------------------------------------------------------------

def eval_songs(tmp_path, count=8):
    rng = np.random.default_rng(4)
    songs = []
    for _ in range(count):
        length = int(rng.integers(12, 24))
        songs.append([int(rng.integers(50, 80)) for _ in range(length)])
    path = tmp_path / "score_me.jsonl"
    save_songs_jsonl(songs, path)
    return path, songs


def test_eval_from_songs_matches_oracles(tmp_path):
    path, songs = eval_songs(tmp_path)
    out_dir = tmp_path / "report"
    code, stdout, err = run_cli(["eval", "--songs", path, "--out-dir", out_dir])
    assert code == 0, err

    reports = [json.loads(l) for l in (out_dir / "reports.jsonl").read_text().splitlines()]
    assert len(reports) == len(songs)
    for r, s in zip(reports, songs):
        assert r["cmm"] == pytest.approx(oracles.brute_cmm(s), abs=1e-12)
        assert r["lm"] == pytest.approx(oracles.brute_lm(s), abs=1e-12)
        assert r["centr"] == pytest.approx(oracles.brute_centr(s), abs=1e-12)

    stats = json.loads((out_dir / "stats.json").read_text())
    mean, std = oracles.brute_mean_std([oracles.brute_cmm(s) for s in songs])
    assert stats["cmm"]["mean"] == pytest.approx(mean, abs=1e-12)
    assert stats["cmm"]["std"] == pytest.approx(std, abs=1e-12)
    assert stats["count"] == len(songs)

    triples = [(r["cmm"], r["lm"], r["centr"]) for r in reports]
    centroid = tuple(oracles.brute_mean_std(list(col))[0] for col in zip(*triples))
    rep = oracles.brute_representative(triples, centroid)
    assert stats["representative_index"] == rep
    assert parse_midi((out_dir / "representative.mid").read_bytes()) == songs[rep]

    csv_lines = (out_dir / "stats.csv").read_text().splitlines()
    assert csv_lines[0] == "metric,mean,std"
    assert [l.split(",")[0] for l in csv_lines[1:]] == ["cmm", "lm", "centr"]
    assert "representative" in stdout


def test_eval_composes_with_sample_output(tmp_path):
    ckpt = train_checkpoint(tmp_path)
    gen_dir = tmp_path / "gen"
    code, _, err = run_cli(
        ["sample", "--checkpoint", ckpt, "--out-dir", gen_dir,
         "--count", "3", "--notes", "12"]
    )
    assert code == 0, err
    code, _, err = run_cli(
        ["eval", "--songs", gen_dir / "songs.jsonl", "--out-dir", tmp_path / "report"]
    )
    assert code == 0, err


def test_eval_requires_one_source(tmp_path, monkeypatch):
    monkeypatch.delenv("MELODYKIT_SONGS", raising=False)
    code, stdout, err = run_cli(["eval", "--out-dir", tmp_path / "r"])
    assert_json_error(code, err, "ValueError")
    assert "--songs" in json.loads(err)["message"]
    assert stdout == "" and not (tmp_path / "r").exists()


MINI_CORPUS = Path(__file__).resolve().parents[1] / "data" / "mini_corpus.jsonl"


@pytest.mark.parametrize("argv, unknown", [
    (["--songs", MINI_CORPUS, "--notes", "-1", "--count", "0"], "--notes -1 --count 0"),
    (["--checkpoint", "m.ckpt"], "--checkpoint m.ckpt"),
    *[(["--songs", MINI_CORPUS, flag, value], f"{flag} {value}") for flag, value in [
        ("--mode", "greedy"), ("--seed-song", "60"), ("--notes", "5"), ("--count", "5"),
        ("--temperature", "0.5"), ("--seed", "1")]],
], ids=["songs-notes-count", "checkpoint", "mode", "seed-song", "notes", "count", "temperature", "seed"])
def test_eval_refuses_every_sampling_flag(tmp_path, argv, unknown):
    # eval only scores a songs file; melodies from a checkpoint come from `sample`.
    out_dir = tmp_path / "d"
    code, stdout, err = run_cli(["eval", "--out-dir", out_dir] + argv)
    assert_json_error(code, err, "ValueError")
    assert json.loads(err)["message"] == f"unrecognized arguments: {unknown}"
    assert stdout == "" and not out_dir.exists()


def test_eval_help_lists_only_its_scoring_flags(capsys):
    with pytest.raises(SystemExit):
        main(["eval", "--help"])
    flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert flags == {"--help", "--songs", "--out-dir", "--span-n", "--span-lb", "--span-ub"}


@pytest.mark.parametrize(
    "source, extra",
    [
        ("songs", ["--count", "0"]),
        ("both", []),
        ("songs", ["--span-lb", "9", "--span-ub", "5"]),
        ("short-songs", []),
    ],
    ids=["count-0", "songs-and-checkpoint", "bad-span", "short-song"],
)
def test_eval_failure_leaves_no_output(tmp_path, source, extra):
    ckpt = train_checkpoint(tmp_path)
    path, _ = eval_songs(tmp_path)
    short = tmp_path / "short.jsonl"
    save_songs_jsonl([[60] * 12, [60, 62, 64]], short)
    argv = {
        "songs": ["--songs", path],
        "both": ["--songs", path, "--checkpoint", ckpt],
        "short-songs": ["--songs", short],
    }[source]
    out_dir = tmp_path / "report"
    code, _, err = run_cli(["eval", "--out-dir", out_dir] + argv + extra)
    assert code == 1
    assert len(err.splitlines()) == 1, err
    assert not out_dir.exists()


def test_eval_short_song_names_the_offender(tmp_path):
    path = tmp_path / "short.jsonl"
    save_songs_jsonl([[60] * 12, [60, 62, 64]], path)
    code, _, err = run_cli(["eval", "--songs", path, "--out-dir", tmp_path / "r"])
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "SongTooShort"
    assert "song 1" in payload["message"]


def test_eval_span_flags(tmp_path):
    path, songs = eval_songs(tmp_path)
    out_dir = tmp_path / "wide"
    code, _, err = run_cli(
        ["eval", "--songs", path, "--out-dir", out_dir,
         "--span-n", "12", "--span-lb", "1", "--span-ub", "12"]
    )
    assert code == 0, err
    stats = json.loads((out_dir / "stats.json").read_text())
    assert stats["lm"] == {"mean": 1.0, "std": 0.0}  # every count is in band


# --- sweep -----------------------------------------------------------------

def test_sweep_grid_and_best(tmp_path):
    corpus_path = build_corpus_file(tmp_path)
    out_dir = tmp_path / "sweep"
    args = ["sweep", "--corpus", corpus_path, "--out-dir", out_dir,
            "--cells", "lstm,ugrnn", "--layers", "1,2",
            "--hidden-size", "8", "--embedding-dim", "4",
            "--batch-size", "2", "--seq-len", "5", "--epochs", "1"]
    code, stdout, err = run_cli(args)
    assert code == 0, err
    rows = (out_dir / "summary.csv").read_text().splitlines()
    assert rows[0] == "cell,layers,initial_loss,final_loss,status"
    assert len(rows) == 5
    assert all(r.endswith(",ok") for r in rows[1:])
    for cell in ("lstm", "ugrnn"):
        for layers in (1, 2):
            assert (out_dir / f"curve_{cell}_{layers}.csv").exists()
    best = (out_dir / "best.csv").read_text().splitlines()
    assert best[0] == "cell,best_layers,final_loss"
    assert [l.split(",")[0] for l in best[1:]] == ["lstm", "ugrnn"]
    # rerun is byte-identical
    out_dir2 = tmp_path / "sweep2"
    args[4] = out_dir2
    code, _, _ = run_cli(args)
    assert code == 0
    assert (out_dir / "summary.csv").read_bytes() == (out_dir2 / "summary.csv").read_bytes()


def test_sweep_bad_layers_leaves_no_output_dir(tmp_path):
    corpus_path = build_corpus_file(tmp_path)
    out_dir = tmp_path / "sweep"
    code, stdout, err = run_cli(
        ["sweep", "--corpus", corpus_path, "--out-dir", out_dir, "--layers", "x"] + SMALL_SWEEP
    )
    assert_json_error(code, err, "ValueError")
    assert "--layers" in json.loads(err)["message"]
    assert stdout == ""
    assert not out_dir.exists()


def test_sweep_refuses_a_window_the_corpus_cannot_fill(tmp_path):
    # Every grid point shares the batch size and sequence length, so the
    # sweep is refused once rather than recorded as one error row per point.
    corpus_path = build_corpus_file(tmp_path)
    out_dir = tmp_path / "sweep"
    code, stdout, err = run_cli(
        ["sweep", "--corpus", corpus_path, "--out-dir", out_dir, "--cells", "lstm,ugrnn", "--layers", "1",
         "--batch-size", "1000", "--max-iterations", "1"]
    )
    assert_json_error(code, err, "CorpusTooSmall")
    assert stdout == ""
    assert not out_dir.exists()


def test_sweep_records_per_run_failures(tmp_path):
    corpus_path = build_corpus_file(tmp_path)
    out_dir = tmp_path / "sweep"
    code, _, err = run_cli(
        ["sweep", "--corpus", corpus_path, "--out-dir", out_dir,
         "--cells", "ugrnn", "--layers", "1,9",
         "--hidden-size", "8", "--embedding-dim", "4",
         "--batch-size", "2", "--seq-len", "5", "--epochs", "1"]
    )
    assert code == 0, err  # the sweep itself succeeds
    rows = (out_dir / "summary.csv").read_text().splitlines()[1:]
    by_layers = {int(r.split(",")[1]): r for r in rows}
    assert by_layers[1].endswith(",ok")
    assert by_layers[9].endswith(",error:ValueError")
    best = (out_dir / "best.csv").read_text().splitlines()
    assert best[1].startswith("ugrnn,1,")


def test_sweep_records_memory_errors_as_error_rows(tmp_path):
    # 10**7 units ask for a petabyte weight matrix; each grid point fails
    # alone and the sweep still writes its tables.  The 4x5 window fits the
    # corpus, which the sweep checks before any grid point.
    corpus_path = build_corpus_file(tmp_path)
    out_dir = tmp_path / "sweep"
    code, _, err = run_cli(
        ["sweep", "--corpus", corpus_path, "--out-dir", out_dir, "--cells", "lstm,ugrnn", "--layers", "1",
         "--hidden-size", str(10**7), "--max-iterations", "1", "--batch-size", "4", "--seq-len", "5"]
    )
    assert code == 0, err
    rows = (out_dir / "summary.csv").read_text().splitlines()
    assert rows[1:] == ["lstm,1,nan,nan,error:MemoryError", "ugrnn,1,nan,nan,error:MemoryError"]
    assert (out_dir / "best.csv").read_text() == "cell,best_layers,final_loss\n"


def test_sweep_records_divergence_as_an_error_row(tmp_path):
    corpus_path = build_corpus_file(tmp_path)
    out_dir = tmp_path / "sweep"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(
            ["sweep", "--corpus", corpus_path, "--out-dir", out_dir,
             "--cells", "ugrnn", "--layers", "1", "--learning-rate", "1e300",
             "--hidden-size", "8", "--embedding-dim", "4",
             "--batch-size", "2", "--seq-len", "5", "--epochs", "1"]
        )
    assert code == 0, err
    assert err == "" and [str(w.message) for w in caught] == []
    rows = (out_dir / "summary.csv").read_text().splitlines()
    assert rows[1:] == ["ugrnn,1,nan,nan,error:TrainingDiverged"]
    assert (out_dir / "best.csv").read_text() == "cell,best_layers,final_loss\n"
    assert not (out_dir / "curve_ugrnn_1.csv").exists()


@pytest.mark.parametrize("flag, value", [("--cells", ""), ("--cells", " , "), ("--layers", ""), ("--layers", ",")])
def test_sweep_refuses_an_empty_grid(tmp_path, flag, value):
    corpus_path = build_corpus_file(tmp_path)
    out_dir = tmp_path / "sweep"
    code, stdout, err = run_cli(
        ["sweep", "--corpus", corpus_path, "--out-dir", out_dir, flag, value] + SMALL_SWEEP
    )
    assert_json_error(code, err, "ValueError")
    assert flag in json.loads(err)["message"]
    assert stdout == ""
    assert not out_dir.exists()


# --- bad inputs: one JSON line each, and nothing written --------------------

def assert_refused_writing_nothing(tmp_path, argv, error, fragment):
    before = sorted(tmp_path.rglob("*"))
    code, stdout, err = run_cli(argv)
    assert_json_error(code, err, error)
    assert fragment in json.loads(err)["message"]
    assert stdout == ""
    assert sorted(tmp_path.rglob("*")) == before


def test_train_without_a_corpus_names_its_variable(tmp_path, monkeypatch):
    monkeypatch.delenv("MELODYKIT_CORPUS", raising=False)
    argv = ["train", "--checkpoint", tmp_path / "m.ckpt"] + SMALL_TRAIN
    assert_refused_writing_nothing(tmp_path, argv, "ValueError", "--corpus is required (or set MELODYKIT_CORPUS)")


def test_train_without_the_vocabulary_sidecar(tmp_path):
    corpus_path = build_corpus_file(tmp_path)
    sidecar = corpus_path.with_name(corpus_path.stem + ".vocab.json")
    sidecar.unlink()
    argv = ["train", "--corpus", corpus_path, "--checkpoint", tmp_path / "m.ckpt"] + SMALL_TRAIN
    assert_refused_writing_nothing(tmp_path, argv, "ValueError", f"vocabulary sidecar {sidecar} not found")


def test_dataset_midi_dir_without_midi_files(tmp_path):
    midi_dir = tmp_path / "midi"
    midi_dir.mkdir()
    (midi_dir / "notes.txt").write_text("60 62 64\n")
    argv = ["dataset", "--midi-dir", midi_dir, "--out", tmp_path / "corpus.json"]
    assert_refused_writing_nothing(tmp_path, argv, "ValueError", f"no .mid or .midi files in {midi_dir}")


def test_dataset_refuses_a_sysex_overrunning_its_track(tmp_path):
    midi_dir = tmp_path / "midi"
    midi_dir.mkdir()
    (midi_dir / "song.mid").write_bytes(assemble(0, [bytes([0x00, 0xF0, 0x05, 0x01])]))  # 5 bytes declared, 1 left
    argv = ["dataset", "--midi-dir", midi_dir, "--out", tmp_path / "corpus.json"]
    message = f"{midi_dir / 'song.mid'}: track 0: sysex overruns track"
    assert_refused_writing_nothing(tmp_path, argv, "MalformedFile", message)


def test_checkpoint_without_a_header_line(tmp_path):
    ckpt = train_checkpoint(tmp_path)
    ckpt.write_bytes(ckpt.read_bytes().split(b"\n", 1)[0])
    argv = ["sample", "--checkpoint", ckpt, "--out-dir", tmp_path / "gen", "--count", "2", "--notes", "3"]
    assert_refused_writing_nothing(tmp_path, argv, "MalformedFile", "missing header line")


def test_checkpoint_blob_with_a_value_added(tmp_path):
    # Re-signed, so only the value count can tell.
    ckpt = train_checkpoint(tmp_path)
    head, blob = ckpt.read_bytes().split(b"\n", 1)
    blob += np.zeros(1, "<f8").tobytes()
    header = json.loads(head)
    header["blob_sha256"] = hashlib.sha256(blob).hexdigest()
    ckpt.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + blob)
    count = header["param_count"]
    argv = ["sample", "--checkpoint", ckpt, "--out-dir", tmp_path / "gen", "--count", "2", "--notes", "3"]
    assert_refused_writing_nothing(tmp_path, argv, "MalformedFile", f"expected {count} values, found {count + 1}")


# --- a failed write --------------------------------------------------------

WRITE_ORDER = {
    "train": ["model.ckpt", "curve.csv"],
    "sample": ["songs.jsonl"] + [f"song_{i:03d}.mid" for i in range(4)],
    "eval": ["reports.jsonl", "stats.json", "stats.csv", "representative.mid"],
    "sweep": ["curve_ugrnn_1.csv", "summary.csv", "best.csv"],
}


@pytest.mark.parametrize("command, k", [
    ("train", 1), ("train", 2),
    ("sample", 1), ("sample", 3), ("sample", 5),
    ("eval", 1), ("eval", 3), ("eval", 4),
    ("sweep", 1), ("sweep", 2), ("sweep", 3),
])
def test_write_failure_keeps_that_output_and_later_ones_old(tmp_path, monkeypatch, command, k):
    # The command reruns over its own outputs on another input (another seed,
    # or for eval another songs file) and its k-th file write fails halfway:
    # files 1..k-1 are new, the rest keep their old bytes, and no temporary
    # file is left.
    if command == "train":
        argv = ["train", "--corpus", build_corpus_file(tmp_path)] + SMALL_TRAIN
    elif command == "sweep":
        argv = ["sweep", "--corpus", build_corpus_file(tmp_path), "--cells", "ugrnn", "--layers", "1"] + SMALL_SWEEP
    elif command == "sample":
        argv = ["sample", "--checkpoint", train_checkpoint(tmp_path), "--mode", "temperature",
                "--count", "4", "--notes", "12"]
    else:
        argv, inputs = ["eval"], {}
        for run, count in (("1", 5), ("2", 6)):
            (tmp_path / run).mkdir()
            inputs[run] = ["--songs", eval_songs(tmp_path / run, count)[0]]

    def input_of(run):
        return inputs[run] if command == "eval" else ["--seed", run]

    def into(where):
        if command != "train":
            return ["--out-dir", where]
        where.mkdir(exist_ok=True)
        return ["--checkpoint", where / "model.ckpt", "--curve", where / "curve.csv"]

    order = WRITE_ORDER[command]
    out_dir, fresh = tmp_path / "out", tmp_path / "fresh"
    for where, run in ((out_dir, "1"), (fresh, "2")):
        code, _, err = run_cli(argv + into(where) + input_of(run))
        assert code == 0, err
    old = {name: (out_dir / name).read_bytes() for name in order}
    new = {name: (fresh / name).read_bytes() for name in order}
    assert all(old[name] != new[name] for name in order)
    fail_kth_output(monkeypatch, k)
    code, _, err = run_cli(argv + into(out_dir) + input_of("2"))
    monkeypatch.undo()
    assert_json_error(code, err, "OSError")
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(order)
    for i, name in enumerate(order, start=1):
        assert (out_dir / name).read_bytes() == (new if i < k else old)[name], name
