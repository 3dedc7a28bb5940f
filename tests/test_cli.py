import argparse
import hashlib
import json

import numpy as np
import pytest

from melodykit.cli import DEFAULT_EPOCHS, _train_config
from melodykit.core import DatasetVariant, load_songs_jsonl, save_songs_jsonl
from melodykit.midi import parse_midi, write_midi
from melodykit.rnn import load_checkpoint, save_checkpoint

from . import oracles
from .conftest import run_cli

PITCHES = [58, 60, 62, 64, 65]


def make_train_songs(path, count=3, length=34):
    rng = np.random.default_rng(0)
    songs = [[int(rng.choice(PITCHES)) for _ in range(length)] for _ in range(count)]
    songs[0][:4] = [60, 62, 64, 62]  # keep the default seed in vocabulary
    save_songs_jsonl(songs, path)
    return songs


SMALL_TRAIN = [
    "--cell", "ugrnn", "--num-layers", "1", "--hidden-size", "8",
    "--embedding-dim", "4", "--batch-size", "2", "--seq-len", "5",
    "--epochs", "1",
]


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
    ],
    ids=["no-x", "no-y", "no-variant", "no-tokens", "list", "null-x", "2d-x", "short-y", "int-tokens",
         "no-sidecar-variant"],
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


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_corpus_rejects_sidecar_of_another_variant(tmp_path, command):
    # a db12 token table next to a control corpus would decode every id wrongly
    corpus_path = build_corpus_file(tmp_path)
    db12_path = build_corpus_file(tmp_path, variant="db12")
    sidecar = corpus_path.with_name(corpus_path.stem + ".vocab.json")
    sidecar.write_bytes(db12_path.with_name(db12_path.stem + ".vocab.json").read_bytes())
    out = tmp_path / "out"
    target = ["--checkpoint", out] if command == "train" else ["--out-dir", out]
    code, _, err = run_cli([command, "--corpus", corpus_path] + target + SMALL_TRAIN)
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
    # Greedy argmax would take the first NaN logit for the maximum.
    ckpt = train_checkpoint(tmp_path)
    model = load_checkpoint(ckpt)
    model.proj_b.value[0] = bad
    save_checkpoint(model, ckpt)
    code, _, err = run_cli(
        ["sample", "--checkpoint", ckpt, "--out-dir", tmp_path / "gen", "--mode", mode]
    )
    assert_json_error(code, err, "ValueError")
    assert "non-finite logits" in json.loads(err)["message"]


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


@pytest.mark.parametrize("count", ["0", "-3"])
@pytest.mark.parametrize("command", ["sample", "eval"])
def test_sampling_rejects_count_below_one(tmp_path, command, count):
    ckpt = train_checkpoint(tmp_path)
    code, _, err = run_cli(
        [command, "--checkpoint", ckpt, "--out-dir", tmp_path / "gen", "--count", count]
    )
    assert_json_error(code, err, "ValueError")
    assert "--count" in json.loads(err)["message"]
    assert not (tmp_path / "gen" / "songs.jsonl").exists()


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


def test_eval_from_checkpoint_samples_first(tmp_path):
    ckpt = train_checkpoint(tmp_path)
    out_dir = tmp_path / "report"
    code, _, err = run_cli(
        ["eval", "--checkpoint", ckpt, "--out-dir", out_dir,
         "--count", "4", "--notes", "10"]
    )
    assert code == 0, err
    sampled = load_songs_jsonl(out_dir / "songs.jsonl")
    assert len(sampled) == 4 and all(len(s) == 14 for s in sampled)
    stats = json.loads((out_dir / "stats.json").read_text())
    assert stats["count"] == 4


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


def test_eval_requires_one_source(tmp_path):
    path, _ = eval_songs(tmp_path)
    code, _, err = run_cli(
        ["eval", "--songs", path, "--checkpoint", path, "--out-dir", tmp_path / "r"]
    )
    assert code == 1
    assert "exactly one" in json.loads(err)["message"]


@pytest.mark.parametrize(
    "source, extra",
    [
        ("checkpoint", ["--count", "0"]),
        ("both", []),
        ("checkpoint", ["--span-lb", "9", "--span-ub", "5"]),
        ("short-songs", []),
    ],
    ids=["count-0", "songs-and-checkpoint", "bad-span", "short-song"],
)
def test_eval_failure_leaves_no_output(tmp_path, source, extra):
    ckpt = train_checkpoint(tmp_path)
    short = tmp_path / "short.jsonl"
    save_songs_jsonl([[60] * 12, [60, 62, 64]], short)
    argv = {
        "checkpoint": ["--checkpoint", ckpt],
        "both": ["--songs", short, "--checkpoint", ckpt],
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
        ["sweep", "--corpus", corpus_path, "--out-dir", out_dir, "--layers", "x"] + SMALL_TRAIN
    )
    assert_json_error(code, err, "ValueError")
    assert "--layers" in json.loads(err)["message"]
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
