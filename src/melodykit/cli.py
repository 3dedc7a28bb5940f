"""Command-line pipeline: dataset, train, sweep, sample, eval.

`sample` is the one command that generates melodies from a checkpoint;
`eval` scores the songs of a JSON Lines file, such as the songs.jsonl
that `sample` writes, and nothing else.  Every command exits 0 on
success and 1 with a one-line JSON error object on stderr otherwise, bad
flags included; a flag is read by its full name only, never by a prefix.
Every output file is replaced whole or not at all (core.write_atomic),
but a command is not atomic: a failure at its k-th file leaves files
1..k-1 new beside older ones.  A path flag left unset falls back to the
environment variable MELODYKIT_<FLAG>, read on each call: --midi-dir to
MELODYKIT_MIDI_DIR, for example (paths only, never numeric settings).
Given identical inputs, flags, and seeds, each command writes
byte-identical outputs on the same platform, that is, with the same code,
numpy/BLAS build, BLAS thread count and CPU; outputs that matched across
thread counts did so by observation, not by promise.
Another build may sum floats in another order, so its losses, and with
them the training trajectory, can differ in the last bits and beyond.
`train` and `sweep` run forward and backward in float32 over
float64 master weights, which clipping, Adam and the checkpoint hold (see
`rnn`).  No weight may pass 2**56, float32's safe range: a step that
leaves one there fails as TrainingDiverged and saves nothing, and a
checkpoint holding one (NaN and infinities included) is refused as
MalformedFile.  `sample` computes in float32, and BLAS picks its kernel
by the number of songs, so a song's logits can differ in the last bits
between --count values; its tokens agreed in every case checked.
README keeps the history of how each version changed these bits.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import core, metrics, midi, rnn
from .core import DatasetVariant, Song, TrainingCorpus, Vocabulary
from .errors import BadToken, MalformedFile, MelodyKitError, PolyphonyDetected

DEFAULT_SEED_SONG = [60, 62, 64, 62]
DEFAULT_EPOCHS = {DatasetVariant.CONTROL: 300, DatasetVariant.INTERVAL: 300, DatasetVariant.DB12: 50}


# The dests of the path flags, which fall back to MELODYKIT_<FLAG>.
_PATH_DESTS = ("songs", "midi_dir", "out", "corpus", "checkpoint", "curve", "out_dir")


def _require(value, flag: str):
    if value is None:
        raise ValueError(f"{flag} is required (or set MELODYKIT_{flag[2:].upper().replace('-', '_')})")
    return value


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}") from None


def _write_corpus(corpus: TrainingCorpus, out: Path) -> Path:
    """Write json.dumps({"variant", "x", "y"}, sort_keys=True) and the vocabulary sidecar.

    y is x shifted by one, so both id lists are slices of one join over the
    id stream.
    """
    ids = np.append(corpus.x, corpus.y[-1:])
    names = np.array([str(i) for i in range(corpus.vocabulary.size)], dtype=object)
    ids_text = ", ".join(names[ids].tolist())
    x_text = ids_text[: len(ids_text) - len(names[ids[-1]]) - 2]
    y_text = ids_text[len(names[ids[0]]) + 2 :]
    text = f'{{"variant": {json.dumps(corpus.variant.value)}, "x": [{x_text}], "y": [{y_text}]}}\n'
    core.write_atomic(out, text.encode("utf-8"))
    sidecar = out.with_name(out.stem + ".vocab.json")
    vocab = {"variant": corpus.variant.value, "tokens": list(corpus.vocabulary.tokens)}
    core.write_atomic(sidecar, (json.dumps(vocab, sort_keys=True) + "\n").encode("utf-8"))
    return sidecar


def _read_json_object(path: Path, keys: tuple[str, ...]) -> dict:
    payload = core.read_json(path.read_bytes(), str(path))
    if not isinstance(payload, dict):
        raise MalformedFile(f"{path}: expected a JSON object, got {type(payload).__name__}")
    missing = [key for key in keys if key not in payload]
    if missing:
        raise MalformedFile(f"{path}: lacks {', '.join(missing)}")
    return payload


def _read_corpus(path: Path) -> TrainingCorpus:
    payload = _read_json_object(path, ("variant", "x", "y"))
    sidecar = path.with_name(path.stem + ".vocab.json")
    if not sidecar.exists():
        raise ValueError(f"vocabulary sidecar {sidecar} not found next to {path}")
    vocab_payload = _read_json_object(sidecar, ("variant", "tokens"))
    if vocab_payload["variant"] != payload["variant"]:
        raise MalformedFile(
            f"{sidecar}: variant {vocab_payload['variant']!r} is not {path}'s {payload['variant']!r}")
    corpus = TrainingCorpus(
        x=core.json_ints(payload["x"], f"{path}: x"),
        y=core.json_ints(payload["y"], f"{path}: y"),
        vocabulary=Vocabulary(tokens=tuple(core.json_ints(vocab_payload["tokens"], f"{sidecar}: tokens").tolist())),
        variant=DatasetVariant(payload["variant"]),
    )
    if corpus.x.shape != corpus.y.shape:
        raise MalformedFile(f"{path}: x and y must be id lists of one length")
    size = corpus.vocabulary.size
    for name, ids in (("x", corpus.x), ("y", corpus.y)):
        bad = ids[(ids < 0) | (ids >= size)]
        if bad.size:
            raise BadToken(f"{path}: {name} holds id {int(bad[0])} outside [0, {size})")
    if not np.array_equal(corpus.x[1:], corpus.y[:-1]):
        raise MalformedFile(f"{path}: y is not x shifted left by one")
    return corpus


def _load_input_songs(songs_path: str | None, midi_dir: str | None) -> list[Song]:
    if (songs_path is None) == (midi_dir is None):
        raise ValueError("pass exactly one of --songs or --midi-dir")
    if songs_path is not None:
        return core.load_songs_jsonl(songs_path)
    paths = sorted(p for p in Path(midi_dir).iterdir() if p.suffix.lower() in (".mid", ".midi"))
    if not paths:
        raise ValueError(f"no .mid or .midi files in {midi_dir}")
    songs = []
    for p in paths:
        try:
            songs.append(midi.parse_midi(p.read_bytes()))
        except (MalformedFile, PolyphonyDetected) as exc:
            raise type(exc)(f"{p}: {exc}") from exc
    return songs


def cmd_dataset(args: argparse.Namespace) -> int:
    out = Path(_require(args.out, "--out"))
    _require_parent_dir(out, "--out")  # the sidecar goes beside it
    variant = DatasetVariant(args.variant)
    raw = _load_input_songs(args.songs, args.midi_dir)
    kept = core.clean_corpus(raw)
    corpus = core.build_corpus(kept, variant)
    sidecar = _write_corpus(corpus, out)
    print(f"songs: {len(kept)} kept, {len(raw) - len(kept)} dropped")
    print(f"tokens: {corpus.x.size + 1} ({variant.value}), vocabulary: {corpus.vocabulary.size}")
    print(f"wrote {out} and {sidecar}")
    return 0


def _train_config(args: argparse.Namespace, variant: DatasetVariant) -> rnn.TrainConfig:
    # sweep has no --cell or --num-layers: they keep their defaults until its grid sets them.
    settings = {f.name: getattr(args, f.name) for f in dataclasses.fields(rnn.TrainConfig)
                if hasattr(args, f.name)}
    if settings["epochs"] is None:
        settings["epochs"] = DEFAULT_EPOCHS[variant]
    return rnn.TrainConfig(**settings)


def _write_curve(curve: rnn.LearningCurve, path: Path) -> None:
    lines = ["iteration,loss"]
    lines += [f"{i},{loss!r}" for i, loss in curve]
    core.write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def _require_parent_dir(path: Path, flag: str) -> None:
    if not path.parent.is_dir():
        raise FileNotFoundError(f"{flag} {path}: directory {path.parent} does not exist")


def cmd_train(args: argparse.Namespace) -> int:
    # Check every output's directory before training and print only after
    # the last write.  The checkpoint is written first, then the curve, so a
    # failed checkpoint leaves both files old and a failed curve leaves the
    # new checkpoint beside the old curve.
    corpus = _read_corpus(Path(_require(args.corpus, "--corpus")))
    checkpoint = Path(_require(args.checkpoint, "--checkpoint"))
    curve_path = None if args.curve is None else Path(args.curve)
    config = _train_config(args, corpus.variant)
    _require_parent_dir(checkpoint, "--checkpoint")
    if curve_path is not None:
        _require_parent_dir(curve_path, "--curve")
    model, curve = rnn.train(corpus, config, seed=args.seed)
    rnn.save_checkpoint(model, checkpoint)
    if curve_path is not None:
        _write_curve(curve, curve_path)
    print(f"trained {config.cell} x{config.num_layers} for {len(curve)} iterations")
    if curve:
        print(f"loss: {curve[0][1]:.4f} -> {curve[-1][1]:.4f}")
    if curve_path is not None:
        print(f"wrote {args.curve}")
    print(f"wrote {checkpoint}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    # Check settings and grid before creating --out-dir; only a grid point's own failure becomes a row.
    corpus = _read_corpus(Path(_require(args.corpus, "--corpus")))
    out_dir = Path(_require(args.out_dir, "--out-dir"))
    config = _train_config(args, corpus.variant)
    cells = [c.strip() for c in args.cells.split(",") if c.strip()]
    layer_counts = _parse_int_list(args.layers, "--layers")
    for flag, text, grid in (("--cells", args.cells, cells), ("--layers", args.layers, layer_counts)):
        if not grid:
            raise ValueError(f"{flag} names no grid point, got {text!r}")
    rnn.corpus_lanes(corpus, config)  # every grid point trains on windows of this one size
    out_dir.mkdir(parents=True, exist_ok=True)
    rows: list[dict] = []
    for cell in cells:
        for num_layers in layer_counts:
            row = {"cell": cell, "layers": num_layers, "initial_loss": float("nan"), "final_loss": float("nan")}
            try:
                _, curve = rnn.train(corpus, dataclasses.replace(config, cell=cell, num_layers=num_layers),
                                     seed=args.seed)
                _write_curve(curve, out_dir / f"curve_{cell}_{num_layers}.csv")
                if curve:
                    row["initial_loss"], row["final_loss"] = curve[0][1], curve[-1][1]
                row["status"] = "ok"
            except (MelodyKitError, ValueError, MemoryError) as exc:
                # One bad run (a diverged, degenerate or too large model) must not kill the sweep.
                row["status"] = f"error:{type(exc).__name__}"
            rows.append(row)
            print(f"{row['cell']:6s} layers={row['layers']}  "
                  f"final={row['final_loss']}  [{row['status']}]")

    lines = ["cell,layers,initial_loss,final_loss,status"]
    lines += [
        f"{r['cell']},{r['layers']},{r['initial_loss']!r},{r['final_loss']!r},{r['status']}"
        for r in rows
    ]
    core.write_atomic(out_dir / "summary.csv", ("\n".join(lines) + "\n").encode("utf-8"))

    best_lines = ["cell,best_layers,final_loss"]
    for cell in cells:
        ok = [r for r in rows if r["cell"] == cell and r["status"] == "ok"]
        if ok:
            best = min(ok, key=lambda r: r["final_loss"])
            best_lines.append(f"{cell},{best['layers']},{best['final_loss']!r}")
            print(f"best for {cell}: {best['layers']} layers (final {best['final_loss']:.4f})")
    core.write_atomic(out_dir / "best.csv", ("\n".join(best_lines) + "\n").encode("utf-8"))
    print(f"wrote {out_dir / 'summary.csv'} and {out_dir / 'best.csv'}")
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    # Check every flag before reading the checkpoint, and sample before creating --out-dir.
    checkpoint = _require(args.checkpoint, "--checkpoint")
    out_dir = Path(_require(args.out_dir, "--out-dir"))
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    if args.notes < 0:
        raise ValueError(f"--notes must be >= 0, got {args.notes}")
    seed_song = _parse_int_list(args.seed_song, "--seed-song")
    rnn.check_sampling(seed_song, args.mode, args.temperature)
    # Size the (count, notes) output before making one object per lane, so an unindexable size fails at once.
    try:
        np.empty((args.count, args.notes), dtype=np.int64)
    except ValueError as exc:
        raise ValueError(f"--count {args.count} x --notes {args.notes}: {exc}") from None
    if args.mode == "temperature":
        rngs = [np.random.default_rng([args.seed, i]) for i in range(args.count)]
    else:  # greedy decoding draws nothing; sample_batch only counts the lanes
        rngs = [None] * args.count
    model = rnn.load_checkpoint(checkpoint)
    songs = rnn.sample_batch(model, seed_song, args.notes, args.mode, args.temperature, rngs)

    out_dir.mkdir(parents=True, exist_ok=True)
    core.save_songs_jsonl(songs, out_dir / "songs.jsonl")
    for i, song in enumerate(songs):
        core.write_atomic(out_dir / f"song_{i:03d}.mid", midi.write_midi(song))
    print(f"wrote {len(songs)} songs ({len(songs[0]) if songs else 0} notes each) to {out_dir}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    # Check, load and score before creating --out-dir, so a failure leaves no output.
    songs_path = _require(args.songs, "--songs")
    out_dir = Path(_require(args.out_dir, "--out-dir"))
    cfg = metrics.SpanConfig(n=args.span_n, lb=args.span_lb, ub=args.span_ub)
    songs = core.load_songs_jsonl(songs_path)
    reports, stats = metrics.dataset_stats(songs, cfg)
    rep_index = metrics.representative_song(reports, stats.mean)

    out_dir.mkdir(parents=True, exist_ok=True)
    core.write_atomic(out_dir / "reports.jsonl",
                      "".join(json.dumps(r._asdict(), sort_keys=True) + "\n" for r in reports).encode("utf-8"))
    stats_payload = {"count": stats.count, "representative_index": rep_index}
    csv_lines = ["metric,mean,std"]
    summary = [f"songs: {stats.count}"]
    for name, mean, std in zip(metrics.MetricReport._fields, stats.mean, stats.std):
        stats_payload[name] = {"mean": mean, "std": std}
        csv_lines.append(f"{name},{mean!r},{std!r}")
        summary.append(f"{name + ':':7}{mean:.4f} +- {std:.4f}")
    core.write_atomic(out_dir / "stats.json", (json.dumps(stats_payload, sort_keys=True) + "\n").encode("utf-8"))
    core.write_atomic(out_dir / "stats.csv", ("\n".join(csv_lines) + "\n").encode("utf-8"))
    core.write_atomic(out_dir / "representative.mid", midi.write_midi(songs[rep_index]))

    print("\n".join(summary))
    print(f"representative: song {rep_index} -> {out_dir / 'representative.mid'}")
    return 0


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    """One flag per rnn.TrainConfig field but cell and num_layers; --epochs defaults per variant."""
    d = rnn.TrainConfig()
    p.add_argument("--hidden-size", type=int, default=d.hidden_size)
    p.add_argument("--embedding-dim", type=int, default=d.embedding_dim)
    p.add_argument("--batch-size", type=int, default=d.batch_size)
    p.add_argument("--seq-len", type=int, default=d.seq_len)
    p.add_argument("--epochs", type=int, default=None,
                   help="default 300, or 50 for db12 corpora")
    p.add_argument("--learning-rate", type=float, default=d.learning_rate)
    p.add_argument("--lr-decay", type=float, default=d.lr_decay)
    p.add_argument("--clip-norm", type=float, default=d.clip_norm)
    p.add_argument("--max-iterations", type=int, default=d.max_iterations)


class _ArgumentParser(argparse.ArgumentParser):
    """Reads a flag by its full name only, and raises ValueError on a usage error instead of exiting 2.

    Subparsers inherit the class, so a bad flag value, an unknown flag (a
    prefix such as --lr included) and a missing subcommand all end as
    main()'s one-line JSON error.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="melodykit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dataset", help="transform songs into a token corpus")
    p.add_argument("--songs", help="JSON Lines song file")
    p.add_argument("--midi-dir", help="directory of .mid files")
    p.add_argument("--variant", default="control", choices=[v.value for v in DatasetVariant])
    p.add_argument("--out", help="corpus JSON output path")
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("train", help="train one model on a corpus")
    p.add_argument("--corpus")
    p.add_argument("--checkpoint")
    p.add_argument("--curve", help="learning-curve CSV path")
    p.add_argument("--cell", default=rnn.TrainConfig.cell, choices=sorted(rnn.CELL_TYPES))
    p.add_argument("--num-layers", type=int, default=rnn.TrainConfig.num_layers)
    _add_model_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="train a grid of cells x layer counts")
    p.add_argument("--corpus")
    p.add_argument("--out-dir")
    p.add_argument("--cells", default="lstm,ugrnn", help="comma-separated cell kinds")
    p.add_argument("--layers", default="1,2,3", help="comma-separated layer counts")
    _add_model_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("sample", help="generate songs from a checkpoint")
    p.add_argument("--checkpoint")
    p.add_argument("--out-dir")
    p.add_argument("--mode", default="greedy", choices=["greedy", "temperature"])
    p.add_argument("--seed-song", default=",".join(str(n) for n in DEFAULT_SEED_SONG))
    p.add_argument("--notes", type=int, default=30)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("eval", help="score the songs of a JSON Lines file")
    p.add_argument("--songs", help="JSON Lines song file to score")
    p.add_argument("--out-dir")
    p.add_argument("--span-n", type=int, default=12)
    p.add_argument("--span-lb", type=int, default=5)
    p.add_argument("--span-ub", type=int, default=8)
    p.set_defaults(func=cmd_eval)

    return parser


_PARSER = build_parser()


def report(exc: Exception) -> int:
    """Print exc on stderr as the one-line JSON error object; returns 1, the exit code that goes with it."""
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        for dest in _PATH_DESTS:
            if getattr(args, dest, "") is None:
                setattr(args, dest, os.environ.get(f"MELODYKIT_{dest.upper()}"))
        return args.func(args)
    except (MelodyKitError, ValueError, OSError, MemoryError) as exc:
        return report(exc)


if __name__ == "__main__":
    sys.exit(main())
