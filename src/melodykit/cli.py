"""Command-line pipeline: dataset, train, sweep, sample, eval.

Every command exits 0 on success and 1 with a one-line JSON error object
on stderr otherwise, bad flags included.  Every output file is replaced
whole or not at all (core.write_atomic), but a command is not atomic: a
failure at its k-th file leaves files 1..k-1 new beside older ones.  A
path flag left unset falls back to the environment variable
MELODYKIT_<FLAG>, read on each call: --midi-dir to MELODYKIT_MIDI_DIR, for
example (paths only, never numeric settings).  Given identical inputs,
flags, and seeds, each command writes byte-identical outputs on the same
platform, that is, with the same code, the same numpy/BLAS build and the
same CPU.  Another build may sum floats in another order, so its losses,
and with them the training trajectory, can differ in the last bits and
beyond.  Since melodykit 0.3.0 `train` and `sweep` run forward and
backward in float32 over float64 master weights, which clipping, Adam and
the checkpoint hold, so their checkpoints and curves differ in the last
bits from 0.2.x's; a step that leaves a weight past float32's safe range
fails as TrainingDiverged and saves nothing.  Since 0.4.0 each layer step
sums h @ W[m:] and x @ W[:m] + b apart (see `rnn`), so checkpoints and
curves differ in the last bits from 0.3.x's too.  Since 0.5.0 the clipping
norm is summed over each whole gradient and Adam folds its bias
corrections into its step size, so checkpoints differ in the last bits
from 0.4.x's.  A checkpoint holding a NaN or infinite weight is refused
as MalformedFile, since `train` never saves one.  `sample` and
`eval --checkpoint` compute in float32 where the weights allow it (see
`rnn`), and BLAS picks its kernel by the number of songs, so a song's
logits can differ in the last bits between --count values; its tokens
agreed in every case checked.
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
    settings = {f.name: getattr(args, f.name) for f in dataclasses.fields(rnn.TrainConfig)}
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
    # Parse the grid before creating --out-dir, so a bad flag leaves no output.
    corpus = _read_corpus(Path(_require(args.corpus, "--corpus")))
    out_dir = Path(_require(args.out_dir, "--out-dir"))
    cells = [c.strip() for c in args.cells.split(",") if c.strip()]
    layer_counts = _parse_int_list(args.layers, "--layers")
    out_dir.mkdir(parents=True, exist_ok=True)
    rows: list[dict] = []
    for cell in cells:
        for num_layers in layer_counts:
            row = {"cell": cell, "layers": num_layers}
            try:
                config = _train_config(args, corpus.variant)
                config.cell = cell
                config.num_layers = num_layers
                _, curve = rnn.train(corpus, config, seed=args.seed)
                _write_curve(curve, out_dir / f"curve_{cell}_{num_layers}.csv")
                row["initial_loss"] = curve[0][1] if curve else float("nan")
                row["final_loss"] = curve[-1][1] if curve else float("nan")
                row["status"] = "ok"
            except (MelodyKitError, ValueError) as exc:
                # One bad run must not kill the sweep.
                row["initial_loss"] = float("nan")
                row["final_loss"] = float("nan")
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


def _sample_songs(model: rnn.ModelState, args: argparse.Namespace) -> list[Song]:
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    seed_song = _parse_int_list(args.seed_song, "--seed-song")
    # Size the (count, notes) output before making one object per lane, so an unindexable size fails at once.
    try:
        np.empty((args.count, max(args.notes, 0)), dtype=np.int64)
    except ValueError as exc:
        raise ValueError(f"--count {args.count} x --notes {args.notes}: {exc}") from None
    if args.mode == "temperature":
        rngs = [np.random.default_rng([args.seed, i]) for i in range(args.count)]
    else:  # greedy decoding draws nothing; sample_batch only counts the lanes
        rngs = [None] * args.count
    return rnn.sample_batch(model, seed_song, args.notes, args.mode, args.temperature, rngs)


def _write_song_files(songs: list[Song], out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    core.save_songs_jsonl(songs, out_dir / "songs.jsonl")
    for i, song in enumerate(songs):
        core.write_atomic(out_dir / f"song_{i:03d}.mid", midi.write_midi(song))


def cmd_sample(args: argparse.Namespace) -> int:
    model = rnn.load_checkpoint(_require(args.checkpoint, "--checkpoint"))
    out_dir = Path(_require(args.out_dir, "--out-dir"))
    songs = _sample_songs(model, args)
    _write_song_files(songs, out_dir)
    print(f"wrote {len(songs)} songs ({len(songs[0]) if songs else 0} notes each) to {out_dir}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    # Check, load and score before creating --out-dir, so a failure leaves no output.
    out_dir = Path(_require(args.out_dir, "--out-dir"))
    if (args.songs is None) == (args.checkpoint is None):
        raise ValueError("pass exactly one of --songs or --checkpoint")
    cfg = metrics.SpanConfig(n=args.span_n, lb=args.span_lb, ub=args.span_ub)
    if args.songs is not None:
        songs = core.load_songs_jsonl(args.songs)
    else:
        model = rnn.load_checkpoint(args.checkpoint)
        songs = _sample_songs(model, args)
    reports, stats = metrics.dataset_stats(songs, cfg)
    rep_index = metrics.representative_song(reports, stats.mean)

    out_dir.mkdir(parents=True, exist_ok=True)
    if args.checkpoint is not None:
        core.save_songs_jsonl(songs, out_dir / "songs.jsonl")
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
    """One flag per rnn.TrainConfig field with its default; --epochs defaults per variant."""
    d = rnn.TrainConfig()
    p.add_argument("--cell", default=d.cell, choices=sorted(rnn.CELL_TYPES))
    p.add_argument("--num-layers", type=int, default=d.num_layers)
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


def _add_sampling_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed-song", default=",".join(str(n) for n in DEFAULT_SEED_SONG))
    p.add_argument("--notes", type=int, default=30)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--temperature", type=float, default=1.0)


class _ArgumentParser(argparse.ArgumentParser):
    """Raises ValueError on a usage error instead of exiting 2 with the usage text.

    Subparsers inherit the class, so a bad flag value, an unknown flag and a
    missing subcommand all end as main()'s one-line JSON error.
    """

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
    _add_sampling_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("eval", help="score songs (or a checkpoint's samples)")
    p.add_argument("--songs", help="JSON Lines song file to score")
    p.add_argument("--checkpoint", help="sample from this checkpoint, then score")
    p.add_argument("--out-dir")
    p.add_argument("--mode", default="temperature", choices=["greedy", "temperature"])
    _add_sampling_flags(p)
    p.add_argument("--span-n", type=int, default=12)
    p.add_argument("--span-lb", type=int, default=5)
    p.add_argument("--span-ub", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_eval)

    return parser


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        for dest in _PATH_DESTS:
            if getattr(args, dest, "") is None:
                setattr(args, dest, os.environ.get(f"MELODYKIT_{dest.upper()}"))
        return args.func(args)
    except (MelodyKitError, ValueError, OSError, MemoryError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
