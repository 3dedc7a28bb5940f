#!/usr/bin/env python3
"""Run a fixed list of CLI commands in a parent revision and in the working tree; compare every output byte.

    python3 scripts/same_outputs.py --parent HEAD

Both trees are exported as `scripts/bench_pairs.py` exports them, into a
temporary directory that is deleted afterwards.  Each command runs as
`python -m melodykit.cli` from its tree's root, with that tree's `src` on
the path and one BLAS thread; all paths are relative, so the trees' stdout
can be compared as text.  The MELODYKIT_* variables are unset, except that
one `sample` and one `dataset --midi-dir` of each sampling round take
their paths from them in place of flags.  The list builds the bundled
corpus in all three variants, trains an LSTM x1 and an LSTM x3 at batch
50 (db12), a UGRNN x3 at batch 4 (control) and an LSTM x2 whose gradients
are clipped at norm 0.5 (interval), sweeps {lstm, ugrnn, gru} x {1, 2}
layers on the control corpus (`gru` is no cell, so its rows are error
rows), scores the bundled songs (`eval --songs`, many lengths in one call) with the default
spans and with 20-note spans, samples greedily and at a temperature at 20
lanes and once at a temperature at 100 lanes (`--count 100`, the lane
count of the benchmark's `sample-score-ingest`), and reads two of the
sampled MIDI directories back with `dataset --midi-dir` (db12 and
interval).  Then both trees get copies of
the parent's checkpoints, corpora with their vocabulary sidecars, and
sampled `songs.jsonl` files.  From those each tree samples and reads back
again, runs a short `train` on every corpus and an `eval --songs` on every
songs file, so a change must also read what the parent wrote.

Every command's exit code and stdout, and every file either tree wrote,
are compared.  Prints one line per difference and a summary; exits 1 if
anything differs, 0 otherwise.

A second round, for information only, runs the working tree's commands
again in a fresh export at two BLAS threads, reading the same copies of
the parent's outputs, and prints each file that differs from its own
one-thread run.  Training bits may follow the BLAS thread count (README,
"Reproducibility"), so this round lists which outputs do; it does not
change the exit status.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import describe, export_revision, export_working_tree

SONGS = "data/mini_corpus.jsonl"
TRAIN = ["--max-iterations", "30", "--seed", "1"]
SHORT_TRAIN = ["--cell", "lstm", "--num-layers", "1", "--hidden-size", "16", "--embedding-dim", "8",
               "--batch-size", "4", "--max-iterations", "5", "--seed", "1"]

COMMANDS = [
    ["dataset", "--songs", SONGS, "--variant", "control", "--out", "out/control.json"],
    ["dataset", "--songs", SONGS, "--variant", "interval", "--out", "out/interval.json"],
    ["dataset", "--songs", SONGS, "--variant", "db12", "--out", "out/db12.json"],
    ["train", "--corpus", "out/db12.json", "--checkpoint", "out/lstm1.ckpt", "--curve", "out/lstm1.csv",
     "--cell", "lstm", "--num-layers", "1", "--batch-size", "50", *TRAIN],
    ["train", "--corpus", "out/db12.json", "--checkpoint", "out/lstm3.ckpt", "--curve", "out/lstm3.csv",
     "--cell", "lstm", "--num-layers", "3", "--batch-size", "50", *TRAIN],
    ["train", "--corpus", "out/control.json", "--checkpoint", "out/ugrnn3.ckpt", "--curve", "out/ugrnn3.csv",
     "--cell", "ugrnn", "--num-layers", "3", "--batch-size", "4", *TRAIN],
    ["train", "--corpus", "out/interval.json", "--checkpoint", "out/lstm2.ckpt", "--curve", "out/lstm2.csv",
     "--cell", "lstm", "--num-layers", "2", "--batch-size", "4", "--clip-norm", "0.5", *TRAIN],
    ["sweep", "--corpus", "out/control.json", "--out-dir", "out/sweep", "--cells", "lstm,ugrnn,gru",
     "--layers", "1,2", "--batch-size", "4", "--hidden-size", "16", "--embedding-dim", "8",
     "--max-iterations", "5"],
    ["eval", "--songs", SONGS, "--out-dir", "out/eval_songs"],
    ["eval", "--songs", SONGS, "--out-dir", "out/eval_songs_n20", "--span-n", "20", "--span-lb", "3",
     "--span-ub", "15"],
]


def sampling(ckpt_dir: str, out_dir: str) -> list:
    """Greedy and temperature sampling (20 and 100 lanes) from the checkpoints in ckpt_dir.

    Two of the sampled MIDI directories are then read back with
    `dataset --midi-dir`, as db12 and as interval corpora.  The last two
    commands, an (env, argv) pair each, repeat a greedy `sample` and the
    db12 read-back with their paths in MELODYKIT_* variables.
    """
    return [
        ["sample", "--checkpoint", f"{ckpt_dir}/lstm1.ckpt", "--out-dir", f"{out_dir}/greedy",
         "--mode", "greedy", "--count", "20"],
        ["sample", "--checkpoint", f"{ckpt_dir}/ugrnn3.ckpt", "--out-dir", f"{out_dir}/temperature",
         "--mode", "temperature", "--temperature", "0.8", "--count", "20", "--seed", "2"],
        ["sample", "--checkpoint", f"{ckpt_dir}/lstm2.ckpt", "--out-dir", f"{out_dir}/interval",
         "--mode", "temperature", "--count", "20", "--seed", "3"],
        ["sample", "--checkpoint", f"{ckpt_dir}/lstm1.ckpt", "--out-dir", f"{out_dir}/temperature100",
         "--mode", "temperature", "--count", "100", "--seed", "4"],
        ["dataset", "--midi-dir", f"{out_dir}/temperature", "--variant", "db12",
         "--out", f"{out_dir}/midi_db12.json"],
        ["dataset", "--midi-dir", f"{out_dir}/interval", "--variant", "interval",
         "--out", f"{out_dir}/midi_interval.json"],
        ({"MELODYKIT_CHECKPOINT": f"{ckpt_dir}/lstm1.ckpt", "MELODYKIT_OUT_DIR": f"{out_dir}/greedy_env"},
         ["sample", "--mode", "greedy", "--count", "20"]),
        ({"MELODYKIT_MIDI_DIR": f"{out_dir}/temperature", "MELODYKIT_OUT": f"{out_dir}/midi_db12_env.json"},
         ["dataset", "--variant", "db12"]),
    ]


def reading(in_dir: str, corpora: list[str], songs: list[str], out_dir: str) -> list:
    """A short `train` on each corpus and an `eval --songs` of each songs file, all named relative to in_dir."""
    return [
        *(["train", "--corpus", f"{in_dir}/{name}", "--checkpoint", f"{out_dir}/{Path(name).stem}.ckpt",
           "--curve", f"{out_dir}/{Path(name).stem}.csv", *SHORT_TRAIN] for name in corpora),
        *(["eval", "--songs", f"{in_dir}/{name}", "--out-dir", f"{out_dir}/eval_{Path(name).stem}"]
          for name in songs),
    ]


def run(tree: Path, argv: list[str], paths: dict[str, str] | None = None, threads: int = 1) -> tuple[int, str]:
    """Exit code and output of one command at `threads` BLAS threads.

    `paths` sets MELODYKIT_* variables, which are otherwise unset.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("MELODYKIT_")}
    env.update(paths or {})
    env.update(PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               MKL_NUM_THREADS=str(threads))
    proc = subprocess.run([sys.executable, "-m", "melodykit.cli", *argv], cwd=tree, env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def written(tree: Path) -> set[str]:
    return {str(p.relative_to(tree)) for top in ("out", "reread") for p in (tree / top).rglob("*") if p.is_file()}


def differing(a: Path, b: Path) -> list[str]:
    """The files written in tree a or tree b that are not byte-identical in the other."""
    names = sorted(written(a) | written(b))
    return [name for name in names
            if not ((a / name).is_file() and (b / name).is_file() and filecmp.cmp(a / name, b / name, shallow=False))]


def run_both(trees: dict[str, Path], commands: list) -> list[str]:
    """Run each command, an argv or an (env, argv) pair, in both trees.

    Returns the commands whose exit code or output differ.
    """
    differences = []
    for command in commands:
        paths, argv = command if isinstance(command, tuple) else ({}, command)
        got = {side: run(tree, argv, paths) for side, tree in trees.items()}
        line = " ".join([*(f"{k}={v}" for k, v in paths.items()), "melodykit", *argv])
        if got["parent"][0]:
            raise SystemExit(f"{line} failed in the parent:\n{got['parent'][1]}")
        same = got["parent"] == got["change"]
        print(f"{'same' if same else 'DIFFERENT'} stdout: {line}")
        if not same:
            differences.append(line)
    return differences


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    ap.add_argument("--parent", required=True, help="parent revision, e.g. HEAD or a commit")
    args = ap.parse_args(argv)

    work = Path(tempfile.mkdtemp(prefix="same_outputs_"))
    trees = {"parent": work / "parent", "change": work / "change"}
    twin = work / "change_2_threads"
    try:
        export_revision(args.parent, trees["parent"])
        export_working_tree(trees["change"])
        export_working_tree(twin)
        for tree in (*trees.values(), twin):
            (tree / "out").mkdir()
        commands = COMMANDS + sampling("out", "out")
        differences = run_both(trees, commands)
        # Every tree reads the parent's checkpoints, corpora (with their
        # sidecars) and sampled songs, each songs file renamed after its directory.
        parent_out = trees["parent"] / "out"
        copies = {p.name: p for p in sorted([*parent_out.glob("*.ckpt"), *parent_out.glob("*.json")])}
        songs = {f"{p.parent.name}.jsonl": p for p in sorted(parent_out.glob("*/songs.jsonl"))}
        for tree in (*trees.values(), twin):
            (tree / "from_parent").mkdir()
            for name, path in {**copies, **songs}.items():
                shutil.copyfile(path, tree / "from_parent" / name)
        corpora = [name for name in copies if name.endswith(".json") and not name.endswith(".vocab.json")]
        reread = sampling("from_parent", "reread") + reading("from_parent", corpora, list(songs), "reread")
        differences += run_both(trees, reread)
        files = sorted(written(trees["parent"]) | written(trees["change"]))
        for name in differing(trees["parent"], trees["change"]):
            print(f"DIFFERENT file: {name}")
            differences.append(name)
        print(f"parent {describe(args.parent)} against the working tree: "
              f"{len(commands) + len(reread)} commands, {len(files)} files written, "
              + ("all byte-identical" if not differences else f"{len(differences)} differ"))

        for command in commands + reread:
            paths, argv = command if isinstance(command, tuple) else ({}, command)
            run(twin, argv, paths, threads=2)
        follow = differing(trees["change"], twin)
        for name in follow:
            print(f"at 2 BLAS threads, DIFFERENT file: {name}")
        print(f"the working tree at 2 BLAS threads against 1 (information only): "
              f"{len(follow)} of {len(written(twin) | written(trees['change']))} files differ")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
