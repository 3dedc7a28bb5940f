"""Spans around calls into melodykit's layers, recorded from outside the package.

`Probe` is the light instrumentation every run keeps: it stamps training
iterations (at each Adam step) and times each sampled song, which the
end-to-end step percentiles need, and captures the model `rnn.train`
returns so the checkpoint check can compare against it.

`Tracer` is the traced run's instrumentation.  `install()` wraps the public
functions of each layer (and the `GradientTape` op methods, plus the
backward closure each recorded op leaves on the tape) so that every call
opens a span; `uninstall()` puts the originals back.  A span is a name,
start and end in integer nanoseconds, the index of its parent span and the
round ("run id") it belongs to.  Spans stay in memory and are written out
by `dump()`.  Integer times make each span's self time (its duration minus
its children's) exact, so it is never negative.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

TAPE_OPS = ("matmul", "add_bias", "sigmoid", "tanh", "mul", "add",
            "one_minus", "concat", "lookup", "cross_entropy")

LAYERS = ("cli", "core", "rnn", "tensor", "metrics", "midi")

# Module-level functions wrapped per layer.  The CLI reaches each through its
# module attribute (`rnn.train(...)`), and `rnn` reaches `adam_step` and
# `clip_gradients` through its own globals, so patching these names is seen.
_LAYER_FUNCTIONS = {
    "core": ("load_songs_jsonl", "save_songs_jsonl", "clean_corpus", "build_corpus"),
    "metrics": ("evaluate_song", "stats_of_reports", "representative_song"),
    "midi": ("parse_midi", "write_midi"),
    "rnn": ("sample", "stack_forward", "load_checkpoint", "save_checkpoint"),
}


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Probe:
    """Iteration stamps, per-song times and the last trained model."""

    def __init__(self, mk) -> None:
        self.iteration_s: list[float] = []
        self.song_s: list[float] = []
        self.model = None
        self._last = 0.0
        self._patches = _Patches()
        rnn = mk.rnn
        init_model, adam_step, train, sample = rnn.init_model, rnn.adam_step, rnn.train, rnn.sample

        def probed_init_model(*args, **kwargs):
            out = init_model(*args, **kwargs)
            self._last = time.perf_counter()
            return out

        def probed_adam_step(*args, **kwargs):
            out = adam_step(*args, **kwargs)
            now = time.perf_counter()
            self.iteration_s.append(now - self._last)
            self._last = now
            return out

        def probed_train(*args, **kwargs):
            out = train(*args, **kwargs)
            self.model = out[0]
            return out

        def probed_sample(*args, **kwargs):
            t0 = time.perf_counter()
            out = sample(*args, **kwargs)
            self.song_s.append(time.perf_counter() - t0)
            return out

        self._patches.set(rnn, "init_model", probed_init_model)
        self._patches.set(rnn, "adam_step", probed_adam_step)
        self._patches.set(rnn, "train", probed_train)
        self._patches.set(rnn, "sample", probed_sample)

    def reset(self) -> None:
        self.iteration_s.clear()
        self.song_s.clear()
        self.model = None

    def close(self) -> None:
        self._patches.undo()


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, mk) -> None:
        self._mk = mk
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("q")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._run = array("q")
        self._stack: list[int] = []
        self._base = 0  # global index of the first span held in the arrays
        self._chunks: list[dict[str, np.ndarray]] = []
        self._patches = _Patches()
        self.run_id = 0
        self.counts = {"records": 0, "iterations": 0, "tokens": 0,
                       "midi_bytes": 0, "train_flop": 0, "matmul_flop": 0}
        self._iter = self.name_id("rnn.iter")
        self._train = self.name_id("rnn.train")

    # -- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> None:
        self._stack.append(self._base + len(self._name))
        self._name.append(nid)
        self._parent.append(self._stack[-2] if len(self._stack) > 1 else -1)
        self._run.append(self.run_id)
        self._end.append(0)
        self._start.append(time.perf_counter_ns())

    def close(self) -> None:
        now = time.perf_counter_ns()
        self._end[self._stack.pop() - self._base] = now

    def _top_is(self, nid: int) -> bool:
        return bool(self._stack) and self._name[self._stack[-1] - self._base] == nid

    def _end_open_iteration(self) -> None:
        """Close the iteration span left open after the last Adam step.

        When nothing ran inside it, it is not an iteration at all (only
        the loop's exit), so it is discarded and its time stays with
        rnn.train.
        """
        if not self._top_is(self._iter):
            return
        if self._stack[-1] - self._base == len(self._name) - 1:
            self._stack.pop()
            for arr in (self._name, self._start, self._end, self._parent, self._run):
                arr.pop()
        else:
            self.close()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close()

        return traced

    def _wrap_op(self, fn, op: str):
        traced_fwd = self._wrap(fn, f"tensor.fwd.{op}")
        bwd_name = f"tensor.bwd.{op}"
        counts, wrap = self.counts, self._wrap

        def traced(tape, *args, **kwargs):
            records = getattr(tape, "_records", None)
            before = len(records) if records is not None else 0
            out = traced_fwd(tape, *args, **kwargs)
            recorded = records is not None and len(records) > before
            if recorded:
                counts["records"] += 1
                result, back = records[-1]
                records[-1] = (result, wrap(back, bwd_name))
            if op == "matmul":
                (m, k), n = args[0].value.shape, args[1].value.shape[1]
                flop = 2 * m * k * n
                # Backward runs two matmuls of the same size.
                counts["matmul_flop"] += 3 * flop if recorded else flop
                if recorded:
                    counts["train_flop"] += 3 * flop
            return out

        return traced

    def install(self) -> None:
        mk, counts = self._mk, self.counts
        for layer, names in _LAYER_FUNCTIONS.items():
            module = getattr(mk, layer)
            for name in names:
                self._patches.set(module, name, self._wrap(getattr(module, name), f"{layer}.{name}"))

        core, midi, rnn, tape_cls = mk.core, mk.midi, mk.rnn, mk.tensor.GradientTape
        build_corpus, write_midi, parse_midi = core.build_corpus, midi.write_midi, midi.parse_midi
        train, init_model = rnn.train, self._wrap(rnn.init_model, "rnn.init_model")
        adam_step = self._wrap(rnn.adam_step, "tensor.adam")

        def counted_build_corpus(*args, **kwargs):
            corpus = build_corpus(*args, **kwargs)
            counts["tokens"] += int(corpus.x.size) + 1
            return corpus

        def counted_write_midi(song):
            data = write_midi(song)
            counts["midi_bytes"] += len(data)
            return data

        def counted_parse_midi(data):
            counts["midi_bytes"] += len(data)
            return parse_midi(data)

        def traced_train(*args, **kwargs):
            self.open(self._train)
            try:
                return train(*args, **kwargs)
            finally:
                self._end_open_iteration()
                self.close()

        def traced_init_model(*args, **kwargs):
            out = init_model(*args, **kwargs)
            if self._top_is(self._train):
                self.open(self._iter)
            return out

        def traced_adam_step(*args, **kwargs):
            out = adam_step(*args, **kwargs)
            counts["iterations"] += 1
            if self._top_is(self._iter):
                self.close()
                self.open(self._iter)
            return out

        self._patches.set(core, "build_corpus", counted_build_corpus)
        self._patches.set(midi, "write_midi", counted_write_midi)
        self._patches.set(midi, "parse_midi", counted_parse_midi)
        self._patches.set(rnn, "train", traced_train)
        self._patches.set(rnn, "init_model", traced_init_model)
        self._patches.set(rnn, "adam_step", traced_adam_step)
        self._patches.set(rnn, "clip_gradients", self._wrap(rnn.clip_gradients, "tensor.clip"))
        self._patches.set(tape_cls, "backward", self._wrap(tape_cls.backward, "tensor.backward"))
        for op in TAPE_OPS:
            self._patches.set(tape_cls, op, self._wrap_op(getattr(tape_cls, op), op))

    def uninstall(self) -> None:
        self._patches.undo()

    # -- results -------------------------------------------------------------

    def end_round(self) -> dict[str, tuple[float, float, int]]:
        """Move this round's spans to numpy; return {name: (total s, self s, calls)}."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open at the end of a round")
        chunk = {key: np.array(arr, dtype=np.int64) for key, arr in
                 (("name", self._name), ("start", self._start), ("end", self._end),
                  ("parent", self._parent), ("run", self._run))}
        self._chunks.append(chunk)
        n = len(chunk["name"])
        for arr in (self._name, self._start, self._end, self._parent, self._run):
            del arr[:]
        base, self._base = self._base, self._base + n

        dur = (chunk["end"] - chunk["start"]).astype(np.float64)
        child = chunk["parent"] >= 0
        children = np.bincount(chunk["parent"][child] - base, weights=dur[child], minlength=n)
        own = dur - children
        k = len(self.names)
        total = np.bincount(chunk["name"], weights=dur, minlength=k) * 1e-9
        selft = np.bincount(chunk["name"], weights=own, minlength=k) * 1e-9
        calls = np.bincount(chunk["name"], minlength=k)
        return {name: (float(total[i]), float(selft[i]), int(calls[i]))
                for i, name in enumerate(self.names) if calls[i]}

    def dump(self, path: Path) -> int:
        """Write every finished span to an .npz file; returns the span count."""
        cols = {key: np.concatenate([c[key] for c in self._chunks]) if self._chunks
                else np.zeros(0, dtype=np.int64)
                for key in ("name", "start", "end", "parent", "run")}
        np.savez(path, names=np.array(self.names), **cols)
        return int(cols["name"].size)


def per_layer_metrics(totals: dict[str, list[float]], counts: dict[str, int], rounds: int,
                      overhead_pct: float, spans: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced rounds, per round unless named otherwise.

    `totals` maps a span name to [total s, self s, calls] summed over the
    traced rounds.  A metric whose layer a workload does not reach is 0.
    """
    def total(name: str) -> float:
        return totals.get(name, (0.0, 0.0, 0))[0] / rounds

    def own(name: str) -> float:
        return totals.get(name, (0.0, 0.0, 0))[1] / rounds

    def calls(name: str) -> float:
        return totals.get(name, (0.0, 0.0, 0))[2] / rounds

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    for op in TAPE_OPS:
        m[f"tensor.fwd.{op}_s"] = (total(f"tensor.fwd.{op}"), "s")
        m[f"tensor.fwd.{op}_calls"] = (calls(f"tensor.fwd.{op}"), "count")
        m[f"tensor.bwd.{op}_s"] = (total(f"tensor.bwd.{op}"), "s")
    iterations = counts["iterations"]
    matmul_s = total("tensor.fwd.matmul") + total("tensor.bwd.matmul")
    m.update({
        "tensor.records_per_iter": (ratio(counts["records"], iterations), "count"),
        "tensor.backward_s": (total("tensor.backward"), "s"),
        "tensor.clip_s": (total("tensor.clip"), "s"),
        "tensor.adam_s": (total("tensor.adam"), "s"),
        "tensor.matmul_gflop_per_iter": (ratio(counts["train_flop"], iterations) * 1e-9, "GFLOP_computed"),
        "tensor.matmul_gflop_per_s": (ratio(counts["matmul_flop"] / rounds * 1e-9, matmul_s), "GFLOP/s"),
        "rnn.iter_self_s": (own("rnn.iter"), "s"),
        "rnn.sample_s": (total("rnn.sample"), "s"),
        "rnn.stack_forward_calls_per_song": (ratio(calls("rnn.stack_forward"), calls("rnn.sample")), "count"),
        "rnn.load_checkpoint_s": (total("rnn.load_checkpoint"), "s"),
        "rnn.save_checkpoint_s": (total("rnn.save_checkpoint"), "s"),
        "midi.write_midi_s": (total("midi.write_midi"), "s"),
        "midi.parse_midi_s": (total("midi.parse_midi"), "s"),
        "midi.bytes": (counts["midi_bytes"] / rounds, "bytes"),
        "core.build_corpus_s": (total("core.build_corpus"), "s"),
        "core.tokens": (counts["tokens"] / rounds, "count"),
        "metrics.evaluate_song_s": (total("metrics.evaluate_song"), "s"),
    })
    for command in ("dataset", "train", "sample", "eval"):
        m[f"cli.{command}_s"] = (total(f"cli.{command}"), "s")
        m[f"cli.{command}_self_s"] = (own(f"cli.{command}"), "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum((own(n) for n in totals if n.startswith(layer + ".")), 0.0), "s")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    m["trace.spans_per_round"] = (spans / rounds, "count")
    return m
