"""Embedding, gated recurrent cells, the training loop, and sampling.

A model is an embedding table, a stack of identical gated cells, and a
linear projection to vocabulary logits; everything trains jointly by
taping each window of the sequence and running Adam on the summed
cross-entropy.  A layer is one W (input_size + hidden, gates * hidden) and
one b, gate blocks side by side, for z = [x, h] @ W + b, which every
path computes as h @ W[m:] + zx, zx = x @ W[:m] + b being the input's
share (m the input width).  `_shapes` is
the one list of a model's parameter shapes, in `parameters()` order, and
`_empty_model` the one allocator, which `init_model` and `load_checkpoint`
both call.  `_v1_blocks` (through `_gate_blocks`, which cuts a layer into
its per-gate blocks) is the one order in which `init_model` draws and
checkpoint v1 is written and read.

Each cell kind is defined once, by its entry in the literal `CELL_TYPES`
dict: a pointwise numpy step kernel (pre-activations and state in; new
state and activation blocks out) and its hand-written adjoint, all
writing into arrays their caller passes in.  The adjoint is a factor
pass, which computes the gate derivatives of a chunk of steps at once
from the stored activations, and a per-step part, which multiplies the
incoming gradient by them in a handful of ufunc calls.  Every path steps
a layer through `_layer_step`, z = h @ W[m:] + zx and then that kernel,
on step weights whose sigmoid gate columns are halved (`CellSpec.scales`),
once per window in training and once per call in sampling and
`stack_forward` (`_halved`), so each kernel makes one tanh over all of z.
The first layer's zx depends only on the token, so every path reads it
from a token table, E @ W[:m] + b, of V rows (at most 255, and 21 to 31
on the bundled corpora), made once per window in training and once per
call in sampling and `stack_forward`.  Training records one
`GradientTape.recurrence` per layer per window, which computes the
layer's zx in one GEMM (the table, or over an upper layer's T*B input
rows), loops `_layer_step` forward over the window and the adjoint back
(the factor pass once per `tensor.FACTOR_CHUNK` steps), so a window is
one record per layer, then one projection and one cross-entropy over the
(T*B, hidden) stack of top states.
`sample_batch` and `stack_forward` step plain arrays through
`_forward_step`: every song is one lane of a single batch, and `sample` is
the one-lane call.

Precision: `train` runs forward and backward on a float32 tape over a
float32 shadow of the parameters; the parameters themselves (the master
weights), the gradients `clip_gradients` scales, Adam's moments and step,
and the checkpoints stay float64, and the curve records the float64 sum
of the window's per-row losses.  One range rule, `_fits_float32` (every
|weight| at most 2**56, every layer input narrower than 2**15), holds for
every model: `train` checks the masters after every step,
`load_checkpoint` refuses a parameter holding a weight past 2**56, and
`sample_batch` refuses a model past the rule and otherwise steps one
float32 copy of the weights, made once per call; `_pick` reads the
logits as float64.  `stack_forward` computes in float64.
The same code, seed and inputs, numpy/BLAS build, BLAS thread count and
CPU give the same checkpoints, curves and songs.  The thread count is part
of the promise: OpenBLAS splits a large product across its threads, so an
LSTM x1 at batch 50 trains along another path at 1 and 2 threads.  UGRNN
x3 at batch 4 and 100-lane sampling gave the same bytes at both, which is
observed, not promised.  A lane's bit-equality across lane counts
is not promised: BLAS picks its kernel by row count, so a lane's logits
can differ in the last bits between batches of different sizes, although
its tokens agreed in every case checked.  README keeps the history of
how each version changed these bits.

Memory: `train` keeps one float32 GradientTape for the whole run and
resets it every window, so the kernels write into the tape's workspace,
which is allocated in the first iteration and released when `train`
returns.  Beside it the run keeps the float32 shadow and one float64
gradient list, each the size of the parameters.  Sampling and
`stack_forward` allocate their halved step weights once per call and
each step's arrays.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .core import (
    DatasetVariant, Song, TrainingCorpus, Vocabulary, check_song, interval_to_song, json_ints, read_json,
    song_to_interval, write_atomic,
)
from .errors import (
    BadToken,
    CorpusTooSmall,
    MalformedFile,
    ShapeMismatch,
    TrainingDiverged,
    UnknownSeedToken,
)
from .tensor import AdamState, GradientTape, Tensor, adam_step, clip_gradients, softmax

MAX_LAYERS = 5
CHECKPOINT_FORMAT = "melodykit-checkpoint"
CHECKPOINT_VERSION = 1
_HEADER_KEYS = (
    "cell", "num_layers", "hidden_size", "embedding_dim", "variant",
    "vocabulary", "param_count", "blob_sha256",
)

# Per-layer recurrent state of a batch: (h, c) arrays of shape (B, hidden),
# c is None for cells that keep no separate memory lane.
_State = tuple[np.ndarray, "np.ndarray | None"]


# The kernels, factor passes and adjoints write only into the arrays they
# are given, and keep the product and sum order of the formulas in their
# comments, so every caller gets the same bits wherever its arrays live.
# A ufunc's last positional argument is its output (passed positionally,
# as keyword parsing costs about a sixth of a small ufunc call).
#
# A kernel's z arrives with each sigmoid gate's block already halved
# (`CellSpec.scales`), so one tanh over all of z gives every gate:
# sigmoid(z) = 0.5*tanh(z/2) + 0.5, finished as t*0.5 + 0.5, which rounds
# as (t + 1)*0.5 does, and halving is exact unless a value is subnormal.

def _lstm_step(z, h, c, h_new, c_new, acts):
    # f, i, o = sigmoid(z blocks), g = tanh(z block); c_new = f*c + i*g; h_new = o*tanh(c_new)
    batch, n = h.shape
    f, i, g, o, tc = acts
    np.tanh(z.reshape(batch, 4, n).swapaxes(0, 1), acts[:4])  # every gate block, in gate order
    acts[:2] *= 0.5  # f and i in one pass
    acts[:2] += 0.5
    o *= 0.5
    o += 0.5
    np.multiply(f, c, c_new)
    c_new += np.multiply(i, g, h_new)  # h_new holds i*g until the last line
    np.tanh(c_new, tc)
    np.multiply(o, tc, h_new)


def _lstm_factors(h, c, acts, out):
    # Per step: out = [(1-f)*f*c, (1-i)*i*g, (1 - g*g)*i, (1-o)*o*tc, (1 - tc*tc)*o].
    # The (i, o) blocks are the stride-2 slice 1::2 and (g, tc) the slice 2::2.
    np.subtract(1.0, acts[:, :2], out[:, :2])
    out[:, :2] *= acts[:, :2]
    np.subtract(1.0, acts[:, 3], out[:, 3])
    out[:, 3] *= acts[:, 3]
    out[:, 0] *= c
    out[:, 1::2] *= acts[:, 2::2]
    np.multiply(acts[:, 2::2], acts[:, 2::2], out[:, 2::2])
    np.subtract(1.0, out[:, 2::2], out[:, 2::2])
    out[:, 2::2] *= acts[:, 1::2]


def _lstm_adjoint(dh, dc, acts, fac, dz):
    # dz[3] = dh*F3; dc += dh*F4; dz[:3] = F[:3]*dc; the old c's gradient is dc*f.
    # dh is scratch once dz[3] holds its share.
    np.multiply(dh, fac[3], dz[3])
    dh *= fac[4]
    dc += dh
    np.multiply(fac[:3], dc, dz[:3])
    dc *= acts[0]
    return None, dc


def _ugrnn_step(z, h, c, h_new, c_new, acts):
    # g = sigmoid(z block), cand = tanh(z block), keep = 1 - g; h_new = g*h + keep*cand
    batch, n = h.shape
    g, cand, keep = acts
    np.tanh(z.reshape(batch, 2, n).swapaxes(0, 1), acts[:2])  # both gate blocks, in gate order
    g *= 0.5
    g += 0.5
    np.subtract(1.0, g, keep)
    np.multiply(g, h, h_new)
    h_new += keep * cand


def _ugrnn_factors(h, c, acts, out):
    # Per step: out[:2] = [(h - cand)*g*keep, (1 - cand*cand)*keep]; out[2] is not used.
    np.subtract(h, acts[:, 1], out[:, 0])
    out[:, 0] *= acts[:, 0]
    np.multiply(acts[:, 1], acts[:, 1], out[:, 1])
    np.subtract(1.0, out[:, 1], out[:, 1])
    out[:, :2] *= acts[:, 2:3]


def _ugrnn_adjoint(dh, dc, acts, fac, dz):
    # dz = F[:2]*dh, both blocks in one broadcast call; the old h's direct gradient is dh*g.
    np.multiply(fac[:2], dh, dz)
    dh *= acts[0]
    return dh, None


@dataclass(frozen=True)
class CellSpec:
    """A cell kind: gate blocks in declaration order, their scales, its kernel and the kernel's adjoint in two parts.

    `scales` holds each gate block's pre-activation scale: 0.5 for a
    sigmoid gate, 1 for a tanh gate.  The kernel reads z with every block
    already multiplied by its scale, which the caller folds into the step
    weights once (`_halved`, or `GradientTape.recurrence` once per window),
    so the kernel itself makes one tanh over all of z.
    `step(z, h, c, h_new, c_new, acts)` maps those (B, gates*hidden)
    scaled pre-activations, gate blocks side by side, and the old state to
    the new state, written into h_new and c_new; it writes the activations
    the adjoint reads into acts, `acts` (B, hidden) blocks, the first
    `len(gates)` of them the gates' activations in gate order.

    The gate derivatives depend on those activations and the old state,
    never on the incoming gradient, so the adjoint is split in two.
    `factors(h, c, acts, out)` runs once per chunk of K steps: h and c are
    the chunk's (K, B, hidden) old states, acts its (K, acts, B, hidden)
    activation blocks, and it writes each step's derivative factors into
    out, (K, acts, B, hidden), of which a cell may use fewer blocks.
    `adjoint(dh, dc, acts, fac, dz) -> (dh_direct, dc)` is one step, given
    that step's activations and factors: it maps the gradients of the new
    state to that of the unscaled z, written into dz, the step's (gates, B,
    hidden) view of gate blocks, and returns, written over dh and dc, the
    gradient of the old h other than through z (None where the kernel reads
    h only through z; dh is then scratch) and that of the old c.  c, c_new
    and dc are None for cells without a memory lane.
    """

    gates: tuple[str, ...]
    scales: tuple[float, ...]
    has_memory: bool
    acts: int
    step: Callable
    factors: Callable
    adjoint: Callable


CELL_TYPES: dict[str, CellSpec] = {
    "lstm": CellSpec(("forget", "input", "candidate", "output"), (0.5, 0.5, 1.0, 0.5), True, 5, _lstm_step,
                     _lstm_factors, _lstm_adjoint),
    "ugrnn": CellSpec(("update", "candidate"), (0.5, 1.0), False, 3, _ugrnn_step, _ugrnn_factors, _ugrnn_adjoint),
}


def cell_spec(kind: str) -> CellSpec:
    try:
        return CELL_TYPES[kind]
    except KeyError:
        raise ValueError(f"unknown cell kind {kind!r}; known: {sorted(CELL_TYPES)}") from None


@dataclass
class CellParams:
    """One layer's fused gates: W (input_size + hidden, gates * hidden) and b (gates * hidden,)."""

    w: Tensor
    b: Tensor


def _gate_blocks(w: np.ndarray, b: np.ndarray, gates: int) -> list[np.ndarray]:
    """A layer's per-gate blocks as views: each gate's W block, then its b block, in declaration order."""
    n = b.shape[0] // gates
    return [a for k in range(gates) for a in (w[:, k * n : (k + 1) * n], b[k * n : (k + 1) * n])]


def _v1_blocks(cell: str, arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Checkpoint v1's blocks, as views, of per-parameter arrays in `parameters()` order.

    v1 holds the embedding, each layer's `_gate_blocks`, then the
    projection's W and b.  `init_model` draws in their order, and
    checkpoints are written and read through these views.
    """
    gates = len(cell_spec(cell).gates)
    layers = [a for w, b in zip(arrays[1:-2:2], arrays[2:-2:2]) for a in _gate_blocks(w, b, gates)]
    return [arrays[0], *layers, *arrays[-2:]]


@dataclass
class CellState:
    """Recurrent state of one layer; c is None for memory-less cells."""

    h: np.ndarray
    c: np.ndarray | None = None


@dataclass
class ModelState:
    """Everything a trained model needs to predict: weights plus token map."""

    cell: str
    embedding: Tensor
    layers: list[CellParams]
    proj_w: Tensor
    proj_b: Tensor
    vocabulary: Vocabulary
    variant: DatasetVariant

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def hidden_size(self) -> int:
        return self.proj_w.value.shape[0]

    @property
    def embedding_dim(self) -> int:
        return self.embedding.value.shape[1]

    @property
    def vocab_size(self) -> int:
        return self.embedding.value.shape[0]

    def parameters(self) -> list[Tensor]:
        """Embedding, each layer's W and b, projection W and b."""
        layers = [t for layer in self.layers for t in (layer.w, layer.b)]
        return [self.embedding, *layers, self.proj_w, self.proj_b]


def _shapes(cell: str, vocab_size: int, num_layers: int, hidden_size: int, embedding_dim: int) -> list[tuple]:
    """The parameter shapes in `parameters()` order; ValueError on an unknown cell or a size out of range."""
    if not (1 <= num_layers <= MAX_LAYERS):
        raise ValueError(f"num_layers must be in [1, {MAX_LAYERS}], got {num_layers}")
    if hidden_size < 1 or embedding_dim < 1:
        raise ValueError(f"hidden_size and embedding_dim must be >= 1, got {hidden_size} and {embedding_dim}")
    width = len(cell_spec(cell).gates) * hidden_size
    inputs = [embedding_dim] + [hidden_size] * (num_layers - 1)
    layers = [shape for n in inputs for shape in ((n + hidden_size, width), (width,))]
    return [(vocab_size, embedding_dim), *layers, (hidden_size, vocab_size), (vocab_size,)]


def _empty_model(
    vocabulary: Vocabulary, variant: DatasetVariant, cell: str, num_layers: int, hidden_size: int, embedding_dim: int,
    dtype=np.float64,
) -> ModelState:
    """A model of these sizes whose parameter arrays are allocated, in `dtype`, but not set."""
    shapes = _shapes(cell, vocabulary.size, num_layers, hidden_size, embedding_dim)
    embedding, *layers, proj_w, proj_b = [Tensor(np.empty(shape, dtype)) for shape in shapes]
    return ModelState(
        cell=cell, embedding=embedding, layers=[CellParams(w, b) for w, b in zip(layers[::2], layers[1::2])],
        proj_w=proj_w, proj_b=proj_b, vocabulary=vocabulary, variant=variant,
    )


def init_model(
    vocabulary: Vocabulary,
    variant: DatasetVariant,
    cell: str = "lstm",
    num_layers: int = 1,
    hidden_size: int = 128,
    embedding_dim: int = 64,
    rng: np.random.Generator | int | None = None,
    init_scale: float = 0.08,
) -> ModelState:
    """Uniform [-init_scale, init_scale] weights, drawn block by block in checkpoint v1's order; zero biases.

    The LSTM forget-gate bias starts at 1.0 so early training does not
    flush the memory lane.
    """
    model = _empty_model(vocabulary, variant, cell, num_layers, hidden_size, embedding_dim)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(0 if rng is None else rng)
    for block in _v1_blocks(cell, [p.value for p in model.parameters()]):
        block[...] = rng.uniform(-init_scale, init_scale, size=block.shape) if block.ndim == 2 else 0.0
    if cell == "lstm":
        for layer in model.layers:
            layer.b.value[:hidden_size] = 1.0  # the forget gate's block
    return model


def _zero_states(model: ModelState, batch: int, dtype=np.float64) -> list[_State]:
    has_memory = cell_spec(model.cell).has_memory
    shape = (batch, model.hidden_size)
    return [(np.zeros(shape, dtype), np.zeros(shape, dtype) if has_memory else None) for _ in model.layers]


def _layer_step(spec: CellSpec, w_h: np.ndarray, zx: np.ndarray, h: np.ndarray, c, out=None):
    """One cell step on plain arrays: z = h @ W_h + zx, then the kernel; returns (h, c, acts).

    The layer's z = [x, h] @ W + b is split in two: W_h is W[m:], the rows
    that the state h multiplies, and zx is the step's (B, width) input
    share x @ W[:m] + b, which every caller computes ahead of the step.  A
    first layer's share is a row of its token table E @ W[:m] + b, gathered
    by token id (`_token_table`, or the table `GradientTape.recurrence`
    makes); an upper layer's is its input rows through W[:m], plus b.
    Both inputs are halved step weights: W_h and zx come with each gate
    block's columns multiplied by its `CellSpec.scales` entry (W and b
    through `_halved`, or in `recurrence`), so z is the scaled
    pre-activation the kernel reads, and the step scales nothing itself.
    `out` is (z, h, c, acts), the arrays the step writes: the scaled
    pre-activations, the new state and the kernel's activation blocks.
    Training passes its workspace's; when it is None they are allocated in
    zx's dtype, so a float32 step stays on BLAS's float32 GEMM.
    """
    batch, n = h.shape
    if w_h.shape != (n, len(spec.gates) * n) or zx.shape != (batch, w_h.shape[1]):
        raise ShapeMismatch(f"cell step of h {h.shape} over W_h {w_h.shape} plus input share {zx.shape}")
    if out is None:
        dtype = zx.dtype
        out = (np.empty(zx.shape, dtype), np.empty((batch, n), dtype),
               None if c is None else np.empty((batch, n), dtype), np.empty((spec.acts, batch, n), dtype))
    z, h_new, c_new, acts = out
    np.matmul(h, w_h, z)
    z += zx
    spec.step(z, h, c, h_new, c_new, acts)
    return h_new, c_new, acts


def _halved(spec: CellSpec, weights: list[np.ndarray]) -> list[np.ndarray]:
    """The step weights: parameter arrays in `parameters()` order, each layer's W and b scaled by gate.

    Every gate block's columns are multiplied by its `CellSpec.scales`
    entry (a sigmoid gate's halved, exactly unless a value is subnormal),
    into new arrays; the embedding and projection are passed through.
    """
    embedding, *layers, proj_w, proj_b = weights
    scale = np.repeat(np.asarray(spec.scales, proj_w.dtype), proj_w.shape[0])
    return [embedding, *(a * scale for a in layers), proj_w, proj_b]


def _token_table(weights: list[np.ndarray]) -> np.ndarray:
    """The first layer's input share of every token, E @ W[:m] + b: a (V, width) table.

    `weights` are the step weights (`_halved`), so the table's columns
    come scaled by gate, as `_layer_step` reads its zx.
    """
    embedding, w, b = weights[:3]
    table = embedding @ w[: embedding.shape[1]]
    table += b
    return table


def _forward_step(spec: CellSpec, weights: list[np.ndarray], table: np.ndarray, ids: np.ndarray,
                  states: list[_State]):
    """One time step of a batch of token ids through the stack and the projection; returns (logits, states).

    `weights` are the step weights (`_halved`), all of one dtype, in
    which the step computes, and `table` is their
    `_token_table`, whose rows for the ids are the first layer's input
    share; an upper layer's is its lower layer's new h @ W[:m] + b.
    """
    embedding, *layers, proj_w, proj_b = weights
    m, zx = embedding.shape[1], table[ids]
    new_states: list[_State] = []
    for w, b, (h, c) in zip(layers[::2], layers[1::2], states):
        if new_states:
            m = v.shape[1]
            zx = v @ w[:m]
            zx += b
        v, c, _ = _layer_step(spec, w[m:], zx, h, c)
        new_states.append((v, c))
    return v @ proj_w + proj_b, new_states


# Bounds under which no product or sum of a step overflows float32 (max
# about 2**128): a layer's input x is an embedding row or a lower layer's
# h, and h stays in [-1, 1], so with |weight| <= 2**56 and an input width
# m + n < 2**15, |z| <= (m + n) * 2**112 + 2**56 < 2**127; the logits are
# smaller still.  The bound holds for the split sum too: the input share
# x @ W[:m] + b (a token table row, for the first layer) and h @ W[m:]
# each stay within it, and so does their sum.  c grows by at most 1 per
# step and enters only through tanh.
_F32_MAX_WEIGHT = 2.0 ** 56
_F32_MAX_WIDTH = 2 ** 15


def _in_float32_range(a: np.ndarray) -> bool:
    """Whether every value of a is within +-_F32_MAX_WEIGHT.

    Two reductions, max and min, so nothing array-sized is allocated.  A
    NaN makes both reductions NaN, which fails the comparisons.
    """
    return a.max(initial=0.0) <= _F32_MAX_WEIGHT and a.min(initial=0.0) >= -_F32_MAX_WEIGHT


def _fits_float32(weights: list[np.ndarray]) -> bool:
    """Whether a step on these parameter arrays (in `parameters()` order) stays within float32's range."""
    return all(w.shape[0] < _F32_MAX_WIDTH for w in weights[1:-2:2]) and all(map(_in_float32_range, weights))


def stack_forward(
    token_ids, model: ModelState, states: list[CellState] | None = None
) -> tuple[np.ndarray, list[CellState]]:
    """Run a token sequence through the stack; returns (logits (T, V), final states).

    Feeding one long sequence equals feeding it piecewise with the carried
    states.  Ids are checked against the vocabulary, and the states come
    back as plain per-layer arrays, so callers can score a sequence or
    compare two models without touching the internal batch state.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("token_ids must be a non-empty 1-D sequence")
    if (ids < 0).any() or (ids >= model.vocab_size).any():
        bad = ids[(ids < 0) | (ids >= model.vocab_size)][0]
        raise BadToken(f"token id {int(bad)} outside [0, {model.vocab_size})")
    spec = cell_spec(model.cell)
    if states is None:
        batch_states = _zero_states(model, 1)
    else:
        if len(states) != model.num_layers:
            raise ShapeMismatch(f"expected {model.num_layers} layer states, got {len(states)}")
        batch_states = [(s.h[None, :], s.c[None, :] if spec.has_memory else None) for s in states]
    weights = _halved(spec, [p.value for p in model.parameters()])
    table = _token_table(weights)
    rows = []
    for t in range(ids.size):
        logits, batch_states = _forward_step(spec, weights, table, ids[t : t + 1], batch_states)
        rows.append(logits[0])
    out_states = [CellState(h=h[0].copy(), c=None if c is None else c[0].copy()) for h, c in batch_states]
    return np.vstack(rows), out_states


@dataclass(frozen=True)
class TrainConfig:
    """Settings for one training run; frozen, every field checked when made, variants by `dataclasses.replace`."""

    cell: str = "lstm"
    num_layers: int = 1
    hidden_size: int = 128
    embedding_dim: int = 64
    batch_size: int = 50
    seq_len: int = 50
    epochs: int = 300
    learning_rate: float = 0.002
    lr_decay: float = 0.97
    clip_norm: float = 5.0
    max_iterations: int | None = None

    def __post_init__(self) -> None:
        if self.batch_size < 1 or self.seq_len < 1:
            raise ValueError("batch_size and seq_len must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.max_iterations is not None and self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        for name in ("learning_rate", "lr_decay", "clip_norm"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        # The model sizes; _shapes checks no vocabulary size, so 1 stands in for it.
        _shapes(self.cell, 1, self.num_layers, self.hidden_size, self.embedding_dim)


LearningCurve = list[tuple[int, float]]


def _window_loss(tape: GradientTape, model: ModelState, X: np.ndarray, Y: np.ndarray, states: list[_State]):
    """Summed cross-entropy of stepping through the columns of X against Y; returns (loss, final states).

    The window's (B, T) ids are taken time-major, so row t*B + b of every
    (T*B, *) matrix is lane b at step t.  The tape gets L + 3 records: one
    recurrence per layer, the projection's matmul and bias, and the loss.
    The first layer's recurrence reads the embedding table by token id, so
    no (T*B, embedding_dim) array is made; an id outside the vocabulary is
    BadToken.  The final states carry values only, and are copies: the
    tape's workspace does not hold them.
    """
    spec = cell_spec(model.cell)
    step = functools.partial(_layer_step, spec)
    v, ids = model.embedding, X.T.reshape(-1)
    final: list[_State] = []
    for layer, (h, c) in zip(model.layers, states):
        v, h, c = tape.recurrence(v, h, c, layer.w, layer.b, step, spec.factors, spec.adjoint, spec.acts,
                                  spec.scales, ids)
        ids = None  # every upper layer reads the rows of the layer below
        final.append((h, c))
    logits = tape.add_bias(tape.matmul(v, model.proj_w), model.proj_b)
    return tape.cross_entropy(logits, Y.T.reshape(-1)), final


def corpus_lanes(corpus: TrainingCorpus, config: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """The corpus's x and y ids as batch_size contiguous lanes, (batch_size, lane length) views.

    Raises CorpusTooSmall when the stream cannot fill one batch_size x
    seq_len window.
    """
    B, T = config.batch_size, config.seq_len
    L = int(corpus.x.size)
    if L < B * T:
        raise CorpusTooSmall(
            f"stream of {L + 1} tokens cannot fill one {B}x{T} window; need {B * T + 1}"
        )
    lane_len = L // B
    return corpus.x[: B * lane_len].reshape(B, lane_len), corpus.y[: B * lane_len].reshape(B, lane_len)


def train(corpus: TrainingCorpus, config: TrainConfig, seed: int = 0) -> tuple[ModelState, LearningCurve]:
    """Train a fresh model on the corpus; returns (model, per-iteration curve).

    The token stream splits into batch_size contiguous lanes
    (`corpus_lanes`); each iteration consumes one seq_len window across all
    lanes, sums the per-step cross-entropies, clips the global gradient
    norm, and takes one Adam step.  States carry across windows within an epoch (values,
    not gradients); at epoch start they reset and the learning rate decays.  The curve records the
    per-token loss, i.e. the window sum divided by batch_size * seq_len.

    Precision: the returned model holds the float64 master weights.  Each
    window runs forward and backward on a float32 tape over a float32
    shadow of them, with float32 carried states; its gradients are copied
    into float64 arrays, which `clip_gradients` scales and `adam_step`
    applies to the masters.  The masters must then pass `_fits_float32`,
    whose bound keeps the float32 forward from overflowing, and are copied
    into the shadow.  The loss the curve records is a float64 sum.

    Memory: one GradientTape is kept for the run and reset every window,
    so its workspace (the window's activations, caches and the shadow's
    gradients) is allocated in the first iteration and reused by every
    later one; so are the shadow and the float64 gradient list.
    `clip_gradients` sums the norm over the whole gradient list and scales
    it in place, and Adam updates through one scratch pair.  Each is called
    once per iteration, through this module's globals.  All of it is
    released when train returns.

    Raises ValueError if a layer's input is too wide for `_fits_float32`.
    Raises TrainingDiverged at the first iteration whose window loss is not
    finite, or whose Adam step leaves weights past `_fits_float32`'s bound,
    the last step included, so a diverged model is never returned; numpy's
    floating-point warnings are silenced meanwhile, since those checks
    report the overflow.
    """
    rng = np.random.default_rng(seed)
    model = init_model(
        corpus.vocabulary, corpus.variant,
        cell=config.cell, num_layers=config.num_layers,
        hidden_size=config.hidden_size, embedding_dim=config.embedding_dim, rng=rng,
    )
    B, T = config.batch_size, config.seq_len
    X, Y = corpus_lanes(corpus, config)
    windows = X.shape[1] // T
    iterations = config.epochs * windows
    if config.max_iterations is not None:
        iterations = min(iterations, config.max_iterations)
    values = [p.value for p in model.parameters()]
    # The initial weights are within init_scale, so only a width can fail.
    if not _fits_float32(values):
        raise ValueError(f"float32 training needs every layer's input width (input + hidden) below {_F32_MAX_WIDTH}")
    shadow = _empty_model(corpus.vocabulary, corpus.variant, config.cell, config.num_layers,
                          config.hidden_size, config.embedding_dim, np.float32)
    shadow_params = shadow.parameters()
    for s, v in zip(shadow_params, values):
        np.copyto(s.value, v)
    grads = [np.empty_like(v) for v in values]
    opt = AdamState.for_params(values, lr=config.learning_rate)
    tape = GradientTape(np.float32)
    curve: LearningCurve = []
    # The tape's records hold closures that refer back to the tape, so the
    # finally block drops them, and the shadow's gradients with them: the
    # workspace is then freed on return, not by a later garbage collection.
    try:
        with np.errstate(all="ignore"):
            for iteration in range(iterations):
                epoch, w = divmod(iteration, windows)
                if w == 0:
                    opt.lr = config.learning_rate * (config.lr_decay ** epoch)
                    states = _zero_states(model, B, np.float32)
                tape.reset()
                cols = slice(w * T, (w + 1) * T)
                total, states = _window_loss(tape, shadow, X[:, cols], Y[:, cols], states)
                loss = float(total.value)
                if not math.isfinite(loss):
                    raise TrainingDiverged(f"window loss is {loss} at iteration {iteration + 1}")
                tape.backward(total)
                for g, s in zip(grads, shadow_params):
                    np.copyto(g, s.grad)
                clip_gradients(grads, config.clip_norm)
                adam_step(values, grads, opt)
                if not _fits_float32(values):
                    raise TrainingDiverged(f"weights past float32's range (|w| > 2**56) at iteration "
                                           f"{iteration + 2}, after the Adam step of iteration {iteration + 1}")
                for s, v in zip(shadow_params, values):
                    np.copyto(s.value, v)
                curve.append((iteration + 1, loss / (B * T)))
    finally:
        tape.reset()
    return model, curve


def _pick(logits: np.ndarray, mode: str, temperature: float, uniforms: np.ndarray | None) -> np.ndarray:
    """Next token id of each lane from its (lanes, V) logits row.

    A temperature draw is what `rng.choice(V, p=row)` makes of the row's
    softmax: the lane's uniform in [0, 1) (one `rng.random()`), searched in
    the row's cumulative sum divided by its last entry, to the right of any
    tie.  Greedy mode takes no uniforms.
    """
    if not np.isfinite(logits).all():
        raise ValueError("the model produced non-finite logits")
    if mode == "greedy":
        return logits.argmax(axis=1)
    # A tiny temperature overflows the scaled logits; the check below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        probs = softmax(logits / temperature)
        probs = probs / probs.sum(axis=1, keepdims=True)
    if not np.isfinite(probs).all():
        raise ValueError(f"temperature {temperature} gives non-finite probabilities")
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return (cdf <= uniforms[:, None]).sum(axis=1)


def check_sampling(seed_song: Song, mode: str, temperature: float) -> None:
    """The part of `sample_batch`'s argument rule that needs no model.

    The mode must be greedy or temperature and the temperature finite and
    positive (in either mode); the seed song must be non-empty
    (ValueError) and every note in the MIDI range (`core.check_song`).
    The CLI's `sample` command calls it before it reads the checkpoint.
    """
    if mode not in ("greedy", "temperature"):
        raise ValueError(f"mode must be 'greedy' or 'temperature', got {mode!r}")
    if not (math.isfinite(temperature) and temperature > 0.0):
        raise ValueError(f"temperature must be finite and > 0, got {temperature}")
    if not seed_song:
        raise ValueError("the seed song is empty")
    check_song(seed_song, "seed song")


def sample_batch(
    model: ModelState,
    seed_song: Song,
    n: int,
    mode: str,
    temperature: float,
    rngs: list[np.random.Generator | None],
) -> list[Song]:
    """Sample one song per generator, all as lanes of one batch.

    Every lane is warmed on the same seed song, then generates n tokens,
    feeding back its own picks; lane i draws only from rngs[i], so its song
    does not depend on how many other lanes run beside it.  Greedy decoding
    draws nothing, so there rngs only gives the lane count and may hold
    None.  A song is the seed with the decoded continuation appended;
    interval models rebuild notes from the seed's last pitch.  Every step
    runs on one float32 copy of the weights, so a model that fails
    `_fits_float32` is a ValueError.  The arguments, the seed's tokens
    included, are checked before anything is sampled, also when n is 0.
    """
    check_sampling(seed_song, mode, temperature)
    if n < 0:
        raise ValueError("n must be >= 0")
    weights = [p.value for p in model.parameters()]
    if not _fits_float32(weights):
        raise ValueError(f"sampling steps float32, which needs every |weight| <= 2**56 and every layer's "
                         f"input width (input + hidden) below {_F32_MAX_WIDTH}")
    if model.variant is DatasetVariant.INTERVAL:
        seed_tokens = song_to_interval(seed_song)
    else:
        seed_tokens = list(seed_song)
    for tok in seed_tokens:
        if tok not in model.vocabulary:
            raise UnknownSeedToken(f"seed token {tok} not in the model vocabulary")
    ids = model.vocabulary.encode(seed_tokens)
    if ids.size == 0:
        raise ValueError("the seed song yields no tokens")
    if n == 0:
        return [list(seed_song) for _ in rngs]

    # Seed ids were checked above and picked ids are in range by
    # construction, so the loop steps the model directly.
    spec = cell_spec(model.cell)
    weights = _halved(spec, [a.astype(np.float32) for a in weights])
    lanes = len(rngs)
    if mode == "temperature":
        # rng.random(n) yields the doubles of n successive rng.random() calls;
        # row t holds every lane's uniform for step t.
        uniforms = np.stack([rng.random(n) for rng in rngs], axis=1)
    else:
        uniforms = [None] * n
    states = _zero_states(model, lanes, np.float32)
    generated = np.empty((lanes, n), dtype=np.int64)
    table = _token_table(weights)
    for t in range(ids.size):
        logits, states = _forward_step(spec, weights, table, np.full(lanes, ids[t]), states)
    generated[:, 0] = _pick(logits.astype(np.float64), mode, temperature, uniforms[0])
    for t in range(1, n):
        logits, states = _forward_step(spec, weights, table, generated[:, t - 1], states)
        generated[:, t] = _pick(logits.astype(np.float64), mode, temperature, uniforms[t])

    songs = []
    for row in generated:
        tokens = model.vocabulary.decode(row)
        if model.variant is DatasetVariant.INTERVAL:
            songs.append(list(seed_song) + interval_to_song(seed_song[-1], tokens)[1:])
        else:
            songs.append(list(seed_song) + tokens)
    return songs


def sample(
    model: ModelState,
    seed_song: Song,
    n: int,
    mode: str = "greedy",
    temperature: float = 1.0,
    rng: np.random.Generator | int | None = None,
) -> Song:
    """Warm the model on the seed, then generate n tokens feeding back.

    The one-lane call of `sample_batch`.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(0 if rng is None else rng)
    return sample_batch(model, seed_song, n, mode, temperature, [rng])[0]


def save_checkpoint(model: ModelState, path: str | Path) -> None:
    """Write a one-line JSON header, newline, then the little-endian float64 blob.

    The blob holds `_v1_blocks` of the parameters: embedding rows, each
    layer's gates in declaration order (that gate's W block, then its b
    block), then projection W and b.  The header carries a sha256 of the
    blob.  The file is written whole or not at all (`core.write_atomic`).
    """
    blocks = _v1_blocks(model.cell, [p.value for p in model.parameters()])
    blob = b"".join(a.astype("<f8").tobytes() for a in blocks)
    header = {
        "format": CHECKPOINT_FORMAT,
        "format_version": CHECKPOINT_VERSION,
        "cell": model.cell,
        "num_layers": model.num_layers,
        "hidden_size": model.hidden_size,
        "embedding_dim": model.embedding_dim,
        "variant": model.variant.value,
        "vocabulary": [int(t) for t in model.vocabulary.tokens],
        "param_count": sum(a.size for a in blocks),
        "blob_sha256": hashlib.sha256(blob).hexdigest(),
    }
    write_atomic(path, json.dumps(header, sort_keys=True).encode("utf-8"), b"\n", blob)


def load_checkpoint(path: str | Path) -> ModelState:
    """Rebuild a ModelState from a checkpoint file.

    The header must carry every key and the blob its checksum, and the
    blob exactly as many values as the header's sizes describe; that count
    is checked before anything is allocated.  The model's arrays are then
    allocated unset and its `_v1_blocks` are filled in order.  A value
    past `_fits_float32`'s weight bound (NaN and infinities included) is
    MalformedFile naming its parameter, since `train` never saves one.
    """
    data = Path(path).read_bytes()
    nl = data.find(b"\n")
    if nl < 0:
        raise MalformedFile(f"{path}: missing header line")
    header = read_json(data[:nl], f"{path}: header")
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise MalformedFile(f"{path}: not a {CHECKPOINT_FORMAT} file")
    version, = json_ints([header.get("format_version")], f"{path}: format_version").tolist()
    if version != CHECKPOINT_VERSION:
        raise MalformedFile(f"{path}: unsupported format version {version}")
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise MalformedFile(f"{path}: header lacks {', '.join(missing)}")
    blob = data[nl + 1 :]
    if hashlib.sha256(blob).hexdigest() != header["blob_sha256"]:
        raise MalformedFile(f"{path}: checksum mismatch (truncated or corrupted)")
    flat = np.frombuffer(blob, dtype="<f8")
    param_count, = json_ints([header["param_count"]], f"{path}: param_count").tolist()
    if flat.size != param_count:
        raise MalformedFile(f"{path}: expected {param_count} values, found {flat.size}")

    try:
        vocabulary = Vocabulary(tokens=tuple(json_ints(header["vocabulary"], f"{path}: vocabulary").tolist()))
        layers, hidden, emb = json_ints([header[k] for k in ("num_layers", "hidden_size", "embedding_dim")],
                                        f"{path}: num_layers, hidden_size and embedding_dim").tolist()
        cell, variant = header["cell"], DatasetVariant(header["variant"])
        # Counted before allocating, so an edited header cannot make it
        # allocate more than the file holds.
        count = sum(math.prod(shape) for shape in _shapes(cell, vocabulary.size, layers, hidden, emb))
        if count != flat.size:
            raise ValueError(f"sizes describe {count} values, blob holds {flat.size}")
        model = _empty_model(vocabulary, variant, cell, layers, hidden, emb)
    except (TypeError, ValueError) as exc:
        raise MalformedFile(f"{path}: bad header ({exc})") from exc
    blocks = _v1_blocks(cell, [p.value for p in model.parameters()])
    ends = np.cumsum([a.size for a in blocks])
    for block, values in zip(blocks, np.split(flat, ends[:-1])):
        block[...] = values.reshape(block.shape)
    names = ["embedding", *(f"layer {k} {x}" for k in range(1, layers + 1) for x in "Wb"), "projection W",
             "projection b"]
    for name, p in zip(names, model.parameters()):
        if not _in_float32_range(p.value):
            raise MalformedFile(f"{path}: {name} holds a non-finite value or one past 2**56")
    return model
