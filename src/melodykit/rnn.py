"""Embedding, gated recurrent cells, the layer stack, the training loop, and sampling.

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
incoming gradient by them in a handful of ufunc calls.  The step
kernel and the per-step adjoint, which run once per step, are each in
two parts: a bind part that slices its arrays into the views its
formulas read and write, and a run part that makes the ufunc calls on
them.

This module owns the layer stack.  `_step_operands` is its one operand
preparation: the step weights, each gate block's columns scaled by
`CellSpec.scales` so each kernel makes one tanh over all of z, and the
first layer's token table E @ W[:m] + b (V rows: at most 255, and 21 to
31 on the bundled corpora), made once per window in training and once
per call in sampling and `stack_forward`.  `_check_states` is the one
rule for the states a stack starts from, and every path steps a layer
by the (call, args) pairs of `_share_calls` and `_step_calls`, the one
step sequence.  Training records a window's whole stack as one tape op,
`_stack`, stepped in waves (Appleyard, Kocisky & Blunsom 2016,
arXiv:1604.01946): in wave s every layer l takes its step s - l, all of
them in one stacked GEMM and one kernel call over the wave's rows.  So a
window is two records: the stack, then `_head`, the projection and
cross-entropy over the (T*B, hidden) stack of top states, with the
logits held vocabulary-major.  As in that paper's kernels, which prepare
once and replay per step, the stack builds the forward's waves, and
its whole backward, each as one flat list of (call, args) pairs on
views of the tape's workspace, which the tape keeps
(`GradientTape.built`) and every window replays by the same loop.
`sample_batch` and `stack_forward` step plain arrays through
`_forward_step`, one time step through every layer in turn, since each
sampled token feeds the next step: every song is one lane of a single
batch, and `sample` is the one-lane call.

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
of the promise: OpenBLAS splits a large product across its threads, so
LSTM x1 and x3 at batch 50 train along another path at 1 and 2 threads
(`scripts/same_outputs.py`'s two-thread round lists their checkpoints
and curves).  UGRNN x3 at batch 4 and 100-lane sampling gave the same
bytes at both, which is observed, not promised.  A lane's bit-equality
across lane counts is not promised: BLAS picks its kernel by row count,
so a lane's logits can differ in the last bits between batches of
different sizes, although its tokens agreed in every case checked.  README keeps the history of
how each version changed these bits.

Memory: `train` keeps one float32 GradientTape for the whole run and
resets it every window, so the kernels write into the tape's workspace,
which is allocated in the first iteration and released when `train`
returns.  A wave writes its layers' states and activations as adjacent
rows of that workspace, so each kernel call reads and writes contiguous
arrays, and the call lists the stack replays live on the tape with the
workspace they view.  The backward sums the weight gradients chunk by
chunk (`GRAD_CHUNK_ROWS`), so only the states, activations and the
gradients passed between layers are window-sized: the gate gradients dz,
their factors and the first layer's [hs | onehot] rows are one chunk
long, and the head keeps one (V, T*B) array.  Beside the tape the run
keeps the float32 shadow and one float64 gradient list the size of the parameters.
Sampling and `stack_forward` allocate their step operands once per call
and each step's arrays.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .core import (
    DatasetVariant, Song, TrainingCorpus, Vocabulary, check_song, check_vocabulary, interval_to_song, json_ints,
    read_json, song_to_interval, write_atomic,
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
# The step kernels and adjoints, which run once per step, are each a bind
# part that slices its arguments into the views the formulas name, and a
# run part that makes the ufunc calls on them.  A factor pass runs once
# per gradient chunk of steps and slices for itself.
# A ufunc's last positional argument is its output (passed positionally,
# as keyword parsing costs about a sixth of a small ufunc call).
#
# A kernel's z arrives with each sigmoid gate's block already halved
# (`CellSpec.scales`), so one tanh over all of z gives every gate:
# sigmoid(z) = 0.5*tanh(z/2) + 0.5, finished as t*0.5 + 0.5, which rounds
# as (t + 1)*0.5 does, and halving is exact unless a value is subnormal.


def _lstm_step_bind(z, h, c, h_new, c_new, acts):
    batch, n = h.shape
    f, i, g, o, tc = acts
    return z.reshape(batch, 4, n).swapaxes(0, 1), acts[:4], acts[:2], f, i, g, o, tc, c, h_new, c_new


def _lstm_step_run(gates, a4, a2, f, i, g, o, tc, c, h_new, c_new):
    # f, i, o = sigmoid(z blocks), g = tanh(z block); c_new = f*c + i*g; h_new = o*tanh(c_new)
    np.tanh(gates, a4)  # every gate block, in gate order
    a2 *= 0.5  # f and i in one pass
    a2 += 0.5
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


def _lstm_adjoint_bind(dh, dc, acts, fac, dz):
    return (dh, dc, fac[3], fac[4], fac[:3], acts[0], dz[3], dz[:3]), None


def _lstm_adjoint_run(dh, dc, f3, f4, f012, f, dz3, dz012):
    # dz[3] = dh*F3; dc += dh*F4; dz[:3] = F[:3]*dc; the old c's gradient is dc*f.
    # dh is scratch once dz[3] holds its share.
    np.multiply(dh, f3, dz3)
    dh *= f4
    dc += dh
    np.multiply(f012, dc, dz012)
    dc *= f


def _ugrnn_step_bind(z, h, c, h_new, c_new, acts):
    batch, n = h.shape
    g, cand, keep = acts
    return z.reshape(batch, 2, n).swapaxes(0, 1), acts[:2], g, cand, keep, h, h_new, z[:, :n]


def _ugrnn_step_run(gates, a2, g, cand, keep, h, h_new, scratch):
    # g = sigmoid(z block), cand = tanh(z block), keep = 1 - g; h_new = g*h + keep*cand
    np.tanh(gates, a2)  # both gate blocks, in gate order
    g *= 0.5
    g += 0.5
    np.subtract(1.0, g, keep)
    np.multiply(g, h, h_new)
    h_new += np.multiply(keep, cand, scratch)  # scratch: z's first gate block, read by the tanh above


def _ugrnn_factors(h, c, acts, out):
    # Per step: out[:2] = [(h - cand)*g*keep, (1 - cand*cand)*keep]; out[2] is not used.
    np.subtract(h, acts[:, 1], out[:, 0])
    out[:, 0] *= acts[:, 0]
    np.multiply(acts[:, 1], acts[:, 1], out[:, 1])
    np.subtract(1.0, out[:, 1], out[:, 1])
    out[:, :2] *= acts[:, 2:3]


def _ugrnn_adjoint_bind(dh, dc, acts, fac, dz):
    return (dh, fac[:2], dz, acts[0]), dh


def _ugrnn_adjoint_run(dh, f01, dz, g):
    # dz = F[:2]*dh, both blocks in one broadcast call; the old h's direct gradient is dh*g.
    np.multiply(f01, dh, dz)
    dh *= g


@dataclass(frozen=True)
class CellSpec:
    """A cell kind: gate blocks in declaration order, their scales, and its kernel, factor pass and adjoint.

    `scales` holds each gate block's pre-activation scale: 0.5 for a
    sigmoid gate, 1 for a tanh gate.  The kernel reads z with every block
    already multiplied by its scale, which `_step_operands` folds into the
    step weights (once per window in training, once per call elsewhere),
    so the kernel itself makes one tanh over all of z.
    `step_run(*step_bind(z, h, c, h_new, c_new, acts))` maps those (B,
    gates*hidden) scaled pre-activations, gate blocks side by side, and
    the old state to the new state, written into h_new and c_new; it
    writes the activations the adjoint reads into acts, `acts` (B, hidden)
    blocks, the first `len(gates)` of them the gates' activations in gate
    order.  z is scratch once the kernel has read it: a kernel may write
    into it.

    The gate derivatives depend on those activations and the old state,
    never on the incoming gradient, so the adjoint is split in two.
    `factors(h, c, acts, out)` runs once per chunk of K steps: h and c are
    the chunk's (K, B, hidden) old states, acts its (K, acts, B, hidden)
    activation blocks, and it writes each step's derivative factors into
    out, (K, acts, B, hidden), of which a cell may use fewer blocks.
    `adjoint_bind(dh, dc, acts, fac, dz)` returns (views, direct), and
    `adjoint_run(*views)` is one step, given that step's activations and
    factors: it maps the gradients of the new state to that of the
    unscaled z, written into dz, the step's (gates, B, hidden) view of gate
    blocks, and writes over dc the gradient of the old c.  `direct` is the
    array that holds the gradient of the old h other than through z once
    the run part has made its calls (dh, written over), or None where the
    kernel reads h only through z (dh is then scratch).  The run part
    returns nothing.  c, c_new and dc are None for cells without a memory
    lane.
    """

    gates: tuple[str, ...]
    scales: tuple[float, ...]
    has_memory: bool
    acts: int
    step_bind: Callable
    step_run: Callable
    factors: Callable
    adjoint_bind: Callable
    adjoint_run: Callable


CELL_TYPES: dict[str, CellSpec] = {
    "lstm": CellSpec(("forget", "input", "candidate", "output"), (0.5, 0.5, 1.0, 0.5), True, 5,
                     _lstm_step_bind, _lstm_step_run, _lstm_factors, _lstm_adjoint_bind, _lstm_adjoint_run),
    "ugrnn": CellSpec(("update", "candidate"), (0.5, 1.0), False, 3,
                      _ugrnn_step_bind, _ugrnn_step_run, _ugrnn_factors, _ugrnn_adjoint_bind, _ugrnn_adjoint_run),
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


def _share_calls(x: np.ndarray, w_x: np.ndarray, b_x: np.ndarray, zx: np.ndarray) -> tuple:
    """An upper layer's input share zx = x @ W[:n] + b, as the (call, args) pairs that write it into zx."""
    return (np.matmul, (x, w_x, zx)), (np.add, (zx, b_x, zx))


def _step_calls(spec: CellSpec, h: np.ndarray, w_h: np.ndarray, zx: np.ndarray, z: np.ndarray, c,
                h_new: np.ndarray, c_new, acts: np.ndarray) -> tuple:
    """A layer step, z = h @ W_h + zx then the kernel, as the (call, args) pairs every path runs.

    With a leading layer axis (h (L, B, n), acts (blocks, L, B, n)) the
    GEMM is one stacked call, and the kernel's views fold the layers into
    L*B rows; each fold must be a view, since the kernel writes through it.
    """
    kernel = z, h, c, h_new, c_new, acts
    if h.ndim > 2:
        n = h.shape[-1]
        kernel = (z.reshape(-1, z.shape[-1]), *(None if a is None else a.reshape(-1, n) for a in kernel[1:5]),
                  acts.reshape(len(acts), -1, n))
    return (np.matmul, (h, w_h, z)), (np.add, (z, zx, z)), (spec.step_run, spec.step_bind(*kernel))


def _layer_step(spec: CellSpec, w_h: np.ndarray, zx: np.ndarray, h: np.ndarray, c):
    """One cell step on plain (B, n) arrays: `_step_calls` run at once; returns (h, c, acts).

    The layer's z = [x, h] @ W + b is split in two: W_h is W[m:], the rows
    that the state h multiplies, and zx is the step's (B, width) input
    share x @ W[:m] + b, which every caller computes ahead of the step
    from the stack's `_step_operands` (a first layer's is a row of the
    token table).  Both come gate-scaled (`CellSpec.scales`), so z is the
    scaled pre-activation the kernel reads, and the step scales nothing.
    The step's arrays (z, the new state and the kernel's activation
    blocks) are allocated in zx's dtype, so a float32 step stays on BLAS's
    float32 GEMM.
    """
    n = h.shape[-1]
    width = len(spec.gates) * n
    if h.ndim != 2 or w_h.shape != (n, width) or zx.shape != h.shape[:-1] + (width,):
        raise ShapeMismatch(f"cell step of h {h.shape} over W_h {w_h.shape} plus input share {zx.shape}")
    dtype = zx.dtype
    z, h_new, acts = np.empty(zx.shape, dtype), np.empty(h.shape, dtype), np.empty((spec.acts, *h.shape), dtype)
    c_new = None if c is None else np.empty(h.shape, dtype)
    for call, args in _step_calls(spec, h, w_h, zx, z, c, h_new, c_new, acts):
        call(*args)
    return h_new, c_new, acts


def _step_operands(spec: CellSpec, embedding: np.ndarray, Ws: list[np.ndarray], bs: list[np.ndarray],
                   array: Callable) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A layer stack's step operands, (w_h, w_x, b_x, table), in arrays that `array(shape)` allocates.

    Ws and bs are the layers' W (m_l + n, width) and b, m_l being the
    embedding width m for the first layer and n above it.  Every operand
    comes with each gate block's columns multiplied by its
    `CellSpec.scales` entry (exact unless a value is subnormal): w_h
    (L, n, width) holds each layer's W[m_l:]; w_x (L - 1, n, width) and
    b_x (L - 1, 1, width) each upper layer's W[:n] and b; table (V, width)
    the first layer's input share of every token, E @ W[:m] + b, made in
    one GEMM.  They take the dtype of `array`'s arrays: training passes
    its tape's workspace, the other paths np.empty in the dtype they step
    in.  W and b that do not fit one stack are ShapeMismatch.
    """
    layers, (tokens, m) = len(Ws), embedding.shape
    n = Ws[0].shape[0] - m if layers else 0
    width = len(spec.gates) * n
    if (n < 1 or len(bs) != layers
            or [w.shape for w in Ws] != [(m + n, width)] + [(2 * n, width)] * (layers - 1)
            or any(b.shape != (width,) for b in bs)):
        raise ShapeMismatch(f"no {spec.gates} stack has W {[w.shape for w in Ws]} and b {[b.shape for b in bs]} "
                            f"over {m}-wide embeddings")
    w_h = array((layers, n, width))
    w_x = array((layers - 1, n, width))
    b_x = array((layers - 1, 1, width))
    scale = np.repeat(np.asarray(spec.scales, w_h.dtype), n)
    for l, (w, b) in enumerate(zip(Ws, bs)):
        np.multiply(w[-n:], scale, w_h[l])
        if l:
            np.multiply(w[:n], scale, w_x[l - 1])
            np.multiply(b, scale, b_x[l - 1, 0])
    table = np.matmul(embedding, np.multiply(Ws[0][:m], scale, array((m, width))), array((tokens, width)))
    table += np.multiply(bs[0], scale, array((width,)))
    return w_h, w_x, b_x, table


def _check_states(spec: CellSpec, states: list[_State], layers: int, shape: tuple[int, int]) -> None:
    """ShapeMismatch unless the states fit the stack.

    That is one (h, c) per layer, h of `shape` (batch, hidden), and c of
    that shape too if the cell keeps a memory lane, else None.  Training
    and `stack_forward` both apply it.
    """
    memory = spec.has_memory
    if len(states) != layers or any(np.shape(h) != shape or (c is not None) != memory
                                    or memory and np.shape(c) != shape for h, c in states):
        shapes = [(np.shape(h), c if c is None else np.shape(c)) for h, c in states]
        raise ShapeMismatch(f"states {shapes} do not fit {layers} layers of {shape} {'(h, c)' if memory else 'h'}")


def _forward_step(spec: CellSpec, operands: tuple, proj_w: np.ndarray, proj_b: np.ndarray, ids: np.ndarray,
                  states: list[_State]):
    """One time step of a batch of token ids through the stack and the projection; returns (logits, states).

    `operands` are the stack's `_step_operands`, in whose dtype the step
    computes, as do proj_w and proj_b: the table's rows for the ids are
    the first layer's input share, and an upper layer's is its lower
    layer's new h @ w_x + b_x, written over the rows the layer below read.
    """
    w_h, w_x, b_x, table = operands
    zx = table[ids]
    new_states: list[_State] = []
    for l, (h, c) in enumerate(states):
        if l:
            for call, args in _share_calls(v, w_x[l - 1], b_x[l - 1], zx):
                call(*args)
        v, c, _ = _layer_step(spec, w_h[l], zx, h, c)
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
    states.  The ids must be a non-empty 1-D sequence of integers
    (ValueError; booleans are not integers) within the vocabulary
    (BadToken).  Each state's h is a (hidden,) array, as is its c exactly
    when the cell keeps a memory lane, else None; states that do not fit
    the stack are ShapeMismatch, by the rule training applies.  The states
    come back as plain per-layer arrays, so callers can score a sequence or
    compare two models without touching the internal batch state.
    """
    ids = np.asarray(token_ids)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("token_ids must be a non-empty 1-D sequence")
    if ids.dtype.kind not in "iu":
        raise ValueError(f"token_ids must be integers, got {ids.dtype}")
    ids = ids.astype(np.int64)
    if (ids < 0).any() or (ids >= model.vocab_size).any():
        bad = ids[(ids < 0) | (ids >= model.vocab_size)][0]
        raise BadToken(f"token id {int(bad)} outside [0, {model.vocab_size})")
    spec = cell_spec(model.cell)
    embedding, *layers, proj_w, proj_b = [p.value for p in model.parameters()]
    operands = _step_operands(spec, embedding, layers[::2], layers[1::2], np.empty)
    if states is None:
        batch_states = _zero_states(model, 1)
    else:
        batch_states = [(np.asarray(s.h)[None], None if s.c is None else np.asarray(s.c)[None]) for s in states]
        _check_states(spec, batch_states, model.num_layers, (1, operands[0].shape[1]))
    rows = []
    for t in range(ids.size):
        logits, batch_states = _forward_step(spec, operands, proj_w, proj_b, ids[t : t + 1], batch_states)
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


# The step quantum of `_stack`'s backward: a gradient chunk is whole
# FACTOR_CHUNK steps, and its factor pass runs once.  A float32 benchmark
# (hidden 128) found a window-long pass the faster at batch 4 and 8 steps
# the better at batch 50, the chunks they get.  Rows alone (GRAD_CHUNK_ROWS)
# would move the chunk bounds at T 50, and so the weight gradients' sum
# order and training bits, at most batch sizes from 9 to 49 and above 50.
FACTOR_CHUNK = 8

# Rows (steps times batch) of a gradient chunk in `_stack`'s backward, whose
# dz, factors, weight-gradient products and first-layer [hs | onehot] rows
# are one chunk long, and whose factor pass runs once per chunk: a chunk
# is as many whole FACTOR_CHUNK quanta as fit in these rows, and at least
# one.  So a batch-4 window of 50 steps is one chunk, whose factor pass
# and products are those of the whole window, and batch 50 runs 8 steps
# (400 rows) at a time.  Summed chunk by chunk, the first layer's
# [hs | onehot]^T dz over a db12 window (2,500 rows, hidden 128, V 31)
# took 3.31 ms in 400-row chunks, 3.21 ms in 800 and 3.15 ms in one GEMM,
# against 3.45 ms in 200-row chunks (float32, 1 OpenBLAS 0.3.31 thread).
GRAD_CHUNK_ROWS = 512


def _stack(tape: GradientTape, spec: CellSpec, model: ModelState, ids: np.ndarray,
           states: list[_State]) -> tuple[Tensor, list[_State]]:
    """The model's layer stack over a window of (T, B) token ids, recorded on the tape as one op.

    Returns (the top layer's T*B new h rows, time-major, each layer's final
    (h, c)); the final states are copies.  Gradients reach the embedding and
    every layer's W and b; the states carry values only.  An id outside the
    vocabulary is BadToken, and W, b (`_step_operands`) or states
    (`_check_states`) that do not fit one stack are ShapeMismatch.  Every
    array lives in the tape's workspace.

    The step operands are prepared once per window, as in cuDNN's RNN
    kernels (Appleyard, Kocisky & Blunsom 2016, arXiv:1604.01946), and, as
    those kernels prepare once and replay per step, the forward's waves
    are one flat list of (call, args) pairs on views of the workspace, and
    so is the whole backward, every layer from the top one down.  The tape
    keeps the two lists (`GradientTape.built`, keys ("stack", "waves") and
    ("stack", "back")) and builds one again only when an array it views is
    not the one it was built on, so a training run builds them in its
    first window and replays them in every later one.  The forward runs in
    waves, after the same paper: at wave s every layer l with 0 <= s - l < T
    takes its step t = s - l, reading only what wave s - 1 wrote.  So a
    wave is the first layer's gather from the token table, `_share_calls`
    for the upper layers' input shares in one stacked GEMM, then
    `_step_calls` over all of the wave's layers: one stacked GEMM for
    h @ W_h, the add of the input share, and one kernel call over the
    wave's rows.

    Backward goes layer by layer, the top one first, and walks each
    layer's steps in reverse, in gradient chunks, the last chunk first.
    A gradient chunk is as many whole FACTOR_CHUNK steps as fit in
    GRAD_CHUNK_ROWS rows, and at least one.  Per chunk `spec.factors` runs
    once, then per step dh = g_t + carry and the adjoint, which gives the
    gradient of the unscaled z into the chunk's dz, and, but at step 0,
    the carry to the step before, dz_t W[m_l:]^T, plus the adjoint's
    direct share (`CellSpec`) where the cell has one.  The carry GEMM
    reads a contiguous copy of W[m_l:]^T, made as the layer starts, on
    which BLAS runs faster than on the transposed view (at batch 50, width
    512, one OpenBLAS 0.3.31 thread: 74 against 103 us a step).  Then the chunk's
    products, over its rows, are summed into the layer's gradients, the
    window's last chunk writing them and every earlier one adding to them
    (Gruslys et al. 2016, arXiv:1606.03401, keep BPTT's buffers
    step-sized the same way).  For an upper layer, S is dz: dW[n:] =
    hs^T dz, dW[:n] = x^T dz and db = sum dz, and x's gradient dz W[:n]^T
    fills the chunk's rows of the layer below's incoming gradient.  For
    the first layer, S is dz summed per token: one GEMM over the chunk's
    rows of [hs | onehot], (n + V) rows of output, sums both dW[m:] and S;
    the list ends with dW[:m] = E^T S, db = sum S and the embedding's
    gradient S W[:m]^T.  A window of one chunk (batch 4 at 50 steps)
    makes each of these products once, over all of its rows.
    """
    layers, tokens = model.num_layers, model.vocab_size
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    (steps, batch), rows = ids.shape, ids.size
    # The gathers below run in "clip" mode, which would clamp a bad id.
    if rows and (ids.min() < 0 or ids.max() >= tokens):
        raise BadToken(f"ids in [{ids.min()}, {ids.max()}] from a table of {tokens} rows")
    table, weights, biases = model.embedding, [layer.w for layer in model.layers], [layer.b for layer in model.layers]
    ws = [w.value for w in weights]
    w_h, w_x, b_x, zx_table = _step_operands(spec, table.value, ws, [b.value for b in biases], tape.array)
    _, n, width = w_h.shape
    _check_states(spec, states, layers, (batch, n))
    m, memory, blocks = table.value.shape[1], spec.has_memory, spec.acts
    # Wave-major: hs[j, l] is layer l's state after j - l steps, so
    # layer l's states are hs[l : l + T + 1, l], and wave s, in which
    # layer l takes step s - l, reads row s (its old state, and at l - 1
    # its input) and writes row s + 1.  acts[s, :, l] holds the
    # activations of layer l's step s - l.  A wave's layers are adjacent
    # (B, n) blocks of one row.
    hs = tape.array((steps + layers, layers, batch, n))
    cs = tape.array((steps + layers, layers, batch, n)) if memory else None
    acts = tape.array((steps + layers - 1, blocks, layers, batch, n))
    z = tape.array((layers, batch, width))
    zx = tape.array((layers, batch, width))
    viewed = (spec, hs, cs, acts, z, zx, w_h, w_x, b_x, zx_table)

    def waves():
        # The part's own copy of the window's ids, read by each wave's gather and the backward's one-hot rows.
        wave_ids = np.empty((steps, batch), np.int64)
        calls = []
        for s in range(steps + layers - 1 if steps else 0):
            # Wave s steps layers lo .. hi - 1, layer l taking its step s - l.
            lo = s - steps + 1 if s >= steps else 0
            hi = s + 1 if s < layers else layers
            if lo == 0:
                calls.append((zx_table.take, (wave_ids[s], 0, zx[0], "clip")))
            if hi > 1:
                below = slice((lo or 1) - 1, hi - 1)
                calls += _share_calls(hs[s, below], w_x[below], b_x[below], zx[lo or 1 : hi])
            k = slice(lo, hi)
            calls += _step_calls(spec, hs[s, k], w_h[k], zx[k], z[k], cs[s, k] if memory else None, hs[s + 1, k],
                                 cs[s + 1, k] if memory else None, acts[s, :, k])
        return wave_ids, calls

    wave_ids, calls = tape.built(("stack", "waves"), viewed, waves)
    np.copyto(wave_ids, ids)
    for l, (h, c) in enumerate(states):
        hs[l, l] = h
        if memory:
            cs[l, l] = c
    for call, args in calls:
        call(*args)
    # Each layer's T + 1 states, as (T + 1, B, n) blocks.  With more
    # than one layer they are strided across the waves, and the GEMMs
    # over a layer's T*B rows read a contiguous copy.
    seqs = [hs[l : l + steps + 1, l] for l in range(layers)]
    if layers > 1:
        seqs = [tape.copy(seq) for seq in seqs]
    out = Tensor(seqs[-1][1:].reshape(rows, n))

    def back(g: np.ndarray) -> None:
        chunk = FACTOR_CHUNK * max(1, GRAD_CHUNK_ROWS // (FACTOR_CHUNK * batch))
        span = min(chunk, steps)  # steps in the longest chunk
        w_ht = tape.array((width, n))
        dz = tape.array((span, batch, width))
        fac = tape.array((span, blocks, batch, n))
        dh = tape.array((batch, n))
        carry = tape.array((batch, n))
        dc = tape.array((batch, n)) if memory else None
        # A later chunk's product, before it is added into its sum; one chunk needs none.
        part = tape.array((n + tokens, width)) if steps > chunk else None
        lhs = tape.array((span, batch, n + tokens))
        # Per layer: dW (the first layer's followed by S), db, and the gradient passed down.
        sums = [tape.array(w.shape if l else (m + n + tokens, width)) for l, w in enumerate(ws)]
        dbs = [tape.array((width,)) for _ in ws]
        downs = [tape.array((rows, n) if l else table.value.shape) for l in range(layers)]
        arrays = (g, w_ht, dz, fac, dh, carry, dc, part, lhs, *viewed, wave_ids, table.value, *ws,
                  *(seqs if layers > 1 else ()), *sums, *dbs, *downs)

        def summed(first: bool, call: Callable, args: tuple, acc: np.ndarray) -> list:
            # call(*args, out) writes into acc in the chunk that runs first (the window's last), and into
            # `part`, then added into acc, in every later one.
            if first:
                return [(call, (*args, acc))]
            out = part[: len(acc)] if acc.ndim > 1 else part[0]
            return [(call, (*args, out)), (np.add, (acc, out, acc))]

        def layers_back() -> list:
            # From the top layer's last chunk to the first layer's closing products, in the docstring's order.
            dz_blocks, ids_k = dz.reshape(span, batch, width // n, n).swapaxes(1, 2), wave_ids.reshape(rows)
            calls = []
            for l in reversed(range(layers)):
                w, s_l, g_t = ws[l], sums[l], (downs[l + 1] if l + 1 < layers else g).reshape(steps, batch, n)
                h_l, c_l, a_l = hs[l:, l], cs[l:, l] if memory else None, acts[l:, :, l]
                calls.append((np.copyto, (w_ht, w[(m if l == 0 else n):].T)))
                calls += [(np.copyto, (a, 0.0)) for a in (carry, dc) if a is not None]
                for end in range(steps, 0, -chunk) or (0,):  # an empty window runs one empty chunk: zero sums
                    start = max(end - chunk, 0)
                    calls.append((spec.factors, (h_l[start:end], c_l[start:end] if memory else None,
                                                 a_l[start:end], fac[: end - start])))
                    for t in reversed(range(start, end)):
                        views, direct = spec.adjoint_bind(dh, dc, a_l[t], fac[t - start], dz_blocks[t - start])
                        calls += (np.add, (g_t[t], carry, dh)), (spec.adjoint_run, views)
                        if t:
                            calls.append((np.matmul, (dz[t - start], w_ht, carry)))
                            if direct is not None:
                                calls.append((np.add, (carry, direct, carry)))
                    lanes, r0 = (end - start) * batch, start * batch
                    dz_rows, last = dz[: end - start].reshape(lanes, width), end == steps
                    if l:
                        calls += summed(last, np.matmul, (seqs[l][start:end].reshape(lanes, n).T, dz_rows), s_l[n:])
                        calls += summed(last, np.matmul, (seqs[l - 1][start + 1 : end + 1].reshape(lanes, n).T,
                                                          dz_rows), s_l[:n])
                        calls += summed(last, np.sum, (dz_rows, 0, None), dbs[l])
                        calls.append((np.matmul, (dz_rows, w[:n].T, downs[l][r0 : r0 + lanes])))
                    else:
                        # [hs | onehot]: row r's state, then a 1 in its token's column.
                        rows_k = lhs[: end - start].reshape(lanes, n + tokens)
                        calls += ((np.copyto, (lhs[: end - start, :, :n], seqs[0][start:end])),
                                  (np.copyto, (rows_k[:, n:], 0.0)),
                                  (operator.setitem, (rows_k[:, n:], (np.arange(lanes), ids_k[r0 : r0 + lanes]), 1.0)))
                        calls += summed(last, np.matmul, (rows_k.T, dz_rows), s_l[m:])
            s = sums[0][m + n :]
            calls += ((np.matmul, (table.value.T, s, sums[0][:m])), (np.sum, (s, 0, None, dbs[0])),
                      (np.matmul, (s, ws[0][:m].T, downs[0])))
            return calls

        for call, args in tape.built(("stack", "back"), arrays, layers_back):
            call(*args)
        for l in reversed(range(layers)):
            tape.accumulate_own(weights[l], sums[l] if l else sums[0][: m + n])
            tape.accumulate_own(biases[l], dbs[l])
        tape.accumulate_own(table, downs[0])

    final = [(hs[l + steps, l].copy(), cs[l + steps, l].copy() if memory else None) for l in range(layers)]
    return tape.push(out, back), final


def _head(tape: GradientTape, top: Tensor, proj_w: Tensor, proj_b: Tensor, targets: np.ndarray) -> Tensor:
    """The output head over the top states' (rows, n) matrix, recorded on the tape as one op.

    Returns the summed cross-entropy of the logits top @ proj_w + proj_b
    against the targets, a float64 scalar Tensor, as
    `GradientTape.cross_entropy` computes it: row r's loss is
    log sum_j exp(z_rj - max_r) - (z_r,target - max_r), the log taken and
    the rows summed in float64.  The logits are held vocabulary-major,
    z = proj_w^T top^T as (V, rows), so every reduction runs along the
    long axis, and the backward works on the softmax in place: subtract 1
    at the targets, scale by the loss's gradient, then dW = top^T z^T,
    db = z's row sums and top's gradient z^T proj_w^T.  Every array lives
    in the tape's workspace, and none is (rows, V).
    """
    w, h = proj_w.value, top.value
    (rows, _), tokens = h.shape, w.shape[1]
    cols = np.arange(rows)
    z = np.matmul(w.T, h.T, out=tape.array((tokens, rows)))
    z += proj_b.value[:, None]
    z -= np.max(z, axis=0, out=tape.array((rows,)))
    shifted = z[targets, cols]
    np.exp(z, out=z)
    sums = np.sum(z, axis=0, out=tape.array((rows,)))
    out = Tensor((np.log(sums, dtype=np.float64) - shifted).sum())
    z /= sums

    def back(g: np.ndarray) -> None:
        z[targets, cols] -= 1.0
        np.multiply(z, g, z)
        tape.accumulate_own(proj_w, np.matmul(h.T, z.T, out=tape.array(w.shape)))
        tape.accumulate_own(proj_b, np.sum(z, axis=1, out=tape.array((tokens,))))
        tape.accumulate_own(top, np.matmul(z.T, w.T, out=tape.array(h.shape)))

    return tape.push(out, back)


def _window_loss(tape: GradientTape, model: ModelState, X: np.ndarray, Y: np.ndarray, states: list[_State]):
    """Summed cross-entropy of stepping through the columns of X against Y; returns (loss, final states).

    The window's (B, T) ids are taken time-major, so row t*B + b of every
    (T*B, *) matrix is lane b at step t.  The tape gets 2 records: one
    `_stack` for the whole stack, then one `_head` for the projection and
    the loss.  The first layer reads the embedding table by token id, so
    no (T*B, embedding_dim) array is made; an id outside the vocabulary is
    BadToken.  The final states carry values only, and are copies: the
    tape's workspace does not hold them.  A tape kept across windows of
    the same sizes replays the stack's call lists, which it keeps.
    """
    top, final = _stack(tape, cell_spec(model.cell), model, X.T, states)
    return _head(tape, top, model.proj_w, model.proj_b, Y.T.reshape(-1)), final


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
    later one; so are the shadow and the float64 gradient list.  The tape
    also keeps the call lists the layer stack replays on that workspace,
    built in the first window and replayed in every later one.
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
    # tape, its workspace and the call lists built on it are then freed on
    # return, not by a later garbage collection.
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
    included, are checked before anything is sampled, also when n is 0
    or rngs is empty (which gives no songs).
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
    if n == 0 or not rngs:
        return [list(seed_song) for _ in rngs]

    # Seed ids were checked above and picked ids are in range by
    # construction, so the loop steps the model directly.
    spec = cell_spec(model.cell)
    embedding, *layers, proj_w, proj_b = [a.astype(np.float32) for a in weights]
    operands = _step_operands(spec, embedding, layers[::2], layers[1::2],
                              functools.partial(np.empty, dtype=np.float32))
    # Dropped before the steps: kept beside the step arrays, the float32
    # copies of W could leave glibc trimming and refaulting its heap every
    # step (about 8,000 page faults in a 100-lane LSTM x1 call, in a
    # process that had built two models; none once they were dropped).
    del embedding, layers
    lanes = len(rngs)
    if mode == "temperature":
        # rng.random(n) yields the doubles of n successive rng.random() calls;
        # row t holds every lane's uniform for step t.
        uniforms = np.stack([rng.random(n) for rng in rngs], axis=1)
    else:
        uniforms = [None] * n
    states = _zero_states(model, lanes, np.float32)
    generated = np.empty((lanes, n), dtype=np.int64)
    for t in range(ids.size):
        logits, states = _forward_step(spec, operands, proj_w, proj_b, np.full(lanes, ids[t]), states)
    generated[:, 0] = _pick(logits.astype(np.float64), mode, temperature, uniforms[0])
    for t in range(1, n):
        logits, states = _forward_step(spec, operands, proj_w, proj_b, generated[:, t - 1], states)
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
    is checked before anything is allocated, as is every token's range
    (`check_vocabulary`).  The model's arrays are then allocated unset and
    its `_v1_blocks` are filled in order.  A value past `_fits_float32`'s
    weight bound (NaN and infinities included) is MalformedFile naming its
    parameter, since `train` never saves one.
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
        check_vocabulary(vocabulary, variant, f"{path}: vocabulary")
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
