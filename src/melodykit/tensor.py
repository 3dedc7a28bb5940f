"""Reverse-mode autodiff tape plus the loss and the optimiser it feeds.

A GradientTape records each forward op together with a closure that
routes the output gradient to the inputs; backward walks the record list
once in reverse (execution order is already topological).  Activations
live in (rows, features) matrices.  The tape knows nothing of cells or
layers.  An op defined elsewhere records itself through the pieces the
tape's own ops use: `array` (the workspace's next array), `copy`,
`accumulate_own` and `push`, and keeps what it builds on the workspace
with `built`.  `rnn` records a window's whole layer stack that way, and
then its output head (projection, bias and cross-entropy), so training
records two ops a window and none of the tape's own.  Those stay
callable: the benchmark's tracer wraps every op its `TAPE_OPS` names,
and `tests/tape_cells.py`, the per-op oracle that training's window is
checked against, records them.

Precision: a Tensor holds float32 or float64 (anything else is taken as
float64), and a tape computes in the dtype it is made with, float64 by
default: its workspace is allocated in that dtype, so the ops compute in
their inputs' dtype.  `rnn.train` runs a float32 tape; finite-difference
checks run the float64 default.  `cross_entropy`'s summed loss is a
float64 scalar whatever the dtype.  Clipping and Adam work on whatever
arrays they are given; training gives them float64.

Memory: the ops write their outputs, the caches their backward reads and
the first gradient they give each tensor into the tape's workspace,
arrays handed out in request order.  `GradientTape.reset` rewinds that
order and takes back every gradient it handed out, so a tape kept across
the windows of a training run (which all record the same ops at the same
shapes) allocates its window-sized arrays once.  The tape also keeps
what an op builds on those arrays (`GradientTape.built`: `rnn`'s layer
stack keeps the two call lists it replays every window), so nothing else
has to hold views of the workspace; a part is replaced, and the arrays
it viewed freed, when its op next asks for it on other arrays.
`clip_gradients` sums the squared norm one gradient at a time and scales
the gradients in place, and `adam_step` works in the scratch pair
its `AdamState` holds, so a training iteration allocates nothing window-
or parameter-sized.

numpy supplies the dense array arithmetic; the tape, the loss, and the
optimiser live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import BadToken, ShapeMismatch


class Tensor:
    """A float32 or float64 array with a lazily allocated accumulated gradient.

    A float32 array keeps its dtype; any other value is taken as float64.
    """

    __slots__ = ("value", "grad")

    def __init__(self, value) -> None:
        value = np.asarray(value)
        self.value = value if value.dtype == np.float32 else value.astype(np.float64, copy=False)
        self.grad: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.value.shape})"


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-x)) as 0.5 * (1 + tanh(x / 2)), which never overflows.

    Within 2e-16 of it in float64; a float32 x gets float32's rounding of
    each of the four operations.  Written into `out` when one is given; x
    is read once.  The cell kernels compute the same values from a
    pre-halved x (`rnn.CellSpec.scales`).
    """
    out = np.multiply(x, 0.5, out)
    np.tanh(out, out)
    out += 1.0
    out *= 0.5
    return out


class GradientTape:
    """Wengert list of (output, backward closure) records, plus their workspace.

    Ops append in execution order; backward() visits records exactly once
    in reverse, skipping outputs no gradient ever reached.  Inference does
    not use a tape: it steps plain arrays through the same cell kernels.

    The workspace: the k-th array an op asks for after a `reset` is the
    one the k-th request got before it, reallocated only when its shape
    changed.  So what the ops return stays valid until the next `reset`;
    whatever must outlive the window (such as a layer stack's final
    states) is a copy.  A tensor whose gradient the tape wrote first holds
    a workspace array, so `reset` sets that gradient back to None; a
    gradient the caller allocated before backward is only added to, and
    outlives the reset.  Every workspace array, and so every value and
    gradient the ops write (all but `cross_entropy`'s float64 loss), is of
    the tape's `dtype`.
    """

    def __init__(self, dtype=np.float64) -> None:
        self.dtype = np.dtype(dtype)
        self._records: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._arrays: list[np.ndarray] = []
        self._next = 0
        self._granted: list[Tensor] = []
        self._built: dict = {}

    def reset(self) -> None:
        """Drop the records and the gradients the tape wrote first; hand the arrays out again from the first.

        The kept parts (`built`) stay, with the arrays they view.
        """
        self._records.clear()
        for t in self._granted:
            t.grad = None
        self._granted.clear()
        self._next = 0

    def array(self, shape: tuple[int, ...]) -> np.ndarray:
        """The workspace's next array, of `shape` and uninitialised."""
        k = self._next
        self._next += 1
        if k == len(self._arrays):
            self._arrays.append(np.empty(shape, self.dtype))
        elif self._arrays[k].shape != shape:
            self._arrays[k] = np.empty(shape, self.dtype)
        return self._arrays[k]

    def built(self, key, arrays: tuple, build: Callable):
        """What `build()` made on these arrays, made again unless every one is the array it was made on.

        An op names its part by `key` and passes the arrays (and whatever
        else) the part depends on.  The part is kept across `reset`, so an
        op that asks again in every window builds it once, and is built
        again whenever one of those arrays is not the very one it was built
        on: a window of other sizes, or of other ops, in between hands out
        other arrays, even of the same shapes.  The new part replaces the
        old one, which frees the arrays only the old one viewed.

        So a part lives until its key is asked for again or the tape is
        freed.  `rnn`'s layer stack asks for both of its keys in every
        window, so only a tape that runs stack windows and then only
        per-op windows keeps the stack's two parts, and the arrays they
        view (at most one window's workspace), until it next runs a stack
        window or is freed.  `train` never does that.
        """
        held = self._built.get(key)
        if held is None or any(a is not b for a, b in zip(held[0], arrays)):
            held = self._built[key] = (arrays, build())
        return held[1]

    def _grant(self, t: Tensor, g: np.ndarray) -> None:
        """Make the workspace array g t's gradient until the next `reset`."""
        t.grad = g
        self._granted.append(t)

    def copy(self, a: np.ndarray) -> np.ndarray:
        """A copy of a in the workspace's next array."""
        out = self.array(a.shape)
        np.copyto(out, a)
        return out

    def _accumulate(self, t: Tensor, g: np.ndarray) -> None:
        # Copy on first write: closures may hand back views of upstream grads.
        if t.grad is None:
            self._grant(t, self.copy(g))
        else:
            t.grad += g

    def accumulate_own(self, t: Tensor, g: np.ndarray) -> None:
        """Accumulate g, a workspace array no other tensor holds, so the first write keeps it."""
        if t.grad is None:
            self._grant(t, g)
        else:
            t.grad += g

    def push(self, out: Tensor, back: Callable[[np.ndarray], None]) -> Tensor:
        """Record out with the closure that routes its gradient to the op's inputs; returns out."""
        self._records.append((out, back))
        return out

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
            raise ShapeMismatch(f"matmul {a.value.shape} @ {b.value.shape}")
        out = Tensor(np.matmul(a.value, b.value, out=self.array((a.value.shape[0], b.value.shape[1]))))

        def back(g: np.ndarray) -> None:
            self.accumulate_own(a, np.matmul(g, b.value.T, out=self.array(a.value.shape)))
            self.accumulate_own(b, np.matmul(a.value.T, g, out=self.array(b.value.shape)))

        return self.push(out, back)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        """Elementwise a + b of equal shapes.

        Training no longer records it.  It stays only because the
        benchmark's tracer wraps every op its `TAPE_OPS` names.
        """
        out = Tensor(a.value + b.value)

        def back(g: np.ndarray) -> None:
            self._accumulate(a, g)
            self._accumulate(b, g)

        return self.push(out, back)

    def add_bias(self, a: Tensor, b: Tensor) -> Tensor:
        """(B, m) + (m,) with the bias gradient summed over the batch."""
        out = Tensor(np.add(a.value, b.value, out=self.array(a.value.shape)))

        def back(g: np.ndarray) -> None:
            self._accumulate(a, g)
            self._accumulate(b, g.sum(axis=0))

        return self.push(out, back)

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        """Elementwise a * b of equal shapes.

        Training no longer records it.  It stays only because the
        benchmark's tracer wraps every op its `TAPE_OPS` names.
        """
        out = Tensor(a.value * b.value)

        def back(g: np.ndarray) -> None:
            self._accumulate(a, g * b.value)
            self._accumulate(b, g * a.value)

        return self.push(out, back)

    def one_minus(self, a: Tensor) -> Tensor:
        """Elementwise 1 - a.

        Training no longer records it.  It stays only because the
        benchmark's tracer wraps every op its `TAPE_OPS` names.
        """
        out = Tensor(1.0 - a.value)

        def back(g: np.ndarray) -> None:
            self._accumulate(a, -g)

        return self.push(out, back)

    def sigmoid(self, a: Tensor) -> Tensor:
        """Elementwise `sigmoid`.

        Training no longer records it.  It stays only because the
        benchmark's tracer wraps every op its `TAPE_OPS` names.
        """
        s = sigmoid(a.value)
        out = Tensor(s)

        def back(g: np.ndarray) -> None:
            self._accumulate(a, g * s * (1.0 - s))

        return self.push(out, back)

    def tanh(self, a: Tensor) -> Tensor:
        """Elementwise tanh.

        Training no longer records it.  It stays only because the
        benchmark's tracer wraps every op its `TAPE_OPS` names.
        """
        t = np.tanh(a.value)
        out = Tensor(t)

        def back(g: np.ndarray) -> None:
            self._accumulate(a, g * (1.0 - t * t))

        return self.push(out, back)

    def concat(self, a: Tensor, b: Tensor) -> Tensor:
        """Column-wise concatenation of two (B, *) matrices.

        Training no longer records it.  It stays only because the
        benchmark's tracer wraps every op its `TAPE_OPS` names.
        """
        na = a.value.shape[1]
        out = Tensor(np.concatenate([a.value, b.value], axis=1))

        def back(g: np.ndarray) -> None:
            self._accumulate(a, g[:, :na])
            self._accumulate(b, g[:, na:])

        return self.push(out, back)

    def lookup(self, table: Tensor, ids: np.ndarray) -> Tensor:
        """Gather rows of `table`; backward scatter-adds into the rows.

        Training no longer records it (the layer stack reads the
        embedding table by id).  It stays for the per-op oracle in the tests and the
        benchmark's tracer, which wraps every op its `TAPE_OPS` names.
        """
        ids = np.asarray(ids, dtype=np.int64)
        rows = table.value.shape[0]
        if ids.size and (ids.min() < 0 or ids.max() >= rows):
            raise BadToken(f"lookup of ids in [{ids.min()}, {ids.max()}] from {rows} rows")
        # The ids are in range, so "clip" gathers straight into the
        # workspace; the default mode would gather into a temporary first.
        out = Tensor(np.take(table.value, ids, axis=0, mode="clip",
                             out=self.array(ids.shape + table.value.shape[1:])))

        def back(g: np.ndarray) -> None:
            if table.grad is None:
                self._grant(table, self.array(table.value.shape))
                table.grad[...] = 0.0
            np.add.at(table.grad, ids, g)

        return self.push(out, back)

    def cross_entropy(self, logits: Tensor, targets: np.ndarray) -> Tensor:
        """Summed -log softmax[target] over the batch; returns a float64 scalar Tensor.

        Row r's loss is log sum_j exp(z_rj - max_r) - (z_r,target - max_r),
        the log taken and the rows summed in float64.  Unlike -log of the
        target's probability, that stays finite when the probability
        underflows the compute dtype.  `rnn._head` computes the same loss
        for training, with the logits held vocabulary-major.
        """
        targets = np.asarray(targets, dtype=np.int64)
        z = logits.value
        rows = np.arange(z.shape[0])
        probs = np.subtract(z, z.max(axis=1, keepdims=True), out=self.array(z.shape))
        shifted = probs[rows, targets]
        np.exp(probs, out=probs)
        sums = probs.sum(axis=1, keepdims=True)
        out = Tensor((np.log(sums[:, 0], dtype=np.float64) - shifted).sum())
        probs /= sums

        def back(g: np.ndarray) -> None:
            d = self.array(probs.shape)
            np.copyto(d, probs)
            d[rows, targets] -= 1.0
            d *= g
            self.accumulate_own(logits, d)

        return self.push(out, back)

    def backward(self, loss: Tensor) -> None:
        # Seeded in the tape's dtype, not the loss's, so every gradient is.
        loss.grad = np.ones(loss.value.shape, self.dtype)
        for out, back in reversed(self._records):
            if out.grad is not None:
                back(out.grad)


def softmax(z: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax along the last axis (of a vector, or of each row)."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def clip_gradients(grads: list[np.ndarray], max_norm: float) -> list[np.ndarray]:
    """Scale all gradients in place by a shared factor so the global L2 norm <= max_norm; returns grads.

    The squared norm is summed as one dot product per whole gradient, which
    allocates nothing.  It is numpy's `einsum`, not BLAS's dot: OpenBLAS
    splits a dot of more than 10,000 values across its threads, so the
    norm's last bits, and every clipped run's, would follow the thread count.
    """
    total = 0.0
    for g in grads:
        flat = g.reshape(-1)
        total += float(np.einsum("i,i->", flat, flat))
    norm = math.sqrt(total)
    if norm <= max_norm or norm == 0.0:
        return grads
    scale = max_norm / norm
    for g in grads:
        g *= scale
    return grads


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators, step counter and learning rate.

    `scratch` is the update's (2, size) pair of scratch rows, size being
    that of the largest parameter.
    """

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0
    lr: float = 0.002
    scratch: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.scratch = np.empty((2, max((m.size for m in self.m), default=0)))

    @classmethod
    def for_params(cls, params: Sequence[np.ndarray], **kwargs) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params], **kwargs)


def adam_step(
    params: list[np.ndarray], grads: list[np.ndarray], state: AdamState
) -> tuple[list[np.ndarray], AdamState]:
    """One bias-corrected Adam update; params are updated in place.

    Each step is m += (1 - beta1) * g, v += (1 - beta2) * g * g after the
    decays, then p -= lr * m_hat / (sqrt(v_hat) + eps), with the bias
    corrections folded into the step size as Kingma & Ba (2014, section 2)
    do: p -= alpha_t * m / (sqrt(v) + eps_t), alpha_t = lr * sqrt(1 -
    beta2**t) / (1 - beta1**t) and eps_t = eps * sqrt(1 - beta2**t), equal
    in exact arithmetic.  Evaluated in that order in `state.scratch`.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeMismatch("params, grads, and state must align")
    state.t += 1
    root = math.sqrt(1.0 - BETA2 ** state.t)
    alpha, eps = state.lr * root / (1.0 - BETA1 ** state.t), EPS * root
    for p, g, m, v in zip(params, grads, state.m, state.v):
        a, b = (row[: p.size].reshape(p.shape) for row in state.scratch)
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=a)
        v *= BETA2
        np.multiply(g, 1.0 - BETA2, out=a)
        a *= g
        v += a
        np.multiply(m, alpha, out=a)
        np.sqrt(v, out=b)
        b += eps
        a /= b
        p -= a
    return params, state
