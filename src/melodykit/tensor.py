"""Reverse-mode autodiff tape plus the optimiser it feeds.

A GradientTape records each forward op together with a closure that
routes the output gradient to the inputs; backward walks the record list
once in reverse (execution order is already topological).  Activations
live in (rows, features) matrices.  Training records five kinds of op:
`lookup`, `recurrence` (a whole gated layer over a whole window),
`matmul`, `add_bias` and `cross_entropy`.

Precision: a Tensor holds float32 or float64 (anything else is taken as
float64), and a tape computes in the dtype it is made with, float64 by
default: its workspace is allocated in that dtype, so the five training
ops compute in their inputs' dtype.  `rnn.train` runs a float32 tape;
finite-difference checks run the float64 default.  `cross_entropy`'s
summed loss is a float64 scalar whatever the dtype.  Clipping and Adam
work on whatever arrays they are given; training gives them float64.

Memory: those five ops write their outputs, the caches their backward
reads and the first gradient they give each tensor into the tape's
workspace, arrays handed out in request order.  `GradientTape.reset`
rewinds that order and takes back every gradient it handed out, so a
tape kept across the windows of a training run (which all record the same
ops at the same shapes) allocates its window-sized arrays once.
`clip_gradients` scales the gradients in place, its squares in a scratch
row, and `adam_step` works in the scratch pair its `AdamState` holds, so
a training iteration allocates nothing window- or parameter-sized.

numpy supplies the dense array arithmetic; the tape, the loss, and the
optimiser live here.
"""

from __future__ import annotations

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
    """1 / (1 + exp(-x)) to within 2e-16, as 0.5 * (1 + tanh(x / 2)), which never overflows.

    Written into `out` when one is given; x is read once.
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
    whatever must outlive the window (such as the final states `recurrence`
    returns) is a copy.  A tensor whose gradient the tape wrote first holds
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

    def reset(self) -> None:
        """Drop the records and the gradients the tape wrote first; hand the arrays out again from the first."""
        self._records.clear()
        for t in self._granted:
            t.grad = None
        self._granted.clear()
        self._next = 0

    def _array(self, shape: tuple[int, ...]) -> np.ndarray:
        """The workspace's next array, of `shape` and uninitialised."""
        k = self._next
        self._next += 1
        if k == len(self._arrays):
            self._arrays.append(np.empty(shape, self.dtype))
        elif self._arrays[k].shape != shape:
            self._arrays[k] = np.empty(shape, self.dtype)
        return self._arrays[k]

    def _grant(self, t: Tensor, g: np.ndarray) -> None:
        """Make the workspace array g t's gradient until the next `reset`."""
        t.grad = g
        self._granted.append(t)

    def _accumulate(self, t: Tensor, g: np.ndarray) -> None:
        # Copy on first write: closures may hand back views of upstream grads.
        if t.grad is None:
            self._grant(t, self._array(g.shape))
            np.copyto(t.grad, g)
        else:
            t.grad += g

    def _accumulate_own(self, t: Tensor, g: np.ndarray) -> None:
        """Accumulate g, a workspace array no other tensor holds, so the first write keeps it."""
        if t.grad is None:
            self._grant(t, g)
        else:
            t.grad += g

    def _push(self, out: Tensor, back: Callable[[np.ndarray], None]) -> Tensor:
        self._records.append((out, back))
        return out

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
            raise ShapeMismatch(f"matmul {a.value.shape} @ {b.value.shape}")
        out = Tensor(np.matmul(a.value, b.value, out=self._array((a.value.shape[0], b.value.shape[1]))))

        def back(g: np.ndarray) -> None:
            self._accumulate_own(a, np.matmul(g, b.value.T, out=self._array(a.value.shape)))
            self._accumulate_own(b, np.matmul(a.value.T, g, out=self._array(b.value.shape)))

        return self._push(out, back)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        """Elementwise a + b of equal shapes.

        Training no longer records it.  It stays only because the
        benchmark's tracer wraps every op its `TAPE_OPS` names.
        """
        out = Tensor(a.value + b.value)

        def back(g: np.ndarray) -> None:
            self._accumulate(a, g)
            self._accumulate(b, g)

        return self._push(out, back)

    def add_bias(self, a: Tensor, b: Tensor) -> Tensor:
        """(B, m) + (m,) with the bias gradient summed over the batch."""
        out = Tensor(np.add(a.value, b.value, out=self._array(a.value.shape)))

        def back(g: np.ndarray) -> None:
            self._accumulate(a, g)
            self._accumulate(b, g.sum(axis=0))

        return self._push(out, back)

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        """Elementwise a * b of equal shapes.

        Training no longer records it.  It stays only because the
        benchmark's tracer wraps every op its `TAPE_OPS` names.
        """
        out = Tensor(a.value * b.value)

        def back(g: np.ndarray) -> None:
            self._accumulate(a, g * b.value)
            self._accumulate(b, g * a.value)

        return self._push(out, back)

    def one_minus(self, a: Tensor) -> Tensor:
        """Elementwise 1 - a.

        Training no longer records it.  It stays only because the
        benchmark's tracer wraps every op its `TAPE_OPS` names.
        """
        out = Tensor(1.0 - a.value)

        def back(g: np.ndarray) -> None:
            self._accumulate(a, -g)

        return self._push(out, back)

    def sigmoid(self, a: Tensor) -> Tensor:
        """Elementwise `sigmoid`.

        Training no longer records it.  It stays only because the
        benchmark's tracer wraps every op its `TAPE_OPS` names.
        """
        s = sigmoid(a.value)
        out = Tensor(s)

        def back(g: np.ndarray) -> None:
            self._accumulate(a, g * s * (1.0 - s))

        return self._push(out, back)

    def tanh(self, a: Tensor) -> Tensor:
        """Elementwise tanh.

        Training no longer records it.  It stays only because the
        benchmark's tracer wraps every op its `TAPE_OPS` names.
        """
        t = np.tanh(a.value)
        out = Tensor(t)

        def back(g: np.ndarray) -> None:
            self._accumulate(a, g * (1.0 - t * t))

        return self._push(out, back)

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

        return self._push(out, back)

    def lookup(self, table: Tensor, ids: np.ndarray) -> Tensor:
        """Gather rows of `table`; backward scatter-adds into the rows."""
        ids = np.asarray(ids, dtype=np.int64)
        rows = table.value.shape[0]
        if ids.size and (ids.min() < 0 or ids.max() >= rows):
            raise BadToken(f"lookup of ids in [{ids.min()}, {ids.max()}] from {rows} rows")
        # The ids are in range, so "clip" gathers straight into the
        # workspace; the default mode would gather into a temporary first.
        out = Tensor(np.take(table.value, ids, axis=0, mode="clip",
                             out=self._array(ids.shape + table.value.shape[1:])))

        def back(g: np.ndarray) -> None:
            if table.grad is None:
                self._grant(table, self._array(table.value.shape))
                table.grad[...] = 0.0
            np.add.at(table.grad, ids, g)

        return self._push(out, back)

    def cross_entropy(self, logits: Tensor, targets: np.ndarray) -> Tensor:
        """Summed -log softmax[target] over the batch; returns a float64 scalar Tensor.

        Row r's loss is log sum_j exp(z_rj - max_r) - (z_r,target - max_r),
        the log taken and the rows summed in float64.  Unlike -log of the
        target's probability, that stays finite when the probability
        underflows the compute dtype.
        """
        targets = np.asarray(targets, dtype=np.int64)
        z = logits.value
        rows = np.arange(z.shape[0])
        probs = np.subtract(z, z.max(axis=1, keepdims=True), out=self._array(z.shape))
        shifted = probs[rows, targets]
        np.exp(probs, out=probs)
        sums = probs.sum(axis=1, keepdims=True)
        out = Tensor((np.log(sums[:, 0], dtype=np.float64) - shifted).sum())
        probs /= sums

        def back(g: np.ndarray) -> None:
            d = self._array(probs.shape)
            np.copyto(d, probs)
            d[rows, targets] -= 1.0
            d *= g
            self._accumulate_own(logits, d)

        return self._push(out, back)

    def recurrence(
        self,
        x: Tensor,
        h: np.ndarray,
        c: np.ndarray | None,
        weight: Tensor,
        bias: Tensor,
        step: Callable,
        adjoint: Callable,
        blocks: int,
    ) -> tuple[Tensor, np.ndarray, np.ndarray | None]:
        """A gated recurrent layer over a whole window, as one record.

        x is (T*B, m), time-major: rows t*B .. t*B+B-1 are the layer's input
        at step t.  h and c are the (B, n) state the window starts from (c
        is None for cells without a memory lane).  W (m + n, width) and b
        are the values of `weight` and `bias`, the gate blocks side by side.
        `step(W, b, xh, h, c, out)` is one step of the layer: z = xh @ W + b
        for the [x_t, h] rows xh, then the cell's kernel, writing out = (z,
        new h, new c, the step's `blocks` (B, n) activation blocks).  Backward calls
        `adjoint(dh, dc, h, c, acts, dz, tmp) -> (dh_direct, dc)` in
        reverse: it writes the gradient of z into dz and returns, written
        over dh and dc, the gradient reaching the old h other than through
        z (or None) and that of the old c; tmp is a (2, B, n) scratch.  The
        weight gradient and the input gradient are then one GEMM each over
        all T*B rows, in the manner of cuDNN's RNN kernels (Appleyard,
        Kocisky & Blunsom 2016).

        Every array lives in the workspace: the [x_t, h] rows, the states,
        the activations and, in backward, dz, dW and db.  Returns (the T*B
        new h rows, final h, final c); the final states are copies.
        Gradients reach x, `weight` and `bias`; the start and final states
        carry values only.
        """
        batch, n = h.shape
        rows, m = x.value.shape
        w, b = weight.value, bias.value
        width = b.shape[0]
        if rows % batch or w.shape != (m + n, width) or b.ndim != 1 or (c is not None and c.shape != h.shape):
            raise ShapeMismatch(f"recurrence of x {x.value.shape} from h {h.shape} over W {w.shape}, b {b.shape}")
        steps = rows // batch
        memory = c is not None
        # Step t reads xh[t], its [x_t, h] rows, and hs[t] (and cs[t]), the
        # state it starts from; it writes hs[t + 1], so the output is hs[1:].
        # Without a memory lane every cs[t] is None.
        xh = self._array((steps, batch, m + n))
        hs = self._array((steps + 1, batch, n))
        cs = self._array((steps + 1, batch, n)) if memory else [None] * (steps + 1)
        acts = self._array((steps, blocks, batch, n))
        z = self._array((batch, width))
        xh[:, :, :m] = x.value.reshape(steps, batch, m)
        xh[0, :, m:] = h
        hs[0] = h
        if memory:
            cs[0] = c
        for t in range(steps):
            step(w, b, xh[t], hs[t], cs[t], (z, hs[t + 1], cs[t + 1], acts[t]))
            if t + 1 < steps:
                xh[t + 1, :, m:] = hs[t + 1]
        out = Tensor(hs[1:].reshape(rows, n))

        def back(g: np.ndarray) -> None:
            g = g.reshape(steps, batch, n)
            w_h = w[m:].T
            dz = self._array((steps, batch, width))
            dh = self._array((batch, n))
            tmp = self._array((2, batch, n))
            carry = self._array((batch, n))
            carry[...] = 0.0
            dc = self._array((batch, n)) if memory else None
            if memory:
                dc[...] = 0.0
            for t in reversed(range(steps)):
                np.add(g[t], carry, dh)
                dh_direct, dc = adjoint(dh, dc, hs[t], cs[t], acts[t], dz[t], tmp)
                if t:
                    np.matmul(dz[t], w_h, carry)
                    if dh_direct is not None:
                        carry += dh_direct
            dz_rows = dz.reshape(rows, width)
            self._accumulate_own(weight, np.matmul(xh.reshape(rows, m + n).T, dz_rows, out=self._array(w.shape)))
            self._accumulate_own(bias, np.sum(dz_rows, axis=0, out=self._array(b.shape)))
            self._accumulate_own(x, np.matmul(dz_rows, w[:m].T, out=self._array((rows, m))))

        return self._push(out, back), hs[steps].copy(), cs[steps].copy() if memory else None

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


def clip_gradients(grads: list[np.ndarray], max_norm: float, scratch: np.ndarray) -> list[np.ndarray]:
    """Scale all gradients in place by a shared factor so the global L2 norm <= max_norm; returns grads.

    `scratch`, a flat array at least as long as the largest gradient, holds
    each gradient's squares for the norm.
    """
    total = 0.0
    for g in grads:
        total += float(np.multiply(g, g, out=scratch[: g.size].reshape(g.shape)).sum())
    norm = np.sqrt(total)
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
    decays, then p -= lr * m_hat / (sqrt(v_hat) + eps), evaluated in that
    order in `state.scratch`.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeMismatch("params, grads, and state must align")
    state.t += 1
    for p, g, m, v in zip(params, grads, state.m, state.v):
        a, b = (row[: p.size].reshape(p.shape) for row in state.scratch)
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=a)
        v *= BETA2
        np.multiply(g, 1.0 - BETA2, out=a)
        a *= g
        v += a
        np.divide(m, 1.0 - BETA1 ** state.t, out=a)
        np.divide(v, 1.0 - BETA2 ** state.t, out=b)
        a *= state.lr
        np.sqrt(b, out=b)
        b += EPS
        a /= b
        p -= a
    return params, state
