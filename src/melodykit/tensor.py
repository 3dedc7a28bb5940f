"""Reverse-mode autodiff tape plus the optimiser it feeds.

Everything is float64.  A GradientTape records each forward op together
with a closure that routes the output gradient to the inputs; backward
walks the record list once in reverse (execution order is already
topological).  Activations live in (rows, features) matrices.  Training
records five kinds of op: `lookup`, `recurrence` (a whole gated layer over
a whole window), `matmul`, `add_bias` and `cross_entropy`.

numpy supplies the dense array arithmetic; the tape, the loss, and the
optimiser live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeMismatch


class Tensor:
    """A float64 array with a lazily allocated accumulated gradient."""

    __slots__ = ("value", "grad")

    def __init__(self, value) -> None:
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.value.shape})"


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    # Copy on first write: closures may hand back views of upstream grads.
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) to within 2e-16, as 0.5 * (1 + tanh(x / 2)), which never overflows."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


class GradientTape:
    """Wengert list of (output, backward closure) records.

    Ops append in execution order; backward() visits records exactly once
    in reverse, skipping outputs no gradient ever reached.  Inference does
    not use a tape: it steps plain arrays through the same cell kernels.
    """

    def __init__(self) -> None:
        self._records: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []

    def _push(self, out: Tensor, back: Callable[[np.ndarray], None]) -> Tensor:
        self._records.append((out, back))
        return out

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
            raise ShapeMismatch(f"matmul {a.value.shape} @ {b.value.shape}")
        out = Tensor(a.value @ b.value)

        def back(g: np.ndarray) -> None:
            _accumulate(a, g @ b.value.T)
            _accumulate(b, a.value.T @ g)

        return self._push(out, back)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        """Elementwise a + b of equal shapes.

        Training no longer records it.  It stays only because the
        benchmark's tracer wraps every op its `TAPE_OPS` names.
        """
        out = Tensor(a.value + b.value)

        def back(g: np.ndarray) -> None:
            _accumulate(a, g)
            _accumulate(b, g)

        return self._push(out, back)

    def add_bias(self, a: Tensor, b: Tensor) -> Tensor:
        """(B, m) + (m,) with the bias gradient summed over the batch."""
        out = Tensor(a.value + b.value)

        def back(g: np.ndarray) -> None:
            _accumulate(a, g)
            _accumulate(b, g.sum(axis=0))

        return self._push(out, back)

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        """Elementwise a * b of equal shapes.

        Training no longer records it.  It stays only because the
        benchmark's tracer wraps every op its `TAPE_OPS` names.
        """
        out = Tensor(a.value * b.value)

        def back(g: np.ndarray) -> None:
            _accumulate(a, g * b.value)
            _accumulate(b, g * a.value)

        return self._push(out, back)

    def one_minus(self, a: Tensor) -> Tensor:
        """Elementwise 1 - a.

        Training no longer records it.  It stays only because the
        benchmark's tracer wraps every op its `TAPE_OPS` names.
        """
        out = Tensor(1.0 - a.value)

        def back(g: np.ndarray) -> None:
            _accumulate(a, -g)

        return self._push(out, back)

    def sigmoid(self, a: Tensor) -> Tensor:
        """Elementwise `sigmoid`.

        Training no longer records it.  It stays only because the
        benchmark's tracer wraps every op its `TAPE_OPS` names.
        """
        s = sigmoid(a.value)
        out = Tensor(s)

        def back(g: np.ndarray) -> None:
            _accumulate(a, g * s * (1.0 - s))

        return self._push(out, back)

    def tanh(self, a: Tensor) -> Tensor:
        """Elementwise tanh.

        Training no longer records it.  It stays only because the
        benchmark's tracer wraps every op its `TAPE_OPS` names.
        """
        t = np.tanh(a.value)
        out = Tensor(t)

        def back(g: np.ndarray) -> None:
            _accumulate(a, g * (1.0 - t * t))

        return self._push(out, back)

    def concat(self, a: Tensor, b: Tensor) -> Tensor:
        """Column-wise concatenation of two (B, *) matrices.

        Training no longer records it.  It stays only because the
        benchmark's tracer wraps every op its `TAPE_OPS` names.
        """
        na = a.value.shape[1]
        out = Tensor(np.concatenate([a.value, b.value], axis=1))

        def back(g: np.ndarray) -> None:
            _accumulate(a, g[:, :na])
            _accumulate(b, g[:, na:])

        return self._push(out, back)

    def lookup(self, table: Tensor, ids: np.ndarray) -> Tensor:
        """Gather rows of `table`; backward scatter-adds into the rows."""
        ids = np.asarray(ids, dtype=np.int64)
        out = Tensor(table.value[ids])

        def back(g: np.ndarray) -> None:
            if table.grad is None:
                table.grad = np.zeros_like(table.value)
            np.add.at(table.grad, ids, g)

        return self._push(out, back)

    def cross_entropy(self, logits: Tensor, targets: np.ndarray) -> Tensor:
        """Summed -log softmax[target] over the batch; returns a scalar Tensor."""
        targets = np.asarray(targets, dtype=np.int64)
        z = logits.value
        zmax = z.max(axis=1, keepdims=True)
        ez = np.exp(z - zmax)
        probs = ez / ez.sum(axis=1, keepdims=True)
        rows = np.arange(z.shape[0])
        loss = -np.log(probs[rows, targets]).sum()
        out = Tensor(loss)

        def back(g: np.ndarray) -> None:
            d = probs.copy()
            d[rows, targets] -= 1.0
            _accumulate(logits, g * d)

        return self._push(out, back)

    def recurrence(
        self,
        x: Tensor,
        h: np.ndarray,
        c: np.ndarray | None,
        weights: Sequence[Tensor],
        biases: Sequence[Tensor],
        step: Callable,
        adjoint: Callable,
    ) -> tuple[Tensor, np.ndarray, np.ndarray | None]:
        """A gated recurrent layer over a whole window, as one record.

        x is (T*B, m), time-major: rows t*B .. t*B+B-1 are the layer's input
        at step t.  h and c are the (B, n) state the window starts from (c
        is None for cells without a memory lane).  `step(x_t, h, c) -> (h, c,
        cache)` is one step of the layer: z = [x_t, h] @ W + b, then the
        cell's kernel, where W and b are the gate blocks `weights` and
        `biases` side by side.  Backward calls `adjoint(dh, dc, cache) ->
        (dz, dh_direct, dc)` (dh_direct: the gradient reaching the old h
        other than through z, or None) in reverse, then forms the weight
        gradient and the input gradient as one GEMM each over all T*B rows,
        in the manner of cuDNN's RNN kernels (Appleyard, Kocisky & Blunsom
        2016).

        Returns (the T*B new h rows, final h, final c).  Gradients reach x,
        the weights and the biases; the start and final states carry
        values only.
        """
        batch, n = h.shape
        if x.value.shape[0] % batch:
            raise ShapeMismatch(f"recurrence of x {x.value.shape} in lanes of h {h.shape}")
        steps = x.value.shape[0] // batch
        # hs[t*B:(t+1)*B] is the h step t starts from; the output is hs[B:].
        hs = np.empty(((steps + 1) * batch, n))
        hs[:batch] = h
        caches = []
        for t in range(steps):
            h, c, cache = step(x.value[t * batch : (t + 1) * batch], h, c)
            hs[(t + 1) * batch : (t + 2) * batch] = h
            caches.append(cache)
        out = Tensor(hs[batch:])
        memory = c is not None

        def back(g: np.ndarray) -> None:
            w = np.concatenate([p.value for p in weights], axis=1)
            w_x, w_h = w[: x.value.shape[1]], w[x.value.shape[1] :]
            dz = np.empty((steps * batch, w.shape[1]))
            dh_carry = np.zeros((batch, n))
            dc = np.zeros((batch, n)) if memory else None
            for t in reversed(range(steps)):
                rows = slice(t * batch, (t + 1) * batch)
                dzt, dh_direct, dc = adjoint(g[rows] + dh_carry, dc, caches[t])
                dz[rows] = dzt
                if t:
                    dh_carry = dzt @ w_h.T
                    if dh_direct is not None:
                        dh_carry += dh_direct
            dw = np.concatenate([x.value, hs[:-batch]], axis=1).T @ dz
            db = dz.sum(axis=0)
            _accumulate(x, dz @ w_x.T)
            for k, (wk, bk) in enumerate(zip(weights, biases)):
                _accumulate(wk, dw[:, k * n : (k + 1) * n])
                _accumulate(bk, db[k * n : (k + 1) * n])

        return self._push(out, back), h, c

    def backward(self, loss: Tensor) -> None:
        loss.grad = np.ones_like(loss.value)
        for out, back in reversed(self._records):
            if out.grad is not None:
                back(out.grad)


def softmax(z: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax along the last axis (of a vector, or of each row)."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def clip_gradients(grads: list[np.ndarray], max_norm: float) -> list[np.ndarray]:
    """Scale all gradients by a shared factor so the global L2 norm <= max_norm."""
    total = 0.0
    for g in grads:
        total += float((g * g).sum())
    norm = np.sqrt(total)
    if norm <= max_norm or norm == 0.0:
        return [g.copy() for g in grads]
    scale = max_norm / norm
    return [g * scale for g in grads]


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators, step counter and learning rate."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0
    lr: float = 0.002

    @classmethod
    def for_params(cls, params: Sequence[np.ndarray], **kwargs) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            **kwargs,
        )


def adam_step(
    params: list[np.ndarray], grads: list[np.ndarray], state: AdamState
) -> tuple[list[np.ndarray], AdamState]:
    """One bias-corrected Adam update; params are updated in place."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeMismatch("params, grads, and state must align")
    state.t += 1
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        m_hat = m / (1.0 - BETA1 ** state.t)
        v_hat = v / (1.0 - BETA2 ** state.t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + EPS)
    return params, state
