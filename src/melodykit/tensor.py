"""Reverse-mode autodiff tape plus the optimiser it feeds.

A GradientTape records each forward op together with a closure that
routes the output gradient to the inputs; backward walks the record list
once in reverse (execution order is already topological).  Activations
live in (rows, features) matrices.  Training records four kinds of op:
`recurrence` (a whole stack of gated layers over a whole window, stepped
in waves across the layers, the first layer reading the embedding table
by token id), `matmul`, `add_bias` and `cross_entropy`, so a window is
four records whatever the layer count.  The per-op kinds training no
longer records, `lookup` among them, stay callable: the benchmark's
tracer wraps every op its `TAPE_OPS` names, and `tests/tape_cells.py`,
the per-op oracle that training's window is checked against, records
them.

Precision: a Tensor holds float32 or float64 (anything else is taken as
float64), and a tape computes in the dtype it is made with, float64 by
default: its workspace is allocated in that dtype, so the four training
ops compute in their inputs' dtype.  `rnn.train` runs a float32 tape;
finite-difference checks run the float64 default.  `cross_entropy`'s
summed loss is a float64 scalar whatever the dtype.  Clipping and Adam
work on whatever arrays they are given; training gives them float64.

Memory: those four ops write their outputs, the caches their backward
reads and the first gradient they give each tensor into the tape's
workspace, arrays handed out in request order; so does `recurrence` its
per-window operands (every layer's gate-scaled W and b, the token table,
the wave-major states and activations, with more than one layer a
contiguous copy of each layer's states, a contiguous copy of W[m:]^T
and the first layer's merged weight-gradient operand), and its backward
its gate gradients and one chunk of derivative factors (`FACTOR_CHUNK`
steps, which it fills and uses a chunk at a time), each shared by the
layers it walks one after another.
`GradientTape.reset` rewinds that order and takes back every gradient it
handed out, so a tape kept across the windows of a training run (which
all record the same ops at the same shapes) allocates its window-sized
arrays once.
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


# Steps per factor pass in `GradientTape.recurrence`'s backward.  Longer
# chunks spread a pass's calls over more steps, which pays at batch 4;
# shorter ones keep a chunk's factors small, which pays at batch 50.  Of 4,
# 8 and 12, 8 gained most at batch 4 without losing at batch 50 (float32
# microbenchmark, hidden 128); one pass over the whole window lost at 50.
FACTOR_CHUNK = 8


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


def _layers(lo: int, hi: int) -> int | slice:
    """Index of layers lo .. hi - 1 on a layer axis: the layer itself when there is one, so its arrays are 2-D."""
    return lo if hi - lo == 1 else slice(lo, hi)


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

    def _copy(self, a: np.ndarray) -> np.ndarray:
        """A copy of a in the workspace's next array."""
        out = self._array(a.shape)
        np.copyto(out, a)
        return out

    def _accumulate(self, t: Tensor, g: np.ndarray) -> None:
        # Copy on first write: closures may hand back views of upstream grads.
        if t.grad is None:
            self._grant(t, self._copy(g))
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
        """Gather rows of `table`; backward scatter-adds into the rows.

        Training no longer records it (`recurrence` reads the embedding
        table by id).  It stays for the per-op oracle in the tests and the
        benchmark's tracer, which wraps every op its `TAPE_OPS` names.
        """
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
        table: Tensor,
        ids: np.ndarray,
        states: Sequence[tuple[np.ndarray, np.ndarray | None]],
        weights: Sequence[Tensor],
        biases: Sequence[Tensor],
        step: Callable,
        factors: Callable,
        adjoint: Callable,
        blocks: int,
        scales: Sequence[float],
    ) -> tuple[Tensor, list[tuple[np.ndarray, np.ndarray | None]]]:
        """A stack of L gated recurrent layers over a whole window, as one record.

        The first layer's input at step t is the rows table[ids[t*B : t*B+B]]
        of the (V, m) table; layer l > 0's is layer l - 1's new h at that
        step.  states holds each layer's (B, n) (h, c) the window starts
        from (c is None for cells without a memory lane).  weights[l]
        (m_l + n, width) and biases[l] are the values of that layer's W and
        b, the gate blocks side by side, m_l being m for the first layer and
        n above it.

        The step operands are prepared once per window, as in cuDNN's RNN
        kernels (Appleyard, Kocisky & Blunsom 2016, arXiv:1604.01946).
        `scales` holds each gate block's pre-activation scale (0.5 for a
        sigmoid gate), and every W and b is multiplied by it column by
        column into the workspace, exactly unless a value is subnormal.
        z = [x_t, h] @ W + b, so scaled, is split as h @ W_h + zx_t, W_h the
        scaled W[m_l:], and zx_t = x_t @ W[:m_l] + b the input's share.  The
        first layer's shares are a V-row token table, table @ W[:m] + b,
        made in one GEMM and gathered from by id; an upper layer's is a
        GEMM of the layer below's new h.

        The forward runs in waves, after the same paper: at wave s every
        layer l with 0 <= s - l < T takes its step t = s - l, reading only
        what wave s - 1 wrote.  `step(W_h, zx, h, c, out)` steps those
        layers at once, each argument with a leading layer axis (none when
        one layer steps): z = h @ W_h + zx, then the cell's kernel, writing
        out = (z, new h, new c, the step's `blocks` activation blocks).  So
        a wave is one stacked GEMM for h @ W_h, the first layer's gather,
        one stacked GEMM of the layers below's h through W[:n] plus b, and
        one kernel call over the wave's rows.  States and activations are
        stored wave-major, so a wave's layers are adjacent (B, n) blocks and
        its kernel reads and writes contiguous rows.  The activations are
        those of the unscaled z, and every gradient below is that of the
        unscaled z and W.

        Backward goes layer by layer, the top one first, and walks each
        layer's steps in reverse, in chunks of FACTOR_CHUNK steps, the last
        chunk first.  Per chunk it calls `factors(hs, cs, acts, fac)` once:
        from the chunk's old states (cs is None without a memory lane) and
        (K, blocks, B, n) activations it writes each step's derivative
        factors into fac, a (K, blocks, B, n) workspace array, so that no
        step computes a derivative from the activations itself.  Then per
        step, last first, `adjoint(dh, dc, acts, fac, dz) -> (dh_direct,
        dc)` gets that step's activations and factors and writes the
        gradient of z into dz, the step's (gates, B, n) view of gate blocks;
        it returns, written over dh and dc, the gradient reaching the old h
        other than through z (or None) and that of the old c.  The carry to
        the step before, dz_t W[m_l:]^T, reads a contiguous copy of
        W[m_l:]^T made once per layer, on which BLAS runs faster than on the
        transposed view (at batch 50, width 512, one OpenBLAS 0.3.31 thread:
        74 against 103 us a step).  Then dW[m_l:] = hs^T dz over all T*B
        rows, and S is dz; for the first layer, S is dz summed per token,
        and one GEMM over the T*B rows of [hs | onehot], (n + V) rows of
        output, writes both dW[m:] and S.  dW[:m_l] = x^T S, db = sum S, and
        x's gradient S W[:m_l]^T is the layer below's incoming gradient, or,
        for the first layer, the table's.

        Memory: every array lives in the workspace, among them the window's
        scaled weights, the token table, the copy of W[m_l:]^T and the
        (T*B, n + V) operand of the merged GEMM.  With more than one layer a
        layer's steps are strided across the waves, so each layer's states
        are also copied into (T + 1, B, n) contiguous rows for the GEMMs
        over its T*B rows; one layer's waves are its steps, and it makes no
        copy.  Returns (the top layer's
        T*B new h rows, each layer's final (h, c)); the final states are
        copies.  Gradients reach the table, `weights` and `biases`; the
        states carry values only.  An id outside the table is BadToken, and
        states or weights that do not fit one stack are ShapeMismatch.
        """
        layers, (tokens, m) = len(weights), table.value.shape
        ids = np.asarray(ids, dtype=np.int64)
        rows = ids.size
        # The gathers below run in "clip" mode, which would clamp a bad id.
        if rows and (ids.min() < 0 or ids.max() >= tokens):
            raise BadToken(f"ids in [{ids.min()}, {ids.max()}] from a table of {tokens} rows")
        if not layers or len(states) != layers or len(biases) != layers or np.ndim(states[0][0]) != 2:
            raise ShapeMismatch(f"recurrence of {len(states)} states over {layers} weights and {len(biases)} biases")
        batch, n = states[0][0].shape
        memory, width = states[0][1] is not None, len(scales) * n
        if (rows % batch
                or [w.value.shape for w in weights] != [(m + n, width)] + [(2 * n, width)] * (layers - 1)
                or any(b.value.shape != (width,) for b in biases)
                or any(h.shape != (batch, n) or (c is not None) != memory or memory and c.shape != (batch, n)
                       for h, c in states)):
            raise ShapeMismatch(f"recurrence of ids {ids.shape} from states {[np.shape(h) for h, _ in states]} "
                                f"over W {[w.value.shape for w in weights]}")
        steps = rows // batch
        scale = np.repeat(np.asarray(scales, self.dtype), n)
        w_h = self._array((layers, n, width))
        w_x = self._array((layers - 1, n, width))
        b_x = self._array((layers - 1, 1, width))
        for l, (w, b) in enumerate(zip(weights, biases)):
            np.multiply(w.value[-n:], scale, w_h[l])
            if l:
                np.multiply(w.value[:n], scale, w_x[l - 1])
                np.multiply(b.value, scale, b_x[l - 1, 0])
        zx_table = np.matmul(table.value, np.multiply(weights[0].value[:m], scale, self._array((m, width))),
                             out=self._array((tokens, width)))
        zx_table += np.multiply(biases[0].value, scale, self._array((width,)))
        step_ids = ids.reshape(steps, batch)
        # Wave-major: hs[j, l] is layer l's state after j - l steps, so
        # layer l's states are hs[l : l + T + 1, l], and wave s, in which
        # layer l takes step s - l, reads row s (its old state, and at l - 1
        # its input) and writes row s + 1.  acts[s, :, l] holds the
        # activations of layer l's step s - l.  A wave's layers are adjacent
        # (B, n) blocks of one row.
        hs = self._array((steps + layers, layers, batch, n))
        cs = self._array((steps + layers, layers, batch, n)) if memory else None
        acts = self._array((steps + layers - 1, blocks, layers, batch, n))
        z = self._array((layers, batch, width))
        zx = self._array((layers, batch, width))
        for l, (h, c) in enumerate(states):
            hs[l, l] = h
            if memory:
                cs[l, l] = c
        for s in range(steps + layers - 1 if steps else 0):
            # Wave s steps layers lo .. hi - 1, layer l taking its step s - l.
            lo = s - steps + 1 if s >= steps else 0
            hi = s + 1 if s < layers else layers
            if lo == 0:
                np.take(zx_table, step_ids[s], axis=0, mode="clip", out=zx[0])
            if hi > 1:
                up = lo or 1
                below, upper = _layers(up - 1, hi - 1), _layers(up, hi)
                np.matmul(hs[s, below], w_x[below], zx[upper])
                zx[upper] += b_x[below]
            k = _layers(lo, hi)
            step(w_h[k], zx[k], hs[s, k], cs[s, k] if memory else None,
                 (z[k], hs[s + 1, k], cs[s + 1, k] if memory else None, acts[s, :, k]))
        # Each layer's T + 1 states, as (T + 1, B, n) blocks.  With more
        # than one layer they are strided across the waves, and the GEMMs
        # over a layer's T*B rows read a contiguous copy.
        seqs = [hs[l : l + steps + 1, l] for l in range(layers)]
        if layers > 1:
            seqs = [self._copy(seq) for seq in seqs]
        out = Tensor(seqs[-1][1:].reshape(rows, n))

        def back(g: np.ndarray) -> None:
            w_ht = self._array((width, n))
            dz = self._array((steps, batch, width))
            dz_blocks = dz.reshape(steps, batch, width // n, n).swapaxes(1, 2)
            dz_rows = dz.reshape(rows, width)
            fac = self._array((min(FACTOR_CHUNK, steps), blocks, batch, n))
            dh = self._array((batch, n))
            carry = self._array((batch, n))
            dc = self._array((batch, n)) if memory else None
            for l in reversed(range(layers)):
                w, m_l = weights[l].value, m if l == 0 else n
                h_l, c_l, a_l = hs[l:, l], cs[l:, l] if memory else None, acts[l:, :, l]
                g = g.reshape(steps, batch, n)
                np.copyto(w_ht, w[m_l:].T)
                carry[...] = 0.0
                if memory:
                    dc[...] = 0.0
                for end in range(steps, 0, -FACTOR_CHUNK):
                    start = max(end - FACTOR_CHUNK, 0)
                    factors(h_l[start:end], c_l[start:end] if memory else None, a_l[start:end], fac[: end - start])
                    for t in reversed(range(start, end)):
                        np.add(g[t], carry, dh)
                        dh_direct, dc = adjoint(dh, dc, a_l[t], fac[t - start], dz_blocks[t])
                        if t:
                            np.matmul(dz[t], w_ht, carry)
                            if dh_direct is not None:
                                carry += dh_direct
                if l:
                    x = seqs[l - 1][1:].reshape(rows, n)
                    dw = self._array(w.shape)
                    np.matmul(seqs[l][:steps].reshape(rows, n).T, dz_rows, out=dw[n:])
                    s = dz_rows
                else:
                    x = table.value
                    lhs = self._array((steps, batch, n + tokens))  # [hs | onehot]: row r's state, then its token's 1
                    lhs[:, :, :n] = seqs[0][:steps]
                    lhs[:, :, n:] = 0.0
                    lhs = lhs.reshape(rows, n + tokens)
                    lhs[np.arange(rows), n + ids] = 1.0
                    merged = self._array((m + n + tokens, width))  # dW, then S
                    np.matmul(lhs.T, dz_rows, out=merged[m:])
                    dw, s = merged[: m + n], merged[m + n :]
                np.matmul(x.T, s, out=dw[:m_l])
                self._accumulate_own(weights[l], dw)
                self._accumulate_own(biases[l], np.sum(s, axis=0, out=self._array((width,))))
                g = np.matmul(s, w[:m_l].T, out=self._array(x.shape))
            self._accumulate_own(table, g)

        final = [(hs[l + steps, l].copy(), cs[l + steps, l].copy() if memory else None) for l in range(layers)]
        return self._push(out, back), final

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
