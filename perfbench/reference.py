"""A fixed reference kernel that tracks how fast the machine runs right now.

On a shared machine the same code runs up to 1.5x slower for stretches of
seconds to minutes while other tenants load the CPU.  The benchmark times
this kernel before every set-up and every round, and scales each timing by
REFERENCE_S / (the mean of the kernel times measured just before and just
after it).  The end-to-end times it reports are therefore in seconds of a
machine running the reference kernel in REFERENCE_S; the raw times and
each run's speed factor are printed alongside.

The kernel is the benchmark's own code, never melodykit's, so a change to
melodykit cannot move it.  It mixes what the workloads spend their time on:
dense float64 matmuls and elementwise math of training's shapes, and many
small numpy calls and Python object churn like the tape's and the sampler's.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's median time on the 2-core x86-64 machine the benchmark was
# tuned on (Python 3.11, numpy 2.4, OpenBLAS 0.3.31, one BLAS thread).
REFERENCE_S = 0.060


class Reference:
    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._x = rng.standard_normal((50, 192))
        self._w = rng.standard_normal((192, 128)) * 0.1
        self._g = rng.standard_normal((50, 128))
        self._h = rng.standard_normal((1, 128))
        self._b = rng.standard_normal((128,))
        self.run()  # first call pays for allocation and BLAS start-up

    def run(self) -> float:
        """Run the kernel once; returns its wall time in seconds."""
        t0 = time.perf_counter()
        x, w, g, h, b = self._x, self._w, self._g, self._h, self._b
        for _ in range(180):
            s = 0.5 * (1.0 + np.tanh(0.5 * (x @ w)))
            d = g * s * (1.0 - s)
            w_grad = x.T @ d
            x_grad = d @ w.T
        records = []
        for i in range(4000):
            y = h * 0.5 + b
            records.append((y, i, {"k": i & 7}))
            if len(records) > 64:
                records.clear()
        elapsed = time.perf_counter() - t0
        if not (np.isfinite(w_grad).all() and np.isfinite(x_grad).all()):
            raise RuntimeError("reference kernel produced non-finite values")
        return elapsed
