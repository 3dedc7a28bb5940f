"""The per-op cells on the gradient tape: the reference the window op is checked against.

Every gate's matmul, bias add and activation and every product and sum is
its own tape record here, one time step at a time, so autodiff derives the
gradients that the package's hand-written adjoints and whole-window GEMMs
must reproduce.  Nothing here is called by the package.
"""

from melodykit.tensor import GradientTape, Tensor


def lstm_step(tape: GradientTape, x: Tensor, state, p):
    h, c = state
    xh = tape.concat(x, h)
    f = tape.sigmoid(tape.add_bias(tape.matmul(xh, p.weights[0]), p.biases[0]))
    i = tape.sigmoid(tape.add_bias(tape.matmul(xh, p.weights[1]), p.biases[1]))
    g = tape.tanh(tape.add_bias(tape.matmul(xh, p.weights[2]), p.biases[2]))
    o = tape.sigmoid(tape.add_bias(tape.matmul(xh, p.weights[3]), p.biases[3]))
    c_new = tape.add(tape.mul(f, c), tape.mul(i, g))
    h_new = tape.mul(o, tape.tanh(c_new))
    return h_new, (h_new, c_new)


def ugrnn_step(tape: GradientTape, x: Tensor, state, p):
    h, _ = state
    xh = tape.concat(x, h)
    g = tape.sigmoid(tape.add_bias(tape.matmul(xh, p.weights[0]), p.biases[0]))
    c = tape.tanh(tape.add_bias(tape.matmul(xh, p.weights[1]), p.biases[1]))
    h_new = tape.add(tape.mul(g, h), tape.mul(tape.one_minus(g), c))
    return h_new, (h_new, None)


STEPS = {"lstm": lstm_step, "ugrnn": ugrnn_step}


def window_loss(tape: GradientTape, model, X, Y, pairs):
    """Summed per-step cross-entropies of the (B, T) window; pairs are per-layer (h, c) Tensors.

    Returns (loss Tensor, final pairs).
    """
    step = STEPS[model.cell]
    total = None
    for t in range(X.shape[1]):
        v = tape.lookup(model.embedding, X[:, t])
        new_pairs = []
        for layer, pair in zip(model.layers, pairs):
            v, pair = step(tape, v, pair, layer)
            new_pairs.append(pair)
        pairs = new_pairs
        logits = tape.add_bias(tape.matmul(v, model.proj_w), model.proj_b)
        step_loss = tape.cross_entropy(logits, Y[:, t])
        total = step_loss if total is None else tape.add(total, step_loss)
    return total, pairs
