"""The per-op cells on the gradient tape: the reference the window op is checked against.

Every gate's matmul, bias add and activation and every product and sum is
its own tape record here, one time step at a time, so autodiff derives the
gradients that the package's hand-written adjoints and whole-window GEMMs
must reproduce.  Each gate's W and b are Tensors of their own, views of
the layer's fused parameters.  Nothing here is called by the package.
"""

from melodykit.rnn import _v1_blocks
from melodykit.tensor import GradientTape, Tensor


def lstm_step(tape: GradientTape, x: Tensor, state, p):
    h, c = state
    xh = tape.concat(x, h)
    f = tape.sigmoid(tape.add_bias(tape.matmul(xh, p[0]), p[1]))
    i = tape.sigmoid(tape.add_bias(tape.matmul(xh, p[2]), p[3]))
    g = tape.tanh(tape.add_bias(tape.matmul(xh, p[4]), p[5]))
    o = tape.sigmoid(tape.add_bias(tape.matmul(xh, p[6]), p[7]))
    c_new = tape.add(tape.mul(f, c), tape.mul(i, g))
    h_new = tape.mul(o, tape.tanh(c_new))
    return h_new, (h_new, c_new)


def ugrnn_step(tape: GradientTape, x: Tensor, state, p):
    h, _ = state
    xh = tape.concat(x, h)
    g = tape.sigmoid(tape.add_bias(tape.matmul(xh, p[0]), p[1]))
    c = tape.tanh(tape.add_bias(tape.matmul(xh, p[2]), p[3]))
    h_new = tape.add(tape.mul(g, h), tape.mul(tape.one_minus(g), c))
    return h_new, (h_new, None)


STEPS = {"lstm": lstm_step, "ugrnn": ugrnn_step}


def window_loss(tape: GradientTape, model, X, Y, pairs):
    """Summed per-step cross-entropies of the (B, T) window; pairs are per-layer (h, c) Tensors.

    Returns (loss Tensor, final pairs, params): params are new Tensors over
    the model's checkpoint v1 blocks, in that order (embedding, each layer's
    gates as W then b, projection W and b), and hold the gradients.
    """
    step = STEPS[model.cell]
    params = [Tensor(block) for block in _v1_blocks(model.cell, [p.value for p in model.parameters()])]
    embedding, proj_w, proj_b = params[0], params[-2], params[-1]
    per_layer = (len(params) - 3) // model.num_layers
    layers = [params[1 + k * per_layer : 1 + (k + 1) * per_layer] for k in range(model.num_layers)]
    total = None
    for t in range(X.shape[1]):
        v = tape.lookup(embedding, X[:, t])
        new_pairs = []
        for layer, pair in zip(layers, pairs):
            v, pair = step(tape, v, pair, layer)
            new_pairs.append(pair)
        pairs = new_pairs
        logits = tape.add_bias(tape.matmul(v, proj_w), proj_b)
        step_loss = tape.cross_entropy(logits, Y[:, t])
        total = step_loss if total is None else tape.add(total, step_loss)
    return total, pairs, params
