import dataclasses
import errno
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from melodykit import core, rnn
from melodykit.core import DatasetVariant, Vocabulary, build_corpus
from melodykit.errors import (
    BadToken,
    CorpusTooSmall,
    MalformedFile,
    ShapeMismatch,
    UnknownSeedToken,
)
from melodykit.rnn import (
    FACTOR_CHUNK,
    CellParams,
    CellState,
    ModelState,
    TrainConfig,
    _layer_step,
    _pick,
    _v1_blocks,
    _window_loss,
    _zero_states,
    cell_spec,
    init_model,
    load_checkpoint,
    sample,
    sample_batch,
    save_checkpoint,
    stack_forward,
    train,
)
from melodykit.tensor import AdamState, GradientTape, Tensor, adam_step, clip_gradients, sigmoid, softmax

from melodykit.errors import PitchOutOfRange

from . import tape_cells

VOCAB = Vocabulary(tokens=tuple(range(48, 85)))


def tiny_model(cell="lstm", layers=1, hidden=6, emb=4, seed=0):
    return init_model(
        VOCAB, DatasetVariant.CONTROL, cell=cell, num_layers=layers,
        hidden_size=hidden, embedding_dim=emb, rng=seed,
    )


def zeroed(model):
    for p in model.parameters():
        p.value[:] = 0.0
    return model


# --- registry and parameter init ----------------------------------------

def test_cell_registry():
    lstm = cell_spec("lstm")
    assert lstm.gates == ("forget", "input", "candidate", "output")
    assert lstm.has_memory
    ug = cell_spec("ugrnn")
    assert ug.gates == ("update", "candidate")
    assert not ug.has_memory


def test_unknown_cell_lists_known():
    with pytest.raises(ValueError) as exc_info:
        cell_spec("gru")
    assert "lstm" in str(exc_info.value) and "ugrnn" in str(exc_info.value)


@pytest.mark.parametrize("cell, gates", [("lstm", 4), ("ugrnn", 2)])
def test_init_model_shapes_and_biases(cell, gates):
    model = init_model(VOCAB, DatasetVariant.CONTROL, cell=cell, num_layers=2, hidden_size=6,
                       embedding_dim=4, rng=np.random.default_rng(0), init_scale=0.05)
    for layer, rows in zip(model.layers, (4 + 6, 6 + 6)):  # layer 1 consumes h
        assert layer.w.value.shape == (rows, gates * 6)
        assert np.abs(layer.w.value).max() <= 0.05
        forget = 6 if cell == "lstm" else 0  # the LSTM forget gate's block comes first
        np.testing.assert_array_equal(layer.b.value[:forget], np.ones(forget))
        np.testing.assert_array_equal(layer.b.value[forget:], np.zeros(gates * 6 - forget))


# --- single cell steps ---------------------------------------------------

def zero_cell(kind, input_size=3, hidden=2):
    width = len(cell_spec(kind).gates) * hidden
    return CellParams(Tensor(np.zeros((input_size + hidden, width))), Tensor(np.zeros(width)))


def cell_step(kind, x, p, h, c=None):
    """One step through the cell's kernel on a batch of one; returns (h, c) as 1-D arrays.

    The step takes halved step weights: W_h and zx with each gate block's
    columns scaled by the cell's `scales`.
    """
    def row(v):
        return np.asarray(v, dtype=np.float64)[None]

    spec = cell_spec(kind)
    x, h, c = row(x), row(h), None if c is None else row(c)
    m = x.shape[1]  # W's first m rows take x, the rest h
    scale = np.repeat(spec.scales, p.b.value.size // len(spec.gates))
    zx = (x @ p.w.value[:m] + p.b.value) * scale
    h_new, c_new, _ = _layer_step(spec, p.w.value[m:] * scale, zx, h, c)
    return h_new[0], None if c_new is None else c_new[0]


def test_lstm_step_zero_params():
    p = zero_cell("lstm")
    h, c = cell_step("lstm", np.ones(3), p, np.zeros(2), np.zeros(2))
    np.testing.assert_allclose(h, 0.0)
    np.testing.assert_allclose(c, 0.0)


def test_lstm_step_saturated_gates_pass_memory():
    p = zero_cell("lstm")  # hidden 2: gates forget, input, candidate, output
    p.b.value[0:2] = 30.0   # forget ~ 1
    p.b.value[2:4] = -30.0  # input ~ 0
    p.b.value[6:8] = 30.0   # output ~ 1
    c0 = np.array([0.7, -0.2])
    h, c = cell_step("lstm", np.ones(3), p, np.zeros(2), c0)
    np.testing.assert_allclose(c, c0, atol=1e-9)
    np.testing.assert_allclose(h, np.tanh(c0), atol=1e-9)


def test_lstm_step_scalar_hand_value():
    # 1-unit cell, input width 1: every gate sees 0.5*x + 0.25*h + bias
    p = CellParams(Tensor(np.array([[0.5] * 4, [0.25] * 4])), Tensor(np.array([0.1, -0.2, 0.3, 0.0])))
    x, h0, c0 = 0.8, 0.4, -0.3
    pre = 0.5 * x + 0.25 * h0

    def sig(z):
        return 1 / (1 + math.exp(-z))

    f, i = sig(pre + 0.1), sig(pre - 0.2)
    g, o = math.tanh(pre + 0.3), sig(pre)
    c1 = f * c0 + i * g
    h1 = o * math.tanh(c1)
    h, c = cell_step("lstm", [x], p, [h0], [c0])
    assert h[0] == pytest.approx(h1, abs=1e-12)
    assert c[0] == pytest.approx(c1, abs=1e-12)


def test_ugrnn_step_zero_params_halves_state():
    p = zero_cell("ugrnn")
    v = np.array([0.6, -1.0])
    h, c = cell_step("ugrnn", np.ones(3), p, v)
    np.testing.assert_allclose(h, v / 2)
    assert c is None


def test_ugrnn_step_saturated_gate_carries():
    p = zero_cell("ugrnn")  # hidden 2: gates update, candidate
    p.b.value[:2] = 30.0
    v = np.array([0.6, -1.0])
    h, _ = cell_step("ugrnn", [5.0, -3.0, 2.0], p, v)
    np.testing.assert_allclose(h, v, atol=1e-9)


def test_ugrnn_step_scalar_hand_value():
    p = CellParams(Tensor(np.array([[0.3, 1.2], [-0.6, 0.4]])),  # columns: update, candidate
                   Tensor(np.array([0.05, -0.1])))
    x, h0 = -0.5, 0.9
    g = 1 / (1 + math.exp(-(0.3 * x - 0.6 * h0 + 0.05)))
    c = math.tanh(1.2 * x + 0.4 * h0 - 0.1)
    want = g * h0 + (1 - g) * c
    h, _ = cell_step("ugrnn", [x], p, [h0])
    assert h[0] == pytest.approx(want, abs=1e-12)


def test_step_shape_mismatch():
    p = zero_cell("lstm", input_size=3, hidden=2)
    with pytest.raises(ShapeMismatch):
        cell_step("lstm", np.ones(4), p, np.zeros(2), np.zeros(2))
    q = zero_cell("ugrnn", input_size=3, hidden=2)
    with pytest.raises(ShapeMismatch):
        cell_step("ugrnn", np.ones(3), q, np.zeros(5))
    # The training path checks the same widths once per window.
    m = tiny_model(cell="ugrnn", hidden=6, emb=4)
    with pytest.raises(ShapeMismatch):
        _window_loss(GradientTape(), m, np.zeros((1, 3), dtype=int), np.zeros((1, 3), dtype=int),
                     [(np.zeros((1, 5)), None)])
    # ... and that the states fit the stack: one state per layer, each (B, hidden), c as the cell keeps one.
    X = np.zeros((2, 3), dtype=int)
    for cell in ("lstm", "ugrnn"):
        m = tiny_model(cell=cell, layers=2, hidden=6, emb=4)
        fit = _zero_states(m, 2)
        c = np.zeros((2, 6)) if cell == "lstm" else None
        for states in (fit[:1], fit + fit[:1], [fit[0], (np.zeros((2, 5)), c)], [fit[0], (np.zeros((3, 6)), c)],
                       [fit[0], (np.zeros((2, 6)), None if cell == "lstm" else np.zeros((2, 6)))],
                       [fit[0], (np.zeros(6), c)]):
            with pytest.raises(ShapeMismatch):
                _window_loss(GradientTape(), m, X, X, states)
        _window_loss(GradientTape(), m, X, X, fit)  # the states that fit pass


@pytest.mark.parametrize("kind", ["lstm", "ugrnn"])
def test_layer_step_allocates_in_its_inputs_dtype(kind):
    # A float64 output would send a float32 GEMM off BLAS's float32 path.
    spec = cell_spec(kind)
    rng = np.random.default_rng(3)
    w_h, zx = rng.uniform(-1, 1, (2, len(spec.gates) * 2)), rng.uniform(-1, 1, (4, len(spec.gates) * 2))
    h = rng.uniform(-1, 1, (4, 2))
    c = rng.uniform(-1, 1, (4, 2)) if spec.has_memory else None
    want = _layer_step(spec, w_h, zx, h, c)
    f32 = [None if a is None else a.astype(np.float32) for a in (w_h, zx, h, c)]
    got = _layer_step(spec, *f32)
    for g, v in zip(got, want):
        if v is None:
            assert g is None
        else:
            assert g.dtype == np.float32
            np.testing.assert_allclose(g, v, atol=1e-6)


@pytest.mark.parametrize("batch", [1, 4, 50])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["lstm", "ugrnn"])
def test_halved_step_keeps_the_sigmoid_bits(kind, dtype, batch):
    # The step reads W_h and zx with each sigmoid gate's columns halved and
    # makes one tanh; its outputs must equal, bit for bit, the 0.10.0
    # formulas with `tensor.sigmoid` over the unhalved z.  Halving skipped
    # or applied twice moves every sigmoid gate, saturated or not.
    spec, n = cell_spec(kind), 16
    width = len(spec.gates) * n
    rng = np.random.default_rng([batch, width, np.dtype(dtype).itemsize])
    w_h = rng.uniform(-1, 1, (n, width)).astype(dtype)
    h = rng.uniform(-1, 1, (batch, n)).astype(dtype)
    c = rng.uniform(-2, 2, (batch, n)).astype(dtype) if spec.has_memory else None
    # Targets for z: a third saturated (|z| >= 20), a third near zero, a third moderate.
    kind_of = rng.integers(0, 3, (batch, width))
    target = np.choose(kind_of, [rng.choice([-1, 1], (batch, width)) * rng.uniform(20, 40, (batch, width)),
                                 rng.uniform(-1e-3, 1e-3, (batch, width)),
                                 rng.normal(0, 3, (batch, width))])
    zx = (target - h.astype(np.float64) @ w_h).astype(dtype)
    z = np.matmul(h, w_h)
    z += zx  # the unhalved pre-activations, summed as 0.10.0's step summed them
    assert np.abs(z[kind_of == 0]).min() >= 19 and np.abs(z[kind_of == 1]).max() < 2e-3

    scale = np.repeat(np.asarray(spec.scales, dtype), n)
    assert sorted(set(spec.scales)) == [0.5, 1.0]
    h_new, c_new, acts = _layer_step(spec, w_h * scale, zx * scale, h, c)

    blocks = [z[:, k * n : (k + 1) * n] for k in range(len(spec.gates))]
    if kind == "lstm":
        f, i, o = sigmoid(blocks[0]), sigmoid(blocks[1]), sigmoid(blocks[3])
        g = np.tanh(blocks[2])
        want_c = f * c + i * g
        tc = np.tanh(want_c)
        want_h, want_acts = o * tc, [f, i, g, o, tc]
        assert np.array_equal(c_new, want_c)
    else:
        g, cand = sigmoid(blocks[0]), np.tanh(blocks[1])
        keep = 1.0 - g
        want_h, want_acts = g * h + keep * cand, [g, cand, keep]
        assert c_new is None
    assert h_new.dtype == dtype and np.array_equal(h_new, want_h)
    assert np.array_equal(acts, np.stack(want_acts))


def model_copy(model, dtype):
    copy = rnn._empty_model(model.vocabulary, model.variant, model.cell, model.num_layers,
                            model.hidden_size, model.embedding_dim, dtype)
    for c, p in zip(copy.parameters(), model.parameters()):
        c.value[...] = p.value
    return copy


# float32 is stepped from the float64 model rounded to float32, and sums
# over up to T*B rows; measured at these shapes: the loss within 0.3 eps
# relative, each parameter's gradient within 2.5 eps of its largest entry.
F32_LOSS_RTOL = 4 * np.finfo(np.float32).eps
F32_GRAD_RTOL = 16 * np.finfo(np.float32).eps


@pytest.mark.parametrize("layers", [1, 3])
@pytest.mark.parametrize("cell", ["lstm", "ugrnn"])
def test_float32_window_stays_float32_and_matches_float64(cell, layers):
    rng = np.random.default_rng([layers, 7])
    model = init_model(VOCAB, DatasetVariant.CONTROL, cell=cell, num_layers=layers,
                       hidden_size=5, embedding_dim=3, rng=rng, init_scale=0.6)
    X = rng.integers(0, VOCAB.size, size=(4, 7))
    Y = rng.integers(0, VOCAB.size, size=(4, 7))
    states = [(rng.normal(scale=0.5, size=(4, 5)), rng.normal(scale=0.5, size=(4, 5)) if cell == "lstm" else None)
              for _ in range(layers)]
    tape = GradientTape()
    want, _ = _window_loss(tape, model, X, Y, states)
    tape.backward(want)

    f32 = model_copy(model, np.float32)
    tape = GradientTape(np.float32)
    loss, final = _window_loss(tape, f32, X, Y, [(h.astype(np.float32), None if c is None else c.astype(np.float32))
                                                 for h, c in states])
    tape.backward(loss)
    # A float64 array anywhere would send its GEMMs off BLAS's float32 path.
    assert {a.dtype for a in tape._arrays} == {np.dtype(np.float32)}
    assert {p.grad.dtype for p in f32.parameters()} == {np.dtype(np.float32)}
    assert {a.dtype for state in final for a in state if a is not None} == {np.dtype(np.float32)}
    # The summed loss is float64 whatever the tape computes in.
    assert loss.value.dtype == np.float64 and loss.value.shape == ()
    assert float(loss.value) == pytest.approx(float(want.value), rel=F32_LOSS_RTOL)
    for p, q in zip(f32.parameters(), model.parameters()):
        np.testing.assert_allclose(p.grad, q.grad, rtol=0, atol=F32_GRAD_RTOL * np.abs(q.grad).max())


# --- the window op against the per-op tape ------------------------------

# FACTOR_CHUNK steps fill one chunk of the adjoint's factor pass; the two counts past it reach a
# second and a third chunk.  At batch 50 the first layer's merged weight-gradient GEMM sums
# repeated token ids.
@pytest.mark.parametrize("steps", [1, 7, FACTOR_CHUNK, FACTOR_CHUNK + 1, 2 * FACTOR_CHUNK + 3])
@pytest.mark.parametrize("batch", [1, 4, 50])
@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("cell", ["lstm", "ugrnn"])
def test_window_loss_matches_per_op_tape(cell, layers, batch, steps):
    # The window op reorders float sums (one GEMM over all T*B rows), so
    # agreement is to a tolerance, set from float64 before comparing.
    rng = np.random.default_rng([layers, batch, steps])
    model = init_model(VOCAB, DatasetVariant.CONTROL, cell=cell, num_layers=layers,
                       hidden_size=5, embedding_dim=3, rng=rng, init_scale=0.6)
    # Token id 0 never enters the window, so its embedding row gets no gradient.
    X = rng.integers(1, VOCAB.size, size=(batch, steps))
    Y = rng.integers(0, VOCAB.size, size=(batch, steps))
    # Nonzero carried states, as every window after an epoch's first has.
    states = [
        (rng.normal(scale=0.5, size=(batch, 5)),
         rng.normal(scale=0.5, size=(batch, 5)) if cell == "lstm" else None)
        for _ in range(layers)
    ]

    # Both sides' gradients are compared block by block, in checkpoint v1's
    # order: the oracle keeps one W and one b Tensor per gate.
    params = model.parameters()
    assert len(params) == 1 + 2 * layers + 2
    tape = GradientTape()
    loss, final = _window_loss(tape, model, X, Y, states)
    tape.backward(loss)
    loss, grads = float(loss.value), _v1_blocks(cell, [p.grad for p in params])
    assert not grads[0][0].any()  # exactly zero: the absent token's row of S is a sum of zeros

    tape = GradientTape()
    want_loss, want_final, gate_params = tape_cells.window_loss(
        tape, model, X, Y, [(Tensor(h), None if c is None else Tensor(c)) for h, c in states])
    tape.backward(want_loss)
    want_loss, want_grads = float(want_loss.value), [p.grad for p in gate_params]

    assert loss == pytest.approx(want_loss, rel=1e-12, abs=1e-12)
    assert len(grads) == len(want_grads) == 1 + 2 * layers * len(cell_spec(cell).gates) + 2
    for k, (got, want) in enumerate(zip(grads, want_grads)):  # k == 0 is the embedding
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12, err_msg=f"parameter {k}")
    for (h, c), (want_h, want_c) in zip(final, want_final):
        np.testing.assert_allclose(h, want_h.value, rtol=1e-12, atol=1e-12)
        if cell == "lstm":
            np.testing.assert_allclose(c, want_c.value, rtol=1e-12, atol=1e-12)
        else:
            assert c is None and want_c is None


# --- the wave schedule ---------------------------------------------------

@pytest.mark.parametrize("steps", [1, 2, FACTOR_CHUNK + 1])
@pytest.mark.parametrize("batch", [1, 4, 50])
@pytest.mark.parametrize("layers", [2, 3])
@pytest.mark.parametrize("cell", ["lstm", "ugrnn"])
def test_waves_equal_stepping_one_layer_after_another(cell, layers, batch, steps):
    # The stack op steps layer l's step t in wave t + l, all of a wave's
    # layers in one replay of `_step_calls`' three calls, after
    # `_share_calls` for the upper layers' input shares.  Stepping each
    # layer through the whole window before the next one starts, one
    # `_layer_step` call (the same `_step_calls`) per step with the same
    # per-step products, must give the same bits.
    spec = cell_spec(cell)
    rng = np.random.default_rng([layers, batch, steps, 11])
    model = model_copy(init_model(VOCAB, DatasetVariant.CONTROL, cell=cell, num_layers=layers, hidden_size=5,
                                  embedding_dim=3, rng=rng, init_scale=0.6), np.float32)
    ids = rng.integers(0, VOCAB.size, size=(steps, batch))
    states = [(rng.normal(scale=0.5, size=(batch, 5)).astype(np.float32),
               rng.normal(scale=0.5, size=(batch, 5)).astype(np.float32) if spec.has_memory else None)
              for _ in range(layers)]
    top, final = rnn._stack(GradientTape(np.float32), spec, model, ids, states)

    scale = np.repeat(np.asarray(spec.scales, np.float32), 5)
    emb = model.embedding.value
    inputs = None  # the layer below's new h at every step
    for k, (layer, (h, c)) in enumerate(zip(model.layers, states)):
        w, b = layer.w.value * scale, layer.b.value * scale
        m = w.shape[0] - 5
        if k == 0:
            table = emb @ w[:m]
            table += b
        outputs = []
        for t in range(steps):
            if k == 0:
                zx = table[ids[t]]
            else:
                zx = inputs[t] @ w[:m]
                zx += b
            h, c, _ = _layer_step(spec, w[m:], zx, h, c)
            outputs.append(h)
        inputs = outputs
        assert np.array_equal(final[k][0], h) and final[k][0].dtype == np.float32, f"layer {k}'s final h"
        assert (final[k][1] is None and c is None) or np.array_equal(final[k][1], c), f"layer {k}'s final c"
    assert np.array_equal(top.value, np.concatenate(inputs)) and top.value.dtype == np.float32


# --- embedding -----------------------------------------------------------

@pytest.mark.parametrize("bad", [VOCAB.size, -1])
def test_window_loss_rejects_ids_outside_the_vocabulary(bad):
    # The first layer gathers its token table's rows in "clip" mode, which
    # would clamp a bad id to the last (or first) row.
    m = tiny_model(cell="ugrnn")
    X = np.array([[0, bad, 1]])
    with pytest.raises(BadToken):
        _window_loss(GradientTape(), m, X, np.zeros_like(X), _zero_states(m, 1))


def test_training_touches_only_seen_embedding_rows():
    # token 64 appears in y but never in x's first window, so its
    # embedding row must survive one optimizer step unchanged
    corpus = build_corpus([[60, 62, 60, 62, 64]], DatasetVariant.CONTROL)
    cfg = TrainConfig(cell="ugrnn", hidden_size=4, embedding_dim=3,
                      batch_size=1, seq_len=4, epochs=1, max_iterations=1)
    model, _ = train(corpus, cfg, seed=0)
    fresh = init_model(corpus.vocabulary, corpus.variant, cell="ugrnn",
                       num_layers=1, hidden_size=4, embedding_dim=3,
                       rng=np.random.default_rng(0))
    row_64 = corpus.vocabulary.encode([64])[0]
    np.testing.assert_array_equal(model.embedding.value[row_64], fresh.embedding.value[row_64])
    row_60 = corpus.vocabulary.encode([60])[0]
    assert not np.array_equal(model.embedding.value[row_60], fresh.embedding.value[row_60])


# --- model init and the stack -------------------------------------------

def test_init_model_layer_bounds():
    with pytest.raises(ValueError):
        tiny_model(layers=0)
    with pytest.raises(ValueError):
        tiny_model(layers=6)


def test_init_model_rejects_zero_width():
    # init_model and load_checkpoint share one size check, so a degenerate
    # width is refused on either path.
    with pytest.raises(ValueError):
        tiny_model(hidden=0)
    with pytest.raises(ValueError):
        tiny_model(emb=0)
    tiny_model(hidden=1, emb=1)


def test_init_model_deterministic():
    a, b = tiny_model(seed=5), tiny_model(seed=5)
    for p, q in zip(a.parameters(), b.parameters()):
        np.testing.assert_array_equal(p.value, q.value)


def test_parameter_order_and_shapes():
    m = tiny_model(cell="lstm", layers=2, hidden=6, emb=4)
    params = m.parameters()
    # embedding + 2 layers * (W, b) + projection W, b
    assert len(params) == 1 + 2 * 2 + 2
    assert params[0].value.shape == (VOCAB.size, 4)
    assert params[1].value.shape == (4 + 6, 4 * 6)  # layer 0 W, gates side by side
    assert params[2].value.shape == (4 * 6,)
    assert params[3].value.shape == (6 + 6, 4 * 6)  # layer 1 consumes h
    assert params[-2].value.shape == (6, VOCAB.size)
    assert m.num_layers == 2 and m.hidden_size == 6
    assert m.embedding_dim == 4 and m.vocab_size == VOCAB.size


def test_stack_forward_zero_params_uniform_logits():
    m = zeroed(tiny_model())
    logits, _ = stack_forward([0, 1, 2], m)
    np.testing.assert_array_equal(logits, np.zeros((3, VOCAB.size)))


def test_stack_forward_shapes_and_validation():
    m = tiny_model()
    logits, states = stack_forward([0, 5, 9, 2], m)
    assert logits.shape == (4, VOCAB.size)
    assert len(states) == 1 and states[0].h.shape == (6,)
    with pytest.raises(BadToken):
        stack_forward([0, VOCAB.size], m)
    with pytest.raises(ShapeMismatch):
        stack_forward([0], m, states=[CellState(h=np.zeros(6), c=np.zeros(6))] * 2)
    with pytest.raises(ValueError):
        stack_forward([], m)
    # Ids must be integers: read as int64, 0.7 would be id 0 and True id 1.
    for ids in ([0.7, 1.2], [True, False], np.array([0.0, 1.0]), ["0", "1"]):
        with pytest.raises(ValueError, match="integers"):
            stack_forward(ids, m)
    for ids in (np.array([0, 5], dtype=np.uint8), np.array([0, 5], dtype=np.int32), (np.int64(0), 5)):
        np.testing.assert_array_equal(stack_forward(ids, m)[0], logits[:2])


@pytest.mark.parametrize("cell", ["lstm", "ugrnn"])
def test_stack_forward_refuses_states_that_do_not_fit(cell):
    # The rule training applies (`test_step_shape_mismatch`'s six state
    # lists), for the one lane stack_forward steps, whose h is (hidden,):
    # too few or too many states, a state of another width, one with a
    # batch axis, c where the cell keeps none or none where it keeps one,
    # and a 0-d h.  An LSTM's c of another width fails alike.
    m = tiny_model(cell=cell, layers=2, hidden=6, emb=4)
    c = np.zeros(6) if cell == "lstm" else None
    fit = [CellState(np.zeros(6), c), CellState(np.zeros(6), c)]
    bad = [fit[:1], fit + fit[:1], [fit[0], CellState(np.zeros(5), c)], [fit[0], CellState(np.zeros((3, 6)), c)],
           [fit[0], CellState(np.zeros(6), None if cell == "lstm" else np.zeros(6))],
           [fit[0], CellState(np.zeros(()), c)]]
    if cell == "lstm":
        bad.append([fit[0], CellState(np.zeros(6), np.zeros(5))])
    for states in bad:
        with pytest.raises(ShapeMismatch):
            stack_forward([0, 3], m, states)
    np.testing.assert_array_equal(stack_forward([0, 3], m, fit)[0], stack_forward([0, 3], m)[0])


def test_stack_forward_matches_manual_composition():
    # A plain-numpy two-layer LSTM, written out gate by gate.
    m = tiny_model(cell="lstm", layers=2, hidden=6, emb=4, seed=3)
    ids = [7, 11]
    logits, _ = stack_forward(ids, m)

    def sig(z):
        return 1 / (1 + np.exp(-z))

    def lstm(x, h, c, layer):
        xh = np.concatenate([x, h])
        f, i, g, o = np.split(xh @ layer.w.value + layer.b.value, 4)
        c = sig(f) * c + sig(i) * np.tanh(g)
        return sig(o) * np.tanh(c), c

    h = [np.zeros(6), np.zeros(6)]
    c = [np.zeros(6), np.zeros(6)]
    rows = []
    for tid in ids:
        v = m.embedding.value[tid]
        for k, layer in enumerate(m.layers):
            h[k], c[k] = lstm(v, h[k], c[k], layer)
            v = h[k]
        rows.append(v @ m.proj_w.value + m.proj_b.value)
    np.testing.assert_allclose(logits, np.vstack(rows), atol=1e-12)


def test_stack_forward_state_threading():
    m = tiny_model(cell="ugrnn", layers=2, seed=9)
    ids = [3, 1, 4, 1, 5, 9, 2, 6]
    whole, end_states = stack_forward(ids, m)
    states = None
    rows = []
    for tid in ids:
        row, states = stack_forward([tid], m, states)
        rows.append(row[0])
    np.testing.assert_allclose(whole, np.vstack(rows), atol=1e-12)
    for a, b in zip(end_states, states):
        np.testing.assert_allclose(a.h, b.h, atol=1e-12)


def test_lstm_memory_survives_100_steps():
    m = zeroed(tiny_model(cell="lstm", hidden=4))
    m.layers[0].b.value[0:4] = 30.0   # forget open
    m.layers[0].b.value[4:8] = -30.0  # input shut
    c0 = np.array([0.5, -0.5, 0.25, 0.8])
    states = [CellState(h=np.zeros(4), c=c0.copy())]
    for _ in range(100):
        _, states = stack_forward([0], m, states)
    assert np.linalg.norm(states[0].c - c0) < 1e-6


def test_stack_forward_states_match_cell_kind():
    for cell, layers in (("lstm", 1), ("lstm", 2), ("ugrnn", 1), ("ugrnn", 2)):
        _, states = stack_forward([0, 3], tiny_model(cell=cell, layers=layers))
        assert len(states) == layers
        for state in states:
            assert state.h.shape == (6,)
            assert (state.c is None) == (cell == "ugrnn"), cell


# --- training ------------------------------------------------------------

def small_corpus():
    song = [60 + (i % 5) for i in range(80)]
    return build_corpus([song], DatasetVariant.CONTROL)


def test_train_zero_epochs():
    corpus = small_corpus()
    cfg = TrainConfig(cell="ugrnn", hidden_size=4, embedding_dim=3,
                      batch_size=2, seq_len=5, epochs=0)
    model, curve = train(corpus, cfg, seed=0)
    assert curve == []
    assert isinstance(model, ModelState)


def test_train_rejects_small_corpus():
    corpus = build_corpus([[60, 62, 64, 65]], DatasetVariant.CONTROL)
    with pytest.raises(CorpusTooSmall):
        train(corpus, TrainConfig(batch_size=2, seq_len=5, epochs=1))


def test_train_curve_bookkeeping():
    corpus = small_corpus()  # 79 x-tokens: 2 lanes of 39, 7 windows of 5
    cfg = TrainConfig(cell="ugrnn", hidden_size=4, embedding_dim=3,
                      batch_size=2, seq_len=5, epochs=3)
    _, curve = train(corpus, cfg, seed=0)
    assert [i for i, _ in curve] == list(range(1, 22))
    assert all(l > 0 for _, l in curve)


def test_train_max_iterations_cap():
    corpus = small_corpus()  # 7 windows per epoch
    cfg = TrainConfig(cell="ugrnn", hidden_size=4, embedding_dim=3,
                      batch_size=2, seq_len=5, epochs=3, max_iterations=4)
    _, curve = train(corpus, cfg, seed=0)
    assert len(curve) == 4
    # A cap past the epoch boundary resets the state there, as a full run does.
    _, full = train(corpus, TrainConfig(**{**vars(cfg), "max_iterations": None}), seed=0)
    _, capped = train(corpus, TrainConfig(**{**vars(cfg), "max_iterations": 9}), seed=0)
    assert capped == full[:9]


def test_train_bitwise_deterministic():
    corpus = small_corpus()
    cfg = TrainConfig(cell="lstm", hidden_size=4, embedding_dim=3,
                      batch_size=2, seq_len=5, epochs=2)
    m1, c1 = train(corpus, cfg, seed=7)
    m2, c2 = train(corpus, cfg, seed=7)
    assert c1 == c2
    for p, q in zip(m1.parameters(), m2.parameters()):
        np.testing.assert_array_equal(p.value, q.value)


def reference_train(corpus, config, seed, dtype=np.float32):
    """train's loop with no state kept between windows: each window a fresh
    tape of `dtype` (train's is float32) over a fresh `dtype` copy of the
    float64 parameters, and clipping and Adam on float64 copies of the
    gradients."""
    model = init_model(corpus.vocabulary, corpus.variant, cell=config.cell,
                       num_layers=config.num_layers, hidden_size=config.hidden_size,
                       embedding_dim=config.embedding_dim, rng=np.random.default_rng(seed))
    B, T = config.batch_size, config.seq_len
    lane_len = corpus.x.size // B
    X = corpus.x[: B * lane_len].reshape(B, lane_len)
    Y = corpus.y[: B * lane_len].reshape(B, lane_len)
    windows = lane_len // T
    params = model.parameters()
    opt = AdamState.for_params([p.value for p in params], lr=config.learning_rate)
    curve = []
    for iteration in range(min(config.epochs * windows, config.max_iterations)):
        epoch, w = divmod(iteration, windows)
        if w == 0:
            opt.lr = config.learning_rate * (config.lr_decay ** epoch)
            states = _zero_states(model, B, dtype)
        copy = model_copy(model, dtype)
        tape = GradientTape(dtype)
        cols = slice(w * T, (w + 1) * T)
        total, states = _window_loss(tape, copy, X[:, cols], Y[:, cols], states)
        tape.backward(total)
        grads = [p.grad.astype(np.float64) for p in copy.parameters()]
        clip_gradients(grads, config.clip_norm)
        adam_step([p.value for p in params], grads, opt)
        curve.append((iteration + 1, float(total.value) / (B * T)))
    return model, curve


def test_train_calls_the_optimizer_once_per_iteration(monkeypatch):
    # The benchmark's probe and tracer, and scripts/train_grid.py, patch
    # these two names in rnn's globals and time an iteration from one
    # adam_step call to the next.  9 iterations of 7 windows per epoch
    # cross an epoch boundary.
    calls = []

    def clip(*args):
        calls.append("clip")
        return clip_gradients(*args)

    def adam(*args):
        calls.append("adam")
        return adam_step(*args)

    monkeypatch.setattr(rnn, "clip_gradients", clip)
    monkeypatch.setattr(rnn, "adam_step", adam)
    _, curve = train(small_corpus(), TrainConfig(cell="ugrnn", hidden_size=4, embedding_dim=3, batch_size=2,
                                                 seq_len=5, epochs=2, max_iterations=9), seed=0)
    assert len(curve) == 9
    assert calls == ["clip", "adam"] * 9


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("cell", ["lstm", "ugrnn"])
def test_train_workspace_reuse_keeps_every_bit(cell, layers):
    # 7 windows per epoch, so the run crosses an epoch boundary.  At this
    # clip norm 2 to 10 of the 10 iterations clip, depending on the cell and
    # depth, so both of clip_gradients' branches run.
    corpus = small_corpus()
    cfg = TrainConfig(cell=cell, num_layers=layers, hidden_size=4, embedding_dim=3, batch_size=2,
                      seq_len=5, epochs=2, lr_decay=0.5, clip_norm=0.06, max_iterations=10)
    model, curve = train(corpus, cfg, seed=3)
    want_model, want_curve = reference_train(corpus, cfg, seed=3)
    assert curve == want_curve
    for p, q in zip(model.parameters(), want_model.parameters()):
        assert p.value.tobytes() == q.value.tobytes()
        assert p.grad is None

    # The final states _window_loss returns start the next window: reusing
    # the tape for that window must leave them as they were.  The
    # parameters' gradients are the tape's workspace arrays here, so the
    # reused tape's second window must also give the gradients a fresh
    # tape gives.
    X = corpus.x[:10].reshape(2, 5)
    Y = corpus.y[:10].reshape(2, 5)
    params = model.parameters()
    tape = GradientTape()
    total, states = _window_loss(tape, model, X, Y, _zero_states(model, 2))
    tape.backward(total)
    kept = [(h.copy(), None if c is None else c.copy()) for h, c in states]
    tape.reset()
    total, _ = _window_loss(tape, model, Y, X, states)
    tape.backward(total)
    for (h, c), (h0, c0) in zip(states, kept):
        np.testing.assert_array_equal(h, h0)
        if c0 is not None:
            np.testing.assert_array_equal(c, c0)
    reused = [p.grad.copy() for p in params]
    tape.reset()
    assert all(p.grad is None for p in params)
    fresh = GradientTape()
    total, _ = _window_loss(fresh, model, Y, X, kept)
    fresh.backward(total)
    for p, g in zip(params, reused):
        assert p.grad.tobytes() == g.tobytes()


# --- the stack's parts, kept on the tape -----------------------------------

def window_results(tape, model, X, Y, states):
    """One window on the tape, then its backward: (loss, gradients, final states), as bytes and copies."""
    tape.reset()
    loss, final = _window_loss(tape, model, X, Y, states)
    tape.backward(loss)
    grads = [p.grad.tobytes() for p in model.parameters()]
    tape.reset()  # hands the gradients back, so another tape's backward starts from None
    return float(loss.value), grads, [(h, c) for h, c in final]


def same_results(got, want):
    (loss, grads, final), (want_loss, want_grads, want_final) = got, want
    assert loss == want_loss and grads == want_grads
    for (h, c), (want_h, want_c) in zip(final, want_final, strict=True):
        assert h.tobytes() == want_h.tobytes() and (c is None) == (want_c is None)
        assert c is None or c.tobytes() == want_c.tobytes()


@pytest.mark.parametrize("batch", [1, 4, 50])
@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("cell", ["lstm", "ugrnn"])
def test_a_kept_plan_gives_the_bits_of_a_fresh_tape_per_window(cell, layers, batch):
    # train's loop in miniature: one tape over 3 windows an epoch for 2
    # epochs, the states zero at each epoch's start and carried otherwise,
    # the parameters updated in place between windows.  The stack's parts
    # are built on the tape in the first window and replayed after it;
    # every window must give the bits of a fresh tape.
    rng = np.random.default_rng([layers, batch, 5])
    model = model_copy(init_model(VOCAB, DatasetVariant.CONTROL, cell=cell, num_layers=layers, hidden_size=5,
                                  embedding_dim=3, rng=rng, init_scale=0.6), np.float32)
    steps = FACTOR_CHUNK + 1
    X = rng.integers(0, VOCAB.size, size=(batch, 3 * steps))
    Y = rng.integers(0, VOCAB.size, size=(batch, 3 * steps))
    tape = GradientTape(np.float32)
    built = None
    for epoch in range(2):
        states = kept = _zero_states(model, batch, np.float32)
        for w in range(3):
            cols = slice(w * steps, (w + 1) * steps)
            want = window_results(GradientTape(np.float32), model, X[:, cols], Y[:, cols], states)
            got = window_results(tape, model, X[:, cols], Y[:, cols], kept)
            same_results(got, want)
            if built is None:
                built = dict(tape._built)
            assert tape._built.keys() == built.keys() and all(tape._built[k] is v for k, v in built.items())
            states, kept = want[2], got[2]
            for p, g in zip(model.parameters(), want[1]):
                p.value -= np.float32(0.05) * np.frombuffer(g, np.float32).reshape(p.value.shape)


@pytest.mark.parametrize("other", ["batch", "layers"])
def test_a_tape_reused_at_other_sizes_rebuilds_its_parts(other):
    # The tape hands out new arrays when a window of another batch size or
    # layer count comes between, even where the shapes come back.
    rng = np.random.default_rng(9)
    first = model_copy(init_model(VOCAB, DatasetVariant.CONTROL, cell="lstm", num_layers=2, hidden_size=5,
                                  embedding_dim=3, rng=rng, init_scale=0.6), np.float32)
    second = first if other == "batch" else model_copy(
        init_model(VOCAB, DatasetVariant.CONTROL, cell="lstm", num_layers=3, hidden_size=5, embedding_dim=3,
                   rng=rng, init_scale=0.6), np.float32)
    batches = (4, 2 if other == "batch" else 4, 4)
    tape = GradientTape(np.float32)
    for model, batch in zip((first, second, first), batches):
        X = rng.integers(0, VOCAB.size, size=(batch, 7))
        Y = rng.integers(0, VOCAB.size, size=(batch, 7))
        states = [(h + 0.5, None if c is None else c - 0.5) for h, c in _zero_states(model, batch, np.float32)]
        want = window_results(GradientTape(np.float32), model, X, Y, states)
        got = window_results(tape, model, X, Y, states)
        same_results(got, want)


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("cell", ["lstm", "ugrnn"])
def test_a_tape_shared_with_per_op_windows_rebuilds_its_parts(cell, layers):
    # A per-op window on the same tape, at the same sizes, takes the
    # workspace's arrays in other roles, so the next stack window gets
    # arrays of the first one's shapes that are not the first one's
    # arrays.  Parts kept by their shapes alone would replay into arrays
    # the tape no longer hands out.
    rng = np.random.default_rng([layers, 11])
    model = model_copy(init_model(VOCAB, DatasetVariant.CONTROL, cell=cell, num_layers=layers, hidden_size=5,
                                  embedding_dim=3, rng=rng, init_scale=0.6), np.float32)
    X = rng.integers(0, VOCAB.size, size=(4, FACTOR_CHUNK + 1))
    Y = rng.integers(0, VOCAB.size, size=(4, FACTOR_CHUNK + 1))
    states = [(h + 0.5, None if c is None else c - 0.5) for h, c in _zero_states(model, 4, np.float32)]
    want = window_results(GradientTape(np.float32), model, X, Y, states)
    tape = GradientTape(np.float32)
    same_results(window_results(tape, model, X, Y, states), want)
    loss, _, _ = tape_cells.window_loss(tape, model, X, Y,
                                        [(Tensor(h), None if c is None else Tensor(c)) for h, c in states])
    tape.backward(loss)
    same_results(window_results(tape, model, X, Y, states), want)


def test_train_holds_nothing_of_its_workspace_once_it_returns(monkeypatch):
    # The stack's parts on the tape view its workspace, so parts kept past
    # the run (in a module-level cache, say) would keep the whole workspace
    # alive, and the next run's would come on top of it.  Freed by
    # reference counts alone, without a garbage collection.
    handed = []

    class RecordingTape(GradientTape):
        def array(self, shape):
            a = super().array(shape)
            handed.append(weakref.ref(a))
            return a

    monkeypatch.setattr(rnn, "GradientTape", RecordingTape)
    _, curve = train(small_corpus(), TrainConfig(cell="lstm", num_layers=2, hidden_size=4, embedding_dim=3,
                                                 batch_size=2, seq_len=5, epochs=2, max_iterations=9), seed=0)
    assert len(curve) == 9 and handed
    assert [ref for ref in handed if ref() is not None] == []


# The stated drift of mixed-precision training from float64 over the
# 10 iterations below, in float32's epsilon (about 1.2e-7).  Measured:
# losses within 0.13 eps relative, parameters within 2.5 eps absolute.
DRIFT_LOSS_RTOL = 4 * np.finfo(np.float32).eps
DRIFT_PARAM_ATOL = 32 * np.finfo(np.float32).eps


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("cell", ["lstm", "ugrnn"])
def test_mixed_precision_training_tracks_float64(cell, layers):
    # The float32 tape changes the trajectory's bits, not its course: train
    # stays close to the same loop run on a float64 tape.
    corpus = small_corpus()
    cfg = TrainConfig(cell=cell, num_layers=layers, hidden_size=4, embedding_dim=3, batch_size=2,
                      seq_len=5, epochs=2, lr_decay=0.5, clip_norm=0.06, max_iterations=10)
    model, curve = train(corpus, cfg, seed=3)
    want_model, want_curve = reference_train(corpus, cfg, seed=3, dtype=np.float64)
    assert [i for i, _ in curve] == [i for i, _ in want_curve]
    np.testing.assert_allclose([x for _, x in curve], [x for _, x in want_curve], rtol=DRIFT_LOSS_RTOL)
    for p, q in zip(model.parameters(), want_model.parameters()):
        np.testing.assert_allclose(p.value, q.value, rtol=0, atol=DRIFT_PARAM_ATOL)


def test_train_refuses_a_layer_input_too_wide_for_float32():
    # embedding_dim + hidden_size = 2**15 inputs to the first layer, past
    # the width under which a float32 step provably cannot overflow.
    cfg = TrainConfig(hidden_size=1, embedding_dim=2 ** 15 - 1, batch_size=2, seq_len=5, max_iterations=1)
    with pytest.raises(ValueError, match="input width"):
        train(small_corpus(), cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(max_iterations=-1)
    for name in ("learning_rate", "lr_decay", "clip_norm"):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                TrainConfig(**{name: bad})
    # The model sizes are checked when the config is made, not when train allocates.
    for bad in ({"cell": "gru"}, {"num_layers": 0}, {"num_layers": 6}, {"hidden_size": 0}, {"embedding_dim": 0}):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    TrainConfig(max_iterations=0, learning_rate=1e-9, lr_decay=1.5, clip_norm=1e-9)
    with pytest.raises(dataclasses.FrozenInstanceError):
        TrainConfig().max_iterations = 3


def test_toy_curves_decrease(toy_runs):
    # The curves must fall and stay down, not fall at every step.  Adam with
    # global-norm clipping at a fixed rate meets isolated gradient spikes
    # late in training: the loss jumps for a few dozen iterations and then
    # recovers.  Whether and when a run meets one depends on the order in
    # which floats are summed, so it changes with the numpy/BLAS build and
    # the seed, for both cells.  A per-step non-increasing moving average is
    # therefore not asserted; the trend is.
    for cell, run in toy_runs.items():
        losses = [l for _, l in run.curve]
        assert min(losses) < 0.1, f"{cell} never memorized"
        # ma[i] is the mean over iterations i+1 .. i+100
        ma = np.convolve(losses, np.ones(100) / 100, mode="valid")
        untrained, early, final = ma[0], ma[200], ma[-1]
        late = ma[300:]
        worst = int(np.argmax(late))
        detail = (
            f"last-100 mean {final:.3g}, iterations 201-300 mean {early:.3g}, "
            f"largest 100-iteration mean after iteration 300 {late[worst]:.3g} "
            f"(iterations {worst + 301}-{worst + 400})"
        )
        assert final <= early / 10, f"{cell} did not fall tenfold after iteration 300: {detail}"
        assert late[worst] < untrained, (
            f"{cell} climbed back to the untrained mean {untrained:.3g} "
            f"of iterations 1-100: {detail}"
        )


# --- sampling ------------------------------------------------------------

def test_sample_n_zero_returns_seed(toy_runs):
    model = toy_runs["ugrnn"].model
    assert sample(model, [60, 62, 64, 62], 0) == [60, 62, 64, 62]


def test_sample_greedy_is_repeatable(toy_runs):
    model = toy_runs["lstm"].model
    a = sample(model, [60, 62, 64, 62], 30, mode="greedy")
    b = sample(model, [60, 62, 64, 62], 30, mode="greedy")
    assert a == b
    assert len(a) == 34
    assert a[:4] == [60, 62, 64, 62]


def test_sample_closure(toy_runs):
    model = toy_runs["ugrnn"].model
    song = sample(model, [60, 62, 64, 62], 50, mode="temperature",
                  temperature=1.0, rng=np.random.default_rng(1))
    assert all(0 <= n <= 127 for n in song)
    assert all(n in model.vocabulary for n in song[4:])


def test_sample_temperature_reproducible(toy_runs):
    model = toy_runs["ugrnn"].model
    a = sample(model, [60, 62], 20, mode="temperature", rng=np.random.default_rng(5))
    b = sample(model, [60, 62], 20, mode="temperature", rng=np.random.default_rng(5))
    assert a == b


def test_sample_rejects_unknown_seed(toy_runs):
    with pytest.raises(UnknownSeedToken):
        sample(toy_runs["ugrnn"].model, [60, 127], 5)


@pytest.mark.parametrize("n", [0, 1])
def test_sample_checks_the_seed_whatever_n(toy_runs, n):
    model = toy_runs["ugrnn"].model
    assert 1 not in model.vocabulary
    with pytest.raises(UnknownSeedToken):
        sample(model, [1], n)
    with pytest.raises(PitchOutOfRange, match=r"^seed song\[1\] = 200 outside"):
        sample(model, [60, 200], n)
    with pytest.raises(ValueError, match="seed song is empty"):
        sample(model, [], n)


def test_sample_argument_validation(toy_runs):
    model = toy_runs["ugrnn"].model
    with pytest.raises(ValueError):
        sample(model, [60], 5, mode="beam")
    for temperature in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            sample(model, [60], 5, mode="temperature", temperature=temperature)
    with pytest.raises(ValueError):
        sample(model, [60], -1)
    with pytest.raises(ValueError):
        sample(model, [], 5)


@pytest.mark.parametrize("mode", ["greedy", "temperature"])
@pytest.mark.parametrize("cell", ["lstm", "ugrnn"])
def test_sample_equals_streaming_stack_forward(toy_runs, cell, mode):
    seed_song = [60, 62, 64, 62]
    for model in (toy_runs[cell].model, tiny_model(cell=cell, layers=3, seed=4)):
        got = sample(model, seed_song, 25, mode=mode, rng=np.random.default_rng(11))
        rng = np.random.default_rng(11)
        logits, states = stack_forward(model.vocabulary.encode(seed_song), model)
        picked = []
        for _ in range(25):
            picked.append(int(_pick(logits[-1:], mode, 1.0, rng.random(1))[0]))
            logits, states = stack_forward(picked[-1:], model, states)
        assert got == seed_song + model.vocabulary.decode(picked)


def batch_test_models(toy_runs, cell, variant):
    """The trained toy model and a 3-layer untrained one (control), or two untrained interval ones.

    The 1-layer interval model's wide init peaks its logits, as training would.
    """
    if variant is DatasetVariant.CONTROL:
        return [toy_runs[cell].model, tiny_model(cell=cell, layers=3, seed=4)]
    steps = Vocabulary(tokens=tuple(range(-2, 3)))  # 25 steps stay inside [0, 127]
    return [
        init_model(steps, variant, cell=cell, num_layers=layers, hidden_size=6,
                   embedding_dim=4, rng=seed, init_scale=init_scale)
        for layers, seed, init_scale in ((1, 2, 1.0), (3, 4, 0.08))
    ]


@pytest.mark.parametrize("variant", [DatasetVariant.CONTROL, DatasetVariant.INTERVAL])
@pytest.mark.parametrize("mode", ["greedy", "temperature"])
@pytest.mark.parametrize("cell", ["lstm", "ugrnn"])
def test_sample_batch_lane_equals_one_lane_call(toy_runs, cell, mode, variant):
    seed_song = [60, 62, 64, 62]
    for model in batch_test_models(toy_runs, cell, variant):
        rngs = [np.random.default_rng([5, i]) for i in range(6)]
        songs = sample_batch(model, seed_song, 25, mode, 0.8, rngs)
        assert len(songs) == 6
        for i, song in enumerate(songs):
            assert song == sample(model, seed_song, 25, mode=mode, temperature=0.8,
                                  rng=np.random.default_rng([5, i]))
        if mode == "greedy":  # greedy lanes draw nothing, so they need no generator
            assert sample_batch(model, seed_song, 25, mode, 0.8, [None] * 6) == songs


@pytest.mark.parametrize("mode", ["greedy", "temperature"])
def test_sample_batch_with_no_lanes_returns_no_songs(mode):
    # One song per generator, as at n == 0: no generators give no songs, after the arguments are checked.
    model = tiny_model(layers=2)
    assert sample_batch(model, [60, 62, 64, 62], 3, mode, 1.0, []) == []
    with pytest.raises(UnknownSeedToken):
        sample_batch(model, [0, 1], 3, mode, 1.0, [])
    with pytest.raises(ValueError, match="temperature"):
        sample_batch(model, [60, 62], 3, mode, 0.0, [])


def stepped_dtypes(monkeypatch, model):
    """The dtypes of W in every `_layer_step` call of a temperature `sample`."""
    seen = set()

    def spy(spec, w, *args):
        seen.add(w.dtype)
        return _layer_step(spec, w, *args)

    monkeypatch.setattr(rnn, "_layer_step", spy)
    sample(model, [60, 62, 64, 62], 5, mode="temperature", rng=1)
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("cell", ["lstm", "ugrnn"])
def test_sampling_steps_a_float32_copy_of_weights_that_fit(toy_runs, monkeypatch, cell):
    model = toy_runs[cell].model
    assert stepped_dtypes(monkeypatch, model) == {np.dtype(np.float32)}
    assert all(p.value.dtype == np.float64 for p in model.parameters())


@pytest.mark.parametrize("big", [1e300, 2.0 ** 56 * (1 + 2.0 ** -52), float("nan")])
def test_sampling_refuses_weights_past_the_guard(monkeypatch, big):
    # Sampling has one path, float32, so a model it could overflow is
    # refused before any step, greedy or not, even for zero notes.
    model = tiny_model(layers=2)
    assert stepped_dtypes(monkeypatch, model) == {np.dtype(np.float32)}
    model.layers[1].w.value[0, 0] = big
    for mode, n in (("temperature", 5), ("greedy", 5), ("greedy", 0)):
        with pytest.raises(ValueError, match=r"\|weight\| <= 2\*\*56"):
            sample(model, [60, 62, 64, 62], n, mode=mode, rng=1)


def test_float32_guard_bounds():
    def weights(rows, value=0.0):
        return [np.zeros((3, 2)), np.full((rows, 8), value), np.zeros(8), np.zeros((2, 3)), np.zeros(3)]

    assert rnn._fits_float32(weights(2 ** 15 - 1, 2.0 ** 56))
    assert rnn._fits_float32(weights(4, -(2.0 ** 56)))
    assert not rnn._fits_float32(weights(2 ** 15))
    assert not rnn._fits_float32(weights(4, np.nextafter(2.0 ** 56, np.inf)))
    assert not rnn._fits_float32(weights(4, -np.inf))


def test_float32_guard_allocates_nothing_parameter_sized():
    # train runs the guard after every step, so a temporary as large as a
    # parameter (as np.abs made) would cost a pass and an allocation each.
    weights = [np.zeros((3, 2)), np.full((1000, 1000), -1.0), np.zeros(1000), np.zeros((2, 3)), np.zeros(3)]
    tracemalloc.start()
    try:
        assert rnn._fits_float32(weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < weights[1].nbytes // 100


def test_training_and_stack_forward_stay_float64(monkeypatch):
    corpus = small_corpus()
    grad_dtypes = set()

    def spy(grads, *args):
        grad_dtypes.update(g.dtype for g in grads)
        return clip_gradients(grads, *args)

    monkeypatch.setattr(rnn, "clip_gradients", spy)
    model, _ = train(corpus, TrainConfig(cell="lstm", num_layers=2, hidden_size=4, embedding_dim=3,
                                         batch_size=2, seq_len=5, max_iterations=3), seed=0)
    assert grad_dtypes == {np.dtype(np.float64)}
    assert all(p.value.dtype == np.float64 for p in model.parameters())
    logits, states = stack_forward([0, 1, 2], model)
    assert logits.dtype == np.float64
    assert all(s.h.dtype == s.c.dtype == np.float64 for s in states)


def test_pick_draw_equals_rng_choice():
    # Reference: one rng.choice per lane on the row's probabilities, as
    # sampling drew before lanes were batched.  Each lane's uniforms come
    # from one rng.random(50), as sample_batch draws them.
    rng = np.random.default_rng(8)
    for vocab_size in (1, 2, 7, 40, 300):
        uniforms = np.stack([np.random.default_rng([1, i]).random(50) for i in range(40)], axis=1)
        refs = [np.random.default_rng([1, i]) for i in range(40)]
        for step in range(50):
            # A wide spread makes some probabilities underflow to exactly 0.
            logits = rng.normal(scale=rng.choice([0.1, 3.0, 400.0]), size=(40, vocab_size))
            temperature = float(rng.choice([0.3, 1.0, 2.5]))
            got = _pick(logits, "temperature", temperature, uniforms[step])
            for lane, ref in enumerate(refs):
                p = softmax(logits[lane] / temperature)
                p = p / p.sum()
                assert got[lane] == ref.choice(vocab_size, p=p), (vocab_size, step, lane)


def interval_model():
    corpus = build_corpus([[60, 62, 64, 62, 60, 58, 60, 62]], DatasetVariant.INTERVAL)
    cfg = TrainConfig(cell="ugrnn", hidden_size=4, embedding_dim=3,
                      batch_size=1, seq_len=3, epochs=0)
    model, _ = train(corpus, cfg, seed=0)
    return model


def test_sample_interval_variant_rebuilds_notes():
    model = interval_model()
    out = sample(model, [60, 62, 64, 62], 6, mode="greedy")
    assert out[:4] == [60, 62, 64, 62]
    assert len(out) == 10
    for a, b in zip(out[3:], out[4:]):
        assert (b - a) in model.vocabulary


def test_sample_interval_range_violation_raises():
    corpus = build_corpus([[12, 0, 12, 0]], DatasetVariant.INTERVAL)
    model, _ = train(corpus, TrainConfig(cell="ugrnn", hidden_size=2,
                                         embedding_dim=2, batch_size=1,
                                         seq_len=2, epochs=0), seed=0)
    for p in model.parameters():
        p.value[:] = 0.0
    down_id = model.vocabulary.encode([-12])[0]
    model.proj_b.value[down_id] = 5.0  # greedy always descends an octave
    with pytest.raises(PitchOutOfRange):
        sample(model, [12, 0], 3, mode="greedy")


# --- checkpoints ----------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path, toy_runs):
    model = toy_runs["lstm"].model
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.cell == model.cell
    assert loaded.vocabulary == model.vocabulary
    assert loaded.variant == model.variant
    for p, q in zip(model.parameters(), loaded.parameters()):
        np.testing.assert_array_equal(p.value, q.value)
    assert sample(loaded, [60, 62, 64, 62], 20) == sample(model, [60, 62, 64, 62], 20)


def test_checkpoint_save_is_canonical(tmp_path):
    m = tiny_model(cell="ugrnn", layers=2)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(m, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("cell, layers", [("lstm", 1), ("ugrnn", 3)])
def test_load_checkpoint_draws_no_initial_weights(tmp_path, monkeypatch, cell, layers):
    # load_checkpoint fills freshly allocated arrays from the blob: it does
    # not build the model through init_model or make a generator.
    model = tiny_model(cell=cell, layers=layers, seed=3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)

    def refuse(*args, **kwargs):
        raise AssertionError("load_checkpoint drew initial weights")

    monkeypatch.setattr(rnn, "init_model", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    loaded = load_checkpoint(path)
    monkeypatch.undo()
    assert (loaded.cell, loaded.num_layers) == (cell, layers)
    for p, q in zip(model.parameters(), loaded.parameters()):
        assert p.value.shape == q.value.shape
        np.testing.assert_array_equal(p.value, q.value)


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_checkpoint_write_failure_leaves_no_partial_file(tmp_path, monkeypatch, existing):
    path = tmp_path / "m.ckpt"
    if existing:
        save_checkpoint(tiny_model(seed=1), path)
    before = path.read_bytes() if existing else None
    real_open = open

    class BlobWriteFails:
        """A file whose third write, the blob, stops halfway on a full disk."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes == 3:
                self.fh.write(data[: len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")
            return self.fh.write(data)

    monkeypatch.setattr(core, "open", lambda *a, **kw: BlobWriteFails(real_open(*a, **kw)), raising=False)
    with pytest.raises(OSError):
        save_checkpoint(tiny_model(seed=2), path)
    monkeypatch.undo()
    assert list(tmp_path.iterdir()) == ([path] if existing else [])
    if existing:
        assert path.read_bytes() == before


@pytest.mark.parametrize("cell, gates", [("lstm", 4), ("ugrnn", 2)])
def test_checkpoint_v1_blob_is_the_init_draws_in_order(tmp_path, cell, gates):
    # init_model draws from its generator in checkpoint v1's order: the
    # embedding, each layer's gates' W blocks, then the projection.  Biases
    # are zero but for the LSTM forget gate's, which are 1.  So the blob of a
    # fresh model is those draws, each gate's W followed by its b.
    hidden, emb, scale = 6, 4, 0.08
    model = init_model(VOCAB, DatasetVariant.CONTROL, cell=cell, num_layers=2, hidden_size=hidden,
                       embedding_dim=emb, rng=np.random.default_rng(21), init_scale=scale)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    rng = np.random.default_rng(21)
    blocks = [rng.uniform(-scale, scale, size=(VOCAB.size, emb))]
    for rows in (emb + hidden, hidden + hidden):
        for k in range(gates):
            blocks.append(rng.uniform(-scale, scale, size=(rows, hidden)))
            blocks.append(np.full(hidden, 1.0 if cell == "lstm" and k == 0 else 0.0))
    blocks += [rng.uniform(-scale, scale, size=(hidden, VOCAB.size)), np.zeros(VOCAB.size)]
    assert path.read_bytes().split(b"\n", 1)[1] == b"".join(b.astype("<f8").tobytes() for b in blocks)


def test_checkpoint_header_is_json_line(tmp_path):
    import json

    m = tiny_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert header["format"] == "melodykit-checkpoint"
    assert header["cell"] == "lstm"
    assert header["param_count"] == sum(p.value.size for p in m.parameters())


def edit_header(data, **changes):
    """Rewrite checkpoint header keys; a value of None deletes the key."""
    import json

    head, blob = data.split(b"\n", 1)
    header = json.loads(head)
    for key, value in changes.items():
        if value is None:
            del header[key]
        else:
            header[key] = value
    return json.dumps(header, sort_keys=True).encode() + b"\n" + blob


@pytest.mark.parametrize(
    "mangle",
    [
        lambda data: data[: len(data) - 9],                  # truncated blob
        lambda data: data.replace(b"melodykit", b"other-kit", 1),
        lambda data: b"not json" + data[data.find(b"\n") :],
        lambda data: data[data.find(b"\n") + 1 :],           # header gone
        lambda data: data[: data.find(b"\n") + 10],          # blob gone
        lambda data: edit_header(data, blob_sha256=None),    # checksum key gone
        lambda data: edit_header(data, hidden_size=3),       # blob no longer fits
        lambda data: edit_header(data, hidden_size=10**7),   # refused before allocating
        lambda data: edit_header(data, num_layers="two"),
        # Sizes and tokens that int() would have turned into the right ones.
        lambda data: edit_header(data, num_layers=True),
        lambda data: edit_header(data, hidden_size=6.0),
        lambda data: edit_header(data, embedding_dim="4"),
        lambda data: edit_header(data, vocabulary=[float(t) for t in VOCAB.tokens]),
        lambda data: edit_header(data, vocabulary=[str(t) for t in VOCAB.tokens]),
        lambda data: edit_header(data, vocabulary=[48.7] + list(VOCAB.tokens[1:])),
        lambda data: edit_header(data, vocabulary=VOCAB.tokens[::-1]),  # same size, reversed
        lambda data: edit_header(data, vocabulary=(48,) + VOCAB.tokens[:-1]),  # 48 twice
        lambda data: edit_header(data, cell="gru"),          # not in CELL_TYPES
        lambda data: edit_header(data, variant="pentatonic"),
        # Each of five layers' arrays fits the one-layer blob; all of them do not.
        lambda data: edit_header(data, num_layers=5),
    ],
)
def test_checkpoint_rejects_corruption(tmp_path, monkeypatch, mangle):
    m = tiny_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path)
    path.write_bytes(mangle(path.read_bytes()))

    def refuse(*args, **kwargs):
        raise AssertionError("load_checkpoint allocated a model for a corrupt file")

    # Every corruption is refused before the model is allocated.
    monkeypatch.setattr(rnn, "_empty_model", refuse)
    with pytest.raises(MalformedFile):
        load_checkpoint(path)


def test_checkpoint_rejects_flipped_blob_byte(tmp_path):
    m = tiny_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path)
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(MalformedFile):
        load_checkpoint(path)


def test_checkpoint_rejects_wrong_version(tmp_path):
    import json

    m = tiny_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path)
    head, blob = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header["format_version"] = 99
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + blob)
    with pytest.raises(MalformedFile):
        load_checkpoint(path)
