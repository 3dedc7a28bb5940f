import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from melodykit.errors import BadToken, ShapeMismatch
from melodykit.tensor import (
    AdamState,
    GradientTape,
    Tensor,
    adam_step,
    clip_gradients,
    softmax,
)

from .conftest import finite_diff_check

finite_vectors = hnp.arrays(
    np.float64, st.integers(2, 6), elements=st.floats(-30, 30, allow_nan=False)
)


# --- tape mechanics -----------------------------------------------------

@pytest.mark.parametrize("value, dtype", [
    (np.ones(3, np.float32), np.float32),
    (np.ones(3), np.float64),
    (np.ones(3, np.float16), np.float64),
    (np.arange(3), np.float64),
    ([1, 2], np.float64),
    (2.5, np.float64),
])
def test_tensor_keeps_float32_and_takes_the_rest_as_float64(value, dtype):
    assert Tensor(value).value.dtype == dtype


def test_float32_tape_ops_stay_float32():
    rng = np.random.default_rng(1)
    tape = GradientTape(np.float32)
    a = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
    w = Tensor(rng.normal(size=(4, 5)).astype(np.float32))
    b = Tensor(rng.normal(size=5).astype(np.float32))
    loss = tape.cross_entropy(tape.add_bias(tape.matmul(a, w), b), np.array([0, 4, 2]))
    tape.backward(loss)
    assert loss.value.dtype == np.float64
    assert {t.grad.dtype for t in (a, w, b)} == {np.dtype(np.float32)}
    assert {x.dtype for x in tape._arrays} == {np.dtype(np.float32)}


def test_float32_cross_entropy_survives_an_underflowed_probability():
    # exp(-200) underflows float32 to 0; -log of that probability would be
    # inf, a divergence that did not happen.
    z = np.array([[0.0, -200.0, -1.0]])
    want = GradientTape().cross_entropy(Tensor(z), np.array([1]))
    got = GradientTape(np.float32).cross_entropy(Tensor(z.astype(np.float32)), np.array([1]))
    assert got.value.dtype == np.float64
    assert float(got.value) == pytest.approx(float(want.value), rel=np.finfo(np.float32).eps)
    assert float(want.value) == pytest.approx(200 + math.log1p(math.exp(-200) + math.exp(-1)), rel=1e-15)


def test_matmul_backward():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(2, 3)))
    b = Tensor(rng.normal(size=(3, 4)))
    tape = GradientTape()
    out = tape.matmul(a, b)
    tape.backward(out)  # objective: sum of all output entries
    ones = np.ones((2, 4))
    np.testing.assert_allclose(a.grad, ones @ b.value.T)
    np.testing.assert_allclose(b.grad, a.value.T @ ones)


def test_reset_takes_back_the_gradients_it_handed_out():
    # a's gradient is the tape's workspace array, b's one the caller
    # allocated.  After reset a starts afresh, so the second window's
    # gradient is not added to the first one's nor to an array the tape
    # hands out again; b's keeps accumulating.
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(2, 3)))
    b = Tensor(rng.normal(size=(3, 4)))
    b.grad = np.zeros((3, 4))
    kept = b.grad
    tape = GradientTape()
    tape.backward(tape.matmul(a, b))
    first = a.grad.copy()
    tape.reset()
    assert a.grad is None and b.grad is kept
    tape.backward(tape.matmul(a, b))
    np.testing.assert_array_equal(a.grad, first)
    np.testing.assert_allclose(b.grad, 2 * (a.value.T @ np.ones((2, 4))))


def test_reused_tape_reallocates_for_a_new_shape():
    # The second window asks for other shapes at the workspace's slots; its
    # results equal a fresh tape's, bit for bit.
    rng = np.random.default_rng(2)
    w = rng.normal(size=(3, 4))
    x2, x5 = rng.normal(size=(2, 3)), rng.normal(size=(5, 3))

    def window(tape, x):
        a, b = Tensor(x), Tensor(w)
        loss = tape.cross_entropy(tape.matmul(a, b), np.arange(len(x)) % 4)
        tape.backward(loss)
        return loss.value, a.grad.copy(), b.grad.copy()

    tape = GradientTape()
    window(tape, x2)
    first = [x.shape for x in tape._arrays]
    tape.reset()
    reused = window(tape, x5)
    assert [x.shape for x in tape._arrays] != first
    for got, want in zip(reused, window(GradientTape(), x5)):
        np.testing.assert_array_equal(got, want)


def test_matmul_shape_check():
    with pytest.raises(ShapeMismatch):
        GradientTape().matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_elementwise_backwards():
    rng = np.random.default_rng(1)
    av, bv = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    tape = GradientTape()
    a, b = Tensor(av), Tensor(bv)
    # (a+b)(1-b) = a - ab + b - b^2
    out = tape.mul(tape.add(a, b), tape.one_minus(b))
    tape.backward(out)
    np.testing.assert_allclose(a.grad, 1 - bv)
    np.testing.assert_allclose(b.grad, 1 - av - 2 * bv)


def test_reused_tensor_accumulates():
    x = Tensor([[3.0]])
    tape = GradientTape()
    tape.backward(tape.mul(x, x))
    np.testing.assert_allclose(x.grad, [[6.0]])


def test_one_minus_and_activations():
    x = Tensor([[0.5, -1.0]])
    tape = GradientTape()
    out = tape.one_minus(tape.sigmoid(x))
    tape.backward(out)
    s = 1 / (1 + np.exp(-x.value))
    np.testing.assert_allclose(x.grad, -s * (1 - s))

    y = Tensor([[0.3, 2.0]])
    tape = GradientTape()
    tape.backward(tape.tanh(y))
    np.testing.assert_allclose(y.grad, 1 - np.tanh(y.value) ** 2)


def test_sigmoid_extreme_inputs_stay_finite():
    x = Tensor([[-800.0, 800.0]])
    out = GradientTape().sigmoid(x)
    np.testing.assert_allclose(out.value, [[0.0, 1.0]], atol=1e-300)
    assert np.isfinite(out.value).all()


def test_sigmoid_matches_logaddexp_form():
    # The exp/logaddexp form the tanh kernel replaced, kept as the oracle.
    x = np.concatenate([np.linspace(-745.0, 745.0, 200_001), [-np.inf, np.inf]])
    oracle = np.exp(-np.logaddexp(0.0, -x))
    a = Tensor(x[None, :])
    tape = GradientTape()
    out = tape.sigmoid(a)
    assert np.abs(out.value[0] - oracle).max() <= 2e-16
    assert out.value[0, -2:].tolist() == [0.0, 1.0]
    tape.backward(out)
    assert np.abs(a.grad[0] - oracle * (1.0 - oracle)).max() <= 2e-16


def test_add_bias_sums_over_batch():
    a = Tensor(np.zeros((3, 2)))
    b = Tensor(np.zeros(2))
    tape = GradientTape()
    tape.backward(tape.add_bias(a, b))
    np.testing.assert_allclose(b.grad, [3.0, 3.0])
    np.testing.assert_allclose(a.grad, np.ones((3, 2)))


def test_concat_splits_gradient():
    a, b = Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3)))
    tape = GradientTape()
    out = tape.concat(a, b)
    assert out.value.shape == (2, 5)
    out.grad = np.arange(10, dtype=np.float64).reshape(2, 5)
    tape._records[-1][1](out.grad)
    np.testing.assert_allclose(a.grad, [[0, 1], [5, 6]])
    np.testing.assert_allclose(b.grad, [[2, 3, 4], [7, 8, 9]])


def test_lookup_scatter_adds_duplicates():
    table = Tensor(np.arange(6, dtype=np.float64).reshape(3, 2))
    tape = GradientTape()
    out = tape.lookup(table, np.array([1, 1, 2]))
    np.testing.assert_allclose(out.value, [[2, 3], [2, 3], [4, 5]])
    tape.backward(out)
    np.testing.assert_allclose(table.grad, [[0, 0], [2, 2], [1, 1]])


@pytest.mark.parametrize("bad", [-1, 3])
def test_lookup_rejects_ids_outside_the_table(bad):
    # The gather runs in "clip" mode, which would clamp a bad id, so lookup
    # checks the range itself; a negative id is refused, not wrapped.
    with pytest.raises(BadToken):
        GradientTape().lookup(Tensor(np.zeros((3, 2))), np.array([0, bad]))


def row_cross_entropy(z, target):
    """Loss and logit gradient of the taped cross-entropy on one (1, V) row."""
    logits = Tensor(np.asarray(z, dtype=np.float64)[None, :])
    tape = GradientTape()
    loss = tape.cross_entropy(logits, np.array([target]))
    tape.backward(loss)
    return float(loss.value), logits.grad[0]


def test_taped_cross_entropy_matches_plain():
    # a batch's loss is the sum of its rows' losses, its gradient their rows
    rng = np.random.default_rng(2)
    z = rng.normal(size=(4, 5))
    targets = np.array([0, 3, 1, 4])
    logits = Tensor(z)
    tape = GradientTape()
    loss = tape.cross_entropy(logits, targets)
    per_row = [row_cross_entropy(z[i], int(targets[i])) for i in range(4)]
    assert float(loss.value) == pytest.approx(sum(l for l, _ in per_row), abs=1e-12)
    tape.backward(loss)
    np.testing.assert_allclose(logits.grad, np.stack([g for _, g in per_row]), atol=1e-12)


def test_composite_graph_against_finite_differences():
    # one gate's worth of math: sigmoid(x @ w + b) feeding cross-entropy
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=(3, 4))
    params = [rng.normal(size=(4, 5)), rng.normal(size=5)]
    targets = np.array([0, 2, 4])

    def loss_fn(ps):
        w, b = Tensor(ps[0]), Tensor(ps[1])
        tape = GradientTape()
        z = tape.add_bias(tape.matmul(Tensor(x0), w), b)
        loss = tape.cross_entropy(tape.sigmoid(z), targets)
        tape.backward(loss)
        return float(loss.value), [w.grad, b.grad]

    assert finite_diff_check(loss_fn, params, h=1e-5) < 1e-7


# --- plain surface ops --------------------------------------------------

def test_softmax_examples():
    np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5])
    np.testing.assert_allclose(softmax([math.log(1), math.log(3)]), [0.25, 0.75])


def test_softmax_of_rows_equals_softmax_of_each_row():
    z = np.random.default_rng(3).normal(scale=20.0, size=(7, 40))
    rows = softmax(z)
    for i in range(z.shape[0]):
        np.testing.assert_array_equal(rows[i], softmax(z[i]))


@given(finite_vectors)
def test_softmax_properties(z):
    p = softmax(z)
    assert abs(p.sum() - 1.0) <= 1e-12
    np.testing.assert_allclose(softmax(z + 17.3), p, atol=1e-12)


def test_cross_entropy_values():
    v = 7
    loss, _ = row_cross_entropy(np.zeros(v), 3)
    assert loss == pytest.approx(math.log(v), abs=1e-12)
    loss, _ = row_cross_entropy(np.array([30.0, -30.0]), 0)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_gradient_is_probs_minus_onehot():
    rng = np.random.default_rng(4)
    z = rng.normal(size=6)
    _, grad = row_cross_entropy(z, 2)
    onehot = np.zeros(6)
    onehot[2] = 1.0
    np.testing.assert_allclose(grad, softmax(z) - onehot, atol=1e-12)
    # against central differences
    h = 1e-5
    for i in range(6):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        numeric = (row_cross_entropy(zp, 2)[0] - row_cross_entropy(zm, 2)[0]) / (2 * h)
        assert abs(grad[i] - numeric) / max(abs(grad[i]), abs(numeric), 1e-12) < 1e-6


@given(finite_vectors, st.integers(0, 5))
def test_cross_entropy_nonnegative(z, t):
    loss, _ = row_cross_entropy(z, t % len(z))
    assert loss >= 0.0


def test_clip_gradients():
    g = [np.array([0.6, 0.8])]
    np.testing.assert_allclose(clip_gradients(g, 5.0)[0], [0.6, 0.8])  # norm 1
    g = [np.array([3.0, 4.0])]
    np.testing.assert_allclose(clip_gradients(g, 5.0)[0], [3.0, 4.0])  # boundary
    g = [np.array([6.0, 8.0])]
    np.testing.assert_allclose(clip_gradients(g, 5.0)[0], [3.0, 4.0])


def test_clip_spans_parameter_list():
    # global norm sqrt(36+64) = 10 across two arrays
    g = [np.array([6.0]), np.array([8.0])]
    out = clip_gradients(g, 5.0)
    np.testing.assert_allclose(out[0], [3.0])
    np.testing.assert_allclose(out[1], [4.0])
    assert out[0] is g[0] and out[1] is g[1]  # scaled in place


def test_adam_zero_gradient_fixed_point():
    p = [np.array([1.0, 2.0])]
    state = AdamState.for_params(p)
    out, state = adam_step(p, [np.zeros(2)], state)
    np.testing.assert_allclose(out[0], [1.0, 2.0])
    assert state.t == 1


def test_adam_first_step_magnitude():
    # at t=1 the bias-corrected update is -lr * g/|g| up to eps
    p = [np.array([0.0])]
    state = AdamState.for_params(p, lr=0.001)
    adam_step(p, [np.array([1.0])], state)
    assert p[0][0] == pytest.approx(-0.001, rel=1e-6)

    p = [np.array([0.0])]
    state = AdamState.for_params(p, lr=0.001)
    adam_step(p, [np.array([-4.0])], state)
    assert p[0][0] == pytest.approx(0.001, rel=1e-6)


def test_adam_against_hand_rollout():
    # two steps recomputed with explicit formulas
    p = [np.array([0.5])]
    state = AdamState.for_params(p, lr=0.01)
    grads = [np.array([0.3]), np.array([-0.7])]
    want = 0.5
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = 0.9 * m + 0.1 * float(g[0])
        v = 0.999 * v + 0.001 * float(g[0]) ** 2
        want -= 0.01 * (m / (1 - 0.9**t)) / (math.sqrt(v / (1 - 0.999**t)) + 1e-8)
        adam_step(p, [g], state)
    assert p[0][0] == pytest.approx(want, abs=1e-15)
    assert state.t == 2


def test_adam_folded_step_matches_the_textbook_update():
    # The bias corrections sit in the step size and eps, not on m and v;
    # over 200 steps the parameters stay within 1e-14 of the textbook
    # update.  Gradient scales down to 1e-9 keep sqrt(v) near eps, and the
    # parameters start in [1, 2] and move at most 0.7, so none nears 0.
    rng = np.random.default_rng(19)
    shapes = [(3, 4), (5,)]
    params = [rng.uniform(1.0, 2.0, s) for s in shapes]
    want = [p.copy() for p in params]
    m, v = [np.zeros(s) for s in shapes], [np.zeros(s) for s in shapes]
    state = AdamState.for_params(params)
    for t in range(1, 201):
        state.lr = float(rng.uniform(1e-4, 1e-3))
        grads = [rng.standard_normal(s) * rng.choice([0.0, 1e-9, 1e-3, 1.0, 1e3]) for s in shapes]
        for p, g, mk, vk in zip(want, grads, m, v):
            mk[...] = 0.9 * mk + 0.1 * g
            vk[...] = 0.999 * vk + 0.001 * g * g
            p -= state.lr * (mk / (1 - 0.9**t)) / (np.sqrt(vk / (1 - 0.999**t)) + 1e-8)
        adam_step(params, grads, state)
    for p, q in zip(params, want):
        np.testing.assert_allclose(p, q, rtol=1e-14, atol=0)


def test_adam_state_validation():
    with pytest.raises(ShapeMismatch):
        adam_step([np.zeros(2)], [], AdamState(m=[], v=[]))


def test_finite_diff_check_quadratic():
    def loss_fn(ps):
        return float((ps[0] ** 2).sum()), [2 * ps[0]]

    assert finite_diff_check(loss_fn, [np.array([3.0, -1.5])]) < 1e-9


def test_finite_diff_check_flags_wrong_gradient():
    def loss_fn(ps):
        return float((ps[0] ** 2).sum()), [3 * ps[0]]  # off by 1.5x

    assert finite_diff_check(loss_fn, [np.array([3.0])]) > 0.3


def test_finite_diff_check_sampling_cap():
    def loss_fn(ps):
        return float((ps[0] ** 2).sum()), [2 * ps[0]]

    params = [np.arange(1.0, 101.0)]
    err = finite_diff_check(loss_fn, params, max_coords=5, rng=np.random.default_rng(0))
    assert err < 1e-6  # large loss magnitude raises the roundoff floor
