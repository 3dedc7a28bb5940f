"""The names the benchmark's tracer patches exist in the package.

`perfbench/tracer.py` wraps package functions and `GradientTape` methods
by name and reads each recorded op off `tape._records`.  A rename would
break only the benchmark's own runs, so these tests read the tracer's
lists from the file itself and check them against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from melodykit import rnn
from melodykit.core import DatasetVariant, Vocabulary
from melodykit.tensor import GradientTape, Tensor

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tape_op_the_tracer_wraps_is_a_tape_method():
    ops = load_tracer().TAPE_OPS
    assert ops
    assert [op for op in ops if not callable(getattr(GradientTape, op, None))] == []


def test_every_layer_function_the_tracer_wraps_exists():
    functions = load_tracer()._LAYER_FUNCTIONS
    assert functions
    missing = [f"{layer}.{name}" for layer, names in functions.items() for name in names
               if not callable(getattr(importlib.import_module(f"melodykit.{layer}"), name, None))]
    assert missing == []


def test_the_training_names_the_tracer_patches_exist():
    # `rnn` calls adam_step and clip_gradients through its own globals, so the tracer patches them there.
    for name in ("train", "init_model", "adam_step", "clip_gradients"):
        assert callable(getattr(rnn, name, None)), name
    assert callable(getattr(GradientTape, "backward", None))


def test_every_recorded_op_leaves_an_out_back_pair_on_the_tape():
    tape = GradientTape()
    out = tape.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))))
    assert len(tape._records) == 1 and tape._records[-1][0] is out and callable(tape._records[-1][1])
    # A training window: the layer stack, then the head (projection, bias and loss in one record).
    model = rnn.init_model(Vocabulary(tokens=(60, 62, 64)), DatasetVariant.CONTROL, cell="lstm", num_layers=2,
                           hidden_size=4, embedding_dim=3)
    X = np.array([[0, 1, 2], [2, 1, 0]])
    tape = GradientTape()
    loss, _ = rnn._window_loss(tape, model, X, X, rnn._zero_states(model, 2))
    assert len(tape._records) == 2
    assert all(isinstance(out, Tensor) and callable(back) for out, back in tape._records)
    assert tape._records[-1][0] is loss
