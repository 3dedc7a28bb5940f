"""Embedding, gated recurrent cells, the training loop, and sampling.

A model is an embedding table, a stack of identical gated cells, and a
linear projection to vocabulary logits; everything trains jointly by
taping the unrolled sequence and running Adam on the summed cross-entropy.
Weight blocks are stored (input_size + hidden, hidden) and applied as
[x, h] @ W + b, one block per gate.

Each cell kind is defined once, by its entry in the literal `CELL_TYPES`
dict.  One time step of the whole model, `_step`, embeds a batch of token
ids, runs the stack and projects to logits.  Training runs it on a tape.
`sample_batch` runs it on `NO_TAPE` with every song as one lane of a
single batch, each lane drawing from its own generator; `sample` is its
one-lane call.  `stack_forward` runs it on `NO_TAPE` with a batch of one.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .core import DatasetVariant, Song, TrainingCorpus, Vocabulary, interval_to_song, song_to_interval
from .errors import (
    BadToken,
    CorpusTooSmall,
    MalformedFile,
    ShapeMismatch,
    UnknownSeedToken,
)
from .tensor import NO_TAPE, AdamState, GradientTape, Tensor, adam_step, clip_gradients, softmax

MAX_LAYERS = 5
CHECKPOINT_FORMAT = "melodykit-checkpoint"
CHECKPOINT_VERSION = 1
_HEADER_KEYS = (
    "cell", "num_layers", "hidden_size", "embedding_dim", "variant",
    "vocabulary", "param_count", "blob_sha256",
)

# Internal per-layer recurrent state: (h, c) Tensors, c is None for
# cells that keep no separate memory lane.
_StatePair = tuple[Tensor, "Tensor | None"]


def _lstm_step(tape: GradientTape, x: Tensor, state: _StatePair, p: "CellParams") -> tuple[Tensor, _StatePair]:
    h, c = state
    xh = tape.concat(x, h)
    f = tape.sigmoid(tape.add_bias(tape.matmul(xh, p.weights[0]), p.biases[0]))
    i = tape.sigmoid(tape.add_bias(tape.matmul(xh, p.weights[1]), p.biases[1]))
    g = tape.tanh(tape.add_bias(tape.matmul(xh, p.weights[2]), p.biases[2]))
    o = tape.sigmoid(tape.add_bias(tape.matmul(xh, p.weights[3]), p.biases[3]))
    c_new = tape.add(tape.mul(f, c), tape.mul(i, g))
    h_new = tape.mul(o, tape.tanh(c_new))
    return h_new, (h_new, c_new)


def _ugrnn_step(tape: GradientTape, x: Tensor, state: _StatePair, p: "CellParams") -> tuple[Tensor, _StatePair]:
    h, _ = state
    xh = tape.concat(x, h)
    g = tape.sigmoid(tape.add_bias(tape.matmul(xh, p.weights[0]), p.biases[0]))
    c = tape.tanh(tape.add_bias(tape.matmul(xh, p.weights[1]), p.biases[1]))
    h_new = tape.add(tape.mul(g, h), tape.mul(tape.one_minus(g), c))
    return h_new, (h_new, None)


@dataclass(frozen=True)
class CellSpec:
    """A cell kind: gate blocks in declaration order plus the step."""

    gates: tuple[str, ...]
    has_memory: bool
    step: Callable


CELL_TYPES: dict[str, CellSpec] = {
    "lstm": CellSpec(("forget", "input", "candidate", "output"), True, _lstm_step),
    "ugrnn": CellSpec(("update", "candidate"), False, _ugrnn_step),
}


def cell_spec(kind: str) -> CellSpec:
    try:
        return CELL_TYPES[kind]
    except KeyError:
        raise ValueError(f"unknown cell kind {kind!r}; known: {sorted(CELL_TYPES)}") from None


@dataclass
class CellParams:
    """Per-gate weight and bias blocks for one layer."""

    weights: list[Tensor]
    biases: list[Tensor]

    @property
    def hidden_size(self) -> int:
        return self.weights[0].value.shape[1]


def init_cell_params(
    kind: str,
    input_size: int,
    hidden_size: int,
    rng: np.random.Generator,
    init_scale: float = 0.08,
) -> CellParams:
    """Uniform [-init_scale, init_scale] weights, zero biases.

    The LSTM forget-gate bias starts at 1.0 so early training does not
    flush the memory lane.
    """
    spec = cell_spec(kind)
    rows = input_size + hidden_size
    weights = [Tensor(rng.uniform(-init_scale, init_scale, size=(rows, hidden_size))) for _ in spec.gates]
    biases = [Tensor(np.zeros(hidden_size)) for _ in spec.gates]
    if kind == "lstm":
        biases[0].value[:] = 1.0
    return CellParams(weights=weights, biases=biases)


@dataclass
class CellState:
    """Recurrent state of one layer; c is None for memory-less cells."""

    h: np.ndarray
    c: np.ndarray | None = None


@dataclass
class ModelState:
    """Everything a trained model needs to predict: weights plus token map."""

    cell: str
    embedding: Tensor
    layers: list[CellParams]
    proj_w: Tensor
    proj_b: Tensor
    vocabulary: Vocabulary
    variant: DatasetVariant

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def hidden_size(self) -> int:
        return self.layers[0].hidden_size

    @property
    def embedding_dim(self) -> int:
        return self.embedding.value.shape[1]

    @property
    def vocab_size(self) -> int:
        return self.embedding.value.shape[0]

    def parameters(self) -> list[Tensor]:
        """Checkpoint order: embedding, per-layer gate blocks (W then b), projection W, b."""
        out = [self.embedding]
        for layer in self.layers:
            for w, b in zip(layer.weights, layer.biases):
                out.extend([w, b])
        out.extend([self.proj_w, self.proj_b])
        return out


def init_model(
    vocabulary: Vocabulary,
    variant: DatasetVariant,
    cell: str = "lstm",
    num_layers: int = 1,
    hidden_size: int = 128,
    embedding_dim: int = 64,
    rng: np.random.Generator | int | None = None,
    init_scale: float = 0.08,
) -> ModelState:
    if not (1 <= num_layers <= MAX_LAYERS):
        raise ValueError(f"num_layers must be in [1, {MAX_LAYERS}], got {num_layers}")
    if hidden_size < 1 or embedding_dim < 1:
        raise ValueError(f"hidden_size and embedding_dim must be >= 1, got {hidden_size} and {embedding_dim}")
    cell_spec(cell)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(0 if rng is None else rng)
    vocab_size = vocabulary.size
    embedding = Tensor(rng.uniform(-init_scale, init_scale, size=(vocab_size, embedding_dim)))
    layers = []
    for i in range(num_layers):
        in_size = embedding_dim if i == 0 else hidden_size
        layers.append(init_cell_params(cell, in_size, hidden_size, rng, init_scale))
    proj_w = Tensor(rng.uniform(-init_scale, init_scale, size=(hidden_size, vocab_size)))
    proj_b = Tensor(np.zeros(vocab_size))
    return ModelState(
        cell=cell, embedding=embedding, layers=layers,
        proj_w=proj_w, proj_b=proj_b, vocabulary=vocabulary, variant=variant,
    )


def _zero_state_pairs(model: ModelState, batch: int) -> list[_StatePair]:
    spec = cell_spec(model.cell)
    pairs: list[_StatePair] = []
    for layer in model.layers:
        h = Tensor(np.zeros((batch, layer.hidden_size)))
        c = Tensor(np.zeros((batch, layer.hidden_size))) if spec.has_memory else None
        pairs.append((h, c))
    return pairs


def _step(tape: GradientTape, model: ModelState, ids: np.ndarray, pairs: list[_StatePair]):
    """One time step for a batch of token ids: embed, stack, project."""
    spec = cell_spec(model.cell)
    v = tape.lookup(model.embedding, ids)
    new_pairs: list[_StatePair] = []
    for layer, pair in zip(model.layers, pairs):
        v, pair = spec.step(tape, v, pair, layer)
        new_pairs.append(pair)
    logits = tape.add_bias(tape.matmul(v, model.proj_w), model.proj_b)
    return logits, new_pairs


def stack_forward(
    token_ids, model: ModelState, states: list[CellState] | None = None
) -> tuple[np.ndarray, list[CellState]]:
    """Run a token sequence through the stack; returns (logits (T, V), final states).

    Feeding one long sequence equals feeding it piecewise with the carried
    states.  Ids are checked against the vocabulary, and the states come
    back as plain per-layer arrays, so callers can score a sequence or
    compare two models without touching the internal Tensor state.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("token_ids must be a non-empty 1-D sequence")
    if (ids < 0).any() or (ids >= model.vocab_size).any():
        bad = ids[(ids < 0) | (ids >= model.vocab_size)][0]
        raise BadToken(f"token id {int(bad)} outside [0, {model.vocab_size})")
    if states is None:
        pairs = _zero_state_pairs(model, 1)
    else:
        if len(states) != model.num_layers:
            raise ShapeMismatch(f"expected {model.num_layers} layer states, got {len(states)}")
        spec = cell_spec(model.cell)
        pairs = [
            (Tensor(s.h[None, :]), Tensor(s.c[None, :]) if spec.has_memory else None)
            for s in states
        ]
    rows = []
    for t in range(ids.size):
        logits, pairs = _step(NO_TAPE, model, ids[t : t + 1], pairs)
        rows.append(logits.value[0])
    out_states = [
        CellState(h=h.value[0].copy(), c=c.value[0].copy() if c is not None else None)
        for h, c in pairs
    ]
    return np.vstack(rows), out_states


@dataclass
class TrainConfig:
    """Model and optimisation settings for one training run."""

    cell: str = "lstm"
    num_layers: int = 1
    hidden_size: int = 128
    embedding_dim: int = 64
    batch_size: int = 50
    seq_len: int = 50
    epochs: int = 300
    learning_rate: float = 0.002
    lr_decay: float = 0.97
    clip_norm: float = 5.0
    max_iterations: int | None = None

    def __post_init__(self) -> None:
        if self.batch_size < 1 or self.seq_len < 1:
            raise ValueError("batch_size and seq_len must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.max_iterations is not None and self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        for name in ("learning_rate", "lr_decay", "clip_norm"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")


LearningCurve = list[tuple[int, float]]


def _window_loss(tape: GradientTape, model: ModelState, X: np.ndarray, Y: np.ndarray, pairs: list[_StatePair]):
    """Summed cross-entropy of stepping through the columns of X against Y; returns (loss, states)."""
    total: Tensor | None = None
    for t in range(X.shape[1]):
        logits, pairs = _step(tape, model, X[:, t], pairs)
        step_loss = tape.cross_entropy(logits, Y[:, t])
        total = step_loss if total is None else tape.add(total, step_loss)
    return total, pairs


def train(corpus: TrainingCorpus, config: TrainConfig, seed: int = 0) -> tuple[ModelState, LearningCurve]:
    """Train a fresh model on the corpus; returns (model, per-iteration curve).

    The token stream splits into batch_size contiguous lanes; each
    iteration consumes one seq_len window across all lanes, sums the
    per-step cross-entropies, clips the global gradient norm, and takes
    one Adam step.  States carry across windows within an epoch; at epoch
    start they reset and the learning rate decays.  The curve records the
    per-token loss, i.e. the window sum divided by batch_size * seq_len.
    """
    rng = np.random.default_rng(seed)
    model = init_model(
        corpus.vocabulary, corpus.variant,
        cell=config.cell, num_layers=config.num_layers,
        hidden_size=config.hidden_size, embedding_dim=config.embedding_dim, rng=rng,
    )
    B, T = config.batch_size, config.seq_len
    L = int(corpus.x.size)
    if L < B * T:
        raise CorpusTooSmall(
            f"stream of {L + 1} tokens cannot fill one {B}x{T} window; need {B * T + 1}"
        )
    lane_len = L // B
    X = corpus.x[: B * lane_len].reshape(B, lane_len)
    Y = corpus.y[: B * lane_len].reshape(B, lane_len)
    windows = lane_len // T
    iterations = config.epochs * windows
    if config.max_iterations is not None:
        iterations = min(iterations, config.max_iterations)
    params = model.parameters()
    opt = AdamState.for_params([p.value for p in params], lr=config.learning_rate)
    curve: LearningCurve = []
    for iteration in range(iterations):
        epoch, w = divmod(iteration, windows)
        if w == 0:
            opt.lr = config.learning_rate * (config.lr_decay ** epoch)
            pairs = _zero_state_pairs(model, B)
        tape = GradientTape()
        cols = slice(w * T, (w + 1) * T)
        total, pairs = _window_loss(tape, model, X[:, cols], Y[:, cols], pairs)
        tape.backward(total)
        grads = [p.grad if p.grad is not None else np.zeros_like(p.value) for p in params]
        grads = clip_gradients(grads, config.clip_norm)
        adam_step([p.value for p in params], grads, opt)
        for p in params:
            p.grad = None
        curve.append((iteration + 1, float(total.value) / (B * T)))
        # Detach states between windows: values carry, gradients do not.
        pairs = [(Tensor(h.value), Tensor(c.value) if c is not None else None) for h, c in pairs]
    return model, curve


def _pick(logits: np.ndarray, mode: str, temperature: float, rngs: list[np.random.Generator]) -> np.ndarray:
    """Next token id of each lane from its (lanes, V) logits row.

    A temperature draw is what `rng.choice(V, p=row)` makes of the row's
    softmax: one `rng.random()` per lane, searched in the row's cumulative
    sum divided by its last entry, to the right of any tie.
    """
    if not np.isfinite(logits).all():
        raise ValueError("the model produced non-finite logits")
    if mode == "greedy":
        return logits.argmax(axis=1)
    # A tiny temperature overflows the scaled logits; the check below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        probs = softmax(logits / temperature)
        probs = probs / probs.sum(axis=1, keepdims=True)
    if not np.isfinite(probs).all():
        raise ValueError(f"temperature {temperature} gives non-finite probabilities")
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    u = np.array([rng.random() for rng in rngs])
    return (cdf <= u[:, None]).sum(axis=1)


def sample_batch(
    model: ModelState,
    seed_song: Song,
    n: int,
    mode: str,
    temperature: float,
    rngs: list[np.random.Generator],
) -> list[Song]:
    """Sample one song per generator, all as lanes of one batch.

    Every lane is warmed on the same seed song, then generates n tokens,
    feeding back its own picks; lane i draws only from rngs[i], so its song
    does not depend on how many other lanes run beside it.  A song is the
    seed with the decoded continuation appended; interval models rebuild
    notes from the seed's last pitch.
    """
    if mode not in ("greedy", "temperature"):
        raise ValueError(f"mode must be 'greedy' or 'temperature', got {mode!r}")
    if not (math.isfinite(temperature) and temperature > 0.0):
        raise ValueError(f"temperature must be finite and > 0, got {temperature}")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return [list(seed_song) for _ in rngs]

    if model.variant is DatasetVariant.INTERVAL:
        seed_tokens = song_to_interval(seed_song)
    else:
        seed_tokens = list(seed_song)
    for tok in seed_tokens:
        if tok not in model.vocabulary:
            raise UnknownSeedToken(f"seed token {tok} not in the model vocabulary")
    ids = model.vocabulary.encode(seed_tokens)
    if ids.size == 0:
        raise ValueError("the seed song yields no tokens")

    # Seed ids were checked above and picked ids are in range by
    # construction, so the loop steps the model directly.
    lanes = len(rngs)
    pairs = _zero_state_pairs(model, lanes)
    for t in range(ids.size):
        logits, pairs = _step(NO_TAPE, model, np.full(lanes, ids[t]), pairs)
    generated = np.empty((lanes, n), dtype=np.int64)
    generated[:, 0] = _pick(logits.value, mode, temperature, rngs)
    for t in range(1, n):
        logits, pairs = _step(NO_TAPE, model, generated[:, t - 1], pairs)
        generated[:, t] = _pick(logits.value, mode, temperature, rngs)

    songs = []
    for row in generated:
        tokens = model.vocabulary.decode(row)
        if model.variant is DatasetVariant.INTERVAL:
            songs.append(list(seed_song) + interval_to_song(seed_song[-1], tokens)[1:])
        else:
            songs.append(list(seed_song) + tokens)
    return songs


def sample(
    model: ModelState,
    seed_song: Song,
    n: int,
    mode: str = "greedy",
    temperature: float = 1.0,
    rng: np.random.Generator | int | None = None,
) -> Song:
    """Warm the model on the seed, then generate n tokens feeding back.

    The one-lane call of `sample_batch`.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(0 if rng is None else rng)
    return sample_batch(model, seed_song, n, mode, temperature, [rng])[0]


def save_checkpoint(model: ModelState, path: str | Path) -> None:
    """Write a one-line JSON header, newline, then the little-endian float64 blob.

    Blob order matches ModelState.parameters(): embedding rows, each
    layer's gate blocks in declaration order (W then b per gate), then
    projection W and b.  The header carries a sha256 of the blob.
    """
    blob = b"".join(p.value.astype("<f8").tobytes() for p in model.parameters())
    header = {
        "format": CHECKPOINT_FORMAT,
        "format_version": CHECKPOINT_VERSION,
        "cell": model.cell,
        "num_layers": model.num_layers,
        "hidden_size": model.hidden_size,
        "embedding_dim": model.embedding_dim,
        "variant": model.variant.value,
        "vocabulary": [int(t) for t in model.vocabulary.tokens],
        "param_count": sum(p.value.size for p in model.parameters()),
        "blob_sha256": hashlib.sha256(blob).hexdigest(),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(blob)


def load_checkpoint(path: str | Path) -> ModelState:
    """Rebuild a ModelState from a checkpoint file.

    The header must carry every key and the blob its checksum.  The model is
    built by init_model from the header and its parameters() are filled in
    order, so the blob must hold exactly as many values as they need.
    """
    data = Path(path).read_bytes()
    nl = data.find(b"\n")
    if nl < 0:
        raise MalformedFile(f"{path}: missing header line")
    try:
        header = json.loads(data[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedFile(f"{path}: bad header ({exc})") from exc
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise MalformedFile(f"{path}: not a {CHECKPOINT_FORMAT} file")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise MalformedFile(f"{path}: unsupported format version {header.get('format_version')}")
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise MalformedFile(f"{path}: header lacks {', '.join(missing)}")
    blob = data[nl + 1 :]
    if hashlib.sha256(blob).hexdigest() != header["blob_sha256"]:
        raise MalformedFile(f"{path}: checksum mismatch (truncated or corrupted)")
    flat = np.frombuffer(blob, dtype="<f8")
    if flat.size != header["param_count"]:
        raise MalformedFile(f"{path}: expected {header['param_count']} values, found {flat.size}")

    try:
        vocabulary = Vocabulary(tokens=tuple(int(t) for t in header["vocabulary"]))
        hidden, emb = int(header["hidden_size"]), int(header["embedding_dim"])
        # init_model allocates before the blob is matched against its
        # parameters.  Refuse sizes whose embedding table, first gate block or
        # projection alone overflows the blob, so that an edited header cannot
        # make it allocate far more than the file holds.
        if max(vocabulary.size * emb, (emb + hidden) * hidden, hidden * vocabulary.size) > flat.size:
            raise ValueError(f"sizes hidden {hidden}, embedding {emb} overflow {flat.size} values")
        model = init_model(
            vocabulary, DatasetVariant(header["variant"]),
            cell=header["cell"], num_layers=int(header["num_layers"]),
            hidden_size=hidden, embedding_dim=emb,
        )
    except (TypeError, ValueError) as exc:
        raise MalformedFile(f"{path}: bad header ({exc})") from exc
    params = model.parameters()
    expected = sum(p.value.size for p in params)
    if flat.size != expected:
        raise MalformedFile(f"{path}: header describes {expected} values, blob holds {flat.size}")
    pos = 0
    for p in params:
        p.value[...] = flat[pos : pos + p.value.size].reshape(p.value.shape)
        pos += p.value.size
    return model
