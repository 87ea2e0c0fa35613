"""Feed-forward sigmoid network with one or two softmax heads, trained by SGD.

Hidden layers are named L1..Ln and any of them can be read out as a deep
feature.  Multi-task training attaches one softmax head per label stream and
combines the per-head cross-entropies with fixed weights.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class NetworkArch:
    input_dim: int
    hidden_layers: tuple[int, ...] = (1024,) * 6
    output_heads: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        if self.input_dim <= 0 or any(w <= 0 for w in self.hidden_layers):
            raise DataError("all layer widths must be positive")
        if not self.output_heads:
            raise DataError("at least one output head is required")
        if any(k <= 0 for _, k in self.output_heads):
            raise DataError("head class counts must be positive")

    def layer_index(self, layer: str) -> int:
        """Map a layer name like ``L2``, a ``bn.layer`` value, to its 0-based hidden-layer index."""
        if layer.startswith("L"):
            try:
                idx = int(layer[1:]) - 1
            except ValueError:
                idx = -1
            if 0 <= idx < len(self.hidden_layers):
                return idx
        raise DataError(f"bn.layer: no hidden layer {layer!r}; valid: L1..L{len(self.hidden_layers)}")


@dataclass
class NetworkParams:
    """Weights and biases for the hidden stack and the output heads.

    A network read for feature extraction (``storage.read_network`` with a
    ``layer``) holds only the first hidden layers and no heads.
    """

    arch: NetworkArch
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    head_weights: list[np.ndarray]
    head_biases: list[np.ndarray]
    rng_seed: int = 0


DNN_TARGETS = ("tcl", "speaker", "phrase", "speaker+phrase")


@dataclass(frozen=True)
class DnnConfig:
    """The ``dnn`` config section; ``None`` seeds read as 0."""

    targets: str = "tcl"
    hidden_layers: tuple[int, ...] = (1024,) * 6
    context_left: int = 5
    context_right: int = 5
    learning_rate: float = 0.008
    epochs: int = 20
    minibatch_size: int = 256
    init_seed: int | None = None
    shuffle_seed: int | None = None

    def __post_init__(self):
        if self.targets not in DNN_TARGETS:
            raise DataError(f"dnn.targets must be one of {DNN_TARGETS}")
        if not self.hidden_layers or any(w <= 0 for w in self.hidden_layers):
            raise DataError("dnn.hidden_layers must be a non-empty list of positive widths")
        if self.context_left < 0 or self.context_right < 0:
            raise DataError("dnn.context_left and dnn.context_right must be >= 0")
        if self.learning_rate < 0:
            raise DataError("dnn.learning_rate must be non-negative")
        if self.epochs < 1 or self.minibatch_size < 1:
            raise DataError("dnn.epochs and dnn.minibatch_size must be positive")


class ContextWindows:
    """Read-only stand-in for a matrix of context-stacked rows.

    Holds the frames once plus one row of frame indices per stacked row, and
    gathers ``frames[index[sel]]`` only when rows are asked for, so a training
    set costs one copy of the frames instead of ``left + 1 + right`` copies.
    """

    def __init__(self, frames: np.ndarray, index: np.ndarray):
        self.frames = frames
        self.index = index

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.index), self.index.shape[1] * self.frames.shape[1])

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, sel) -> np.ndarray:
        rows = self.index[sel]
        return self.frames[rows].reshape(*rows.shape[:-1], -1)


@dataclass(frozen=True)
class LabeledDataset:
    """Context-stacked inputs plus one integer label vector per head."""

    inputs: np.ndarray | ContextWindows
    labels: dict[str, np.ndarray]

    def __post_init__(self):
        for name, vec in self.labels.items():
            if len(vec) != len(self.inputs):
                raise DataError(
                    f"head {name!r}: {len(vec)} labels for {len(self.inputs)} rows"
                )

    @property
    def num_rows(self) -> int:
        return len(self.inputs)


@dataclass(frozen=True)
class ForwardPass:
    hidden: list[np.ndarray]
    head_log_posteriors: list[np.ndarray]


def context_index(lengths: list[tuple[int, int]], left: int = 5, right: int = 5) -> np.ndarray:
    """Frame index of every context slot of utterances laid end to end, clipped to each one's edges.

    ``lengths`` gives each utterance's (frames, rows kept): its first ``rows``
    stacked rows are indexed into its frames, offset by the frames of the
    utterances before it, and a kept prefix still reaches the right context
    beyond it.  The index is filled into one array, with no per-utterance copy.
    """
    slots = np.arange(-left, right + 1)
    index = np.empty((sum(rows for _, rows in lengths), len(slots)), dtype=np.intp)
    start = offset = 0
    for num_frames, rows in lengths:
        block = index[start : start + rows]
        np.add.outer(np.arange(offset, offset + rows), slots, out=block)
        np.clip(block, offset, offset + num_frames - 1, out=block)
        start += rows
        offset += num_frames
    return index


def stack_context(frames: np.ndarray, left: int = 5, right: int = 5) -> np.ndarray:
    """One row per frame: the frame plus its left/right context, edges replicated."""
    T = frames.shape[0]
    return frames[context_index([(T, T)], left, right)].reshape(T, -1)


def context_windows(
    utterances: list[tuple[np.ndarray, int]], left: int = 5, right: int = 5
) -> ContextWindows:
    """Lazy ``vstack([stack_context(frames, left, right)[:rows] for frames, rows in utterances])``.

    Each utterance keeps all its frames, so a truncated prefix still sees the
    right context that lies beyond it.
    """
    index = context_index([(len(frames), rows) for frames, rows in utterances], left, right)
    return ContextWindows(np.concatenate([frames for frames, _ in utterances]), index)


def init_network(arch: NetworkArch, seed: int = 0, dtype=np.float64) -> NetworkParams:
    """Uniform +/- 4 sqrt(6 / (fan_in + fan_out)) weights, zero biases, in ``dtype``.

    The range is Glorot & Bengio's (AISTATS 2010) for sigmoid units, 4 times
    their tanh range because the sigmoid's slope at 0 is 1/4; with the tanh
    range a 6-layer sigmoid network does not learn.  Each weight matrix is
    drawn in float64 and cast as soon as it is drawn, so every dtype gets the
    same draws, rounded, and only one float64 matrix is held at a time.
    """
    rng = np.random.default_rng(seed)

    def draw(fan_in: int, fan_out: int) -> np.ndarray:
        limit = 4.0 * np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype, copy=False)

    weights, biases = [], []
    prev = arch.input_dim
    for width in arch.hidden_layers:
        weights.append(draw(prev, width))
        biases.append(np.zeros(width, dtype))
        prev = width
    head_weights, head_biases = [], []
    for _, num_classes in arch.output_heads:
        head_weights.append(draw(prev, num_classes))
        head_biases.append(np.zeros(num_classes, dtype))
    return NetworkParams(arch, weights, biases, head_weights, head_biases, rng_seed=seed)


def _as_float(inputs) -> np.ndarray:
    """``inputs`` as a 2-D float array: float32 stays float32, all else becomes float64."""
    x = np.atleast_2d(np.asarray(inputs))
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function of ``z``, written over ``z``."""
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, without overflow.
    # With e = e^-|z| <= 1, max(e, z >= 0) is the numerator of both branches,
    # with no per-element branch on the sign of z.
    e = np.abs(z)
    np.exp(np.negative(e, out=e), out=e)
    positive = z >= 0
    np.add(e, 1.0, out=z)
    np.maximum(e, positive, out=e)
    return np.divide(e, z, out=z)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _affine(a: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    z = a @ W
    z += b
    return z


def forward(params: NetworkParams, input_batch: np.ndarray) -> ForwardPass:
    """Forward pass; returns per-layer sigmoid activations and per-head posteriors.

    Computes in the dtype of the input and the parameters: float32 throughout
    when both are float32.
    """
    x = _as_float(input_batch)
    if x.shape[1] != params.arch.input_dim:
        raise DataError(f"input dim {x.shape[1]}, network expects {params.arch.input_dim}")
    hidden = []
    a = x
    for W, b in zip(params.weights, params.biases):
        a = _sigmoid(_affine(a, W, b))
        hidden.append(a)
    log_posts = [
        _log_softmax(_affine(a, W, b))
        for W, b in zip(params.head_weights, params.head_biases)
    ]
    return ForwardPass(hidden=hidden, head_log_posteriors=log_posts)


def _mean_loss(picked: list[np.ndarray]) -> float:
    """The heads' equally weighted sum of their mean negative picked log posterior."""
    total, weight = 0.0, 1.0 / len(picked)
    for vec in picked:
        total += weight * float(-np.mean(vec))
    return total


def _backprop(
    params: NetworkParams, x: np.ndarray, fp: ForwardPass, labels: list[np.ndarray]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(parameter array, its gradient) for every array of ``params``, heads first.

    ``fp`` is ``forward(params, x)``.  The delta passed down through a layer
    is computed before that layer's gradients are yielded, so the consumer
    may update the layer in place on receipt.  The heads are weighted equally.
    """
    m = x.shape[0]
    last = fp.hidden[-1] if fp.hidden else x
    delta_into_hidden = np.zeros_like(last)
    for h, y in enumerate(labels):
        post = np.exp(fp.head_log_posteriors[h])
        post[np.arange(m), y] -= 1.0
        delta = post * ((1.0 / len(labels)) / m)
        delta_into_hidden += delta @ params.head_weights[h].T
        yield params.head_weights[h], last.T @ delta
        yield params.head_biases[h], delta.sum(axis=0)

    delta = delta_into_hidden
    for layer in range(len(params.weights) - 1, -1, -1):
        a = fp.hidden[layer]
        delta = delta * a * (1.0 - a)
        below = fp.hidden[layer - 1] if layer > 0 else x
        # no gradient flows into the inputs
        down = delta @ params.weights[layer].T if layer > 0 else None
        yield params.weights[layer], below.T @ delta
        yield params.biases[layer], delta.sum(axis=0)
        delta = down


def backward(params: NetworkParams, batch: LabeledDataset, learning_rate: float) -> list[np.ndarray]:
    """One SGD step on ``batch`` for the cross-entropy loss, the heads weighted equally.

    Each array of ``params`` is updated in place as soon as its gradient
    exists, so at most one weight gradient is held at a time.  Returns, per
    head, each row's log posterior of its true class before the update.
    """
    x = _as_float(batch.inputs)
    labels = [batch.labels[name] for name, _ in params.arch.output_heads]
    fp = forward(params, x)
    picked = [lp[np.arange(len(y)), y] for lp, y in zip(fp.head_log_posteriors, labels)]
    for p, g in _backprop(params, x, fp, labels):
        g *= learning_rate
        p -= g
    return picked


def train(
    dataset: LabeledDataset, arch: NetworkArch, config: DnnConfig
) -> tuple[NetworkParams, list[float]]:
    """Plain minibatch SGD, one ``backward`` step per minibatch; returns the
    trained parameters and the loss trace.

    Of ``config`` only the SGD settings and seeds are read; the layers come
    from ``arch``.  The heads weigh equally in the loss.

    The trace has one entry per epoch: the mean over heads of the mean, over
    every training row, of the row's negative log posterior of its true class,
    as computed by the forward pass of that row's minibatch in that epoch,
    before the minibatch's update.  It costs no forward pass beyond the ones
    SGD makes.  Minibatch order is drawn from ``config.shuffle_seed``,
    parameter initialization from ``config.init_seed`` (``None`` reads as 0);
    reruns are bit-identical.  The parameters are initialized in the inputs'
    dtype, so float32 inputs train in float32.
    """
    if dataset.num_rows == 0:
        raise DataError("training dataset is empty")
    heads = [name for name, _ in arch.output_heads]
    for name in heads:
        if name not in dataset.labels:
            raise DataError(f"dataset has no labels for head {name!r}")

    params = init_network(arch, config.init_seed or 0, _as_float(dataset.inputs[:1]).dtype)
    n, step = dataset.num_rows, config.minibatch_size
    # Indexed by dataset row, not by shuffled position, so the epoch's mean is
    # taken in the same order as one full-batch pass would take it.
    picked = [np.empty(n) for _ in heads]
    trace = []
    rng = np.random.default_rng(config.shuffle_seed or 0)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, step):
            sel = order[start : start + step]
            batch = LabeledDataset(dataset.inputs[sel], {h: dataset.labels[h][sel] for h in heads})
            for vec, part in zip(picked, backward(params, batch, config.learning_rate)):
                vec[sel] = part
        trace.append(_mean_loss(picked))
    return params, trace


def extract_deep_features(
    params: NetworkParams, inputs: np.ndarray, layer: str = "L2"
) -> np.ndarray:
    """Post-sigmoid activations of the named hidden layer for each input row.

    Computed in the dtype of the input and the parameters, like ``forward``.
    """
    idx = params.arch.layer_index(layer)
    x = _as_float(inputs)
    if x.shape[1] != params.arch.input_dim:
        raise DataError(f"input dim {x.shape[1]}, network expects {params.arch.input_dim}")
    a = x
    for W, b in zip(params.weights[: idx + 1], params.biases[: idx + 1]):
        a = _affine(a, W, b)  # the layer below is freed before the sigmoid runs
        _sigmoid(a)
    return a
