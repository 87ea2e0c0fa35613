"""Network tests: forward/loss against hand-computed values, backward against
a central finite-difference oracle, and trainer behavior on toy data.
"""

import tracemalloc
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from tclsv import network
from tclsv.errors import DataError
from tclsv.network import (
    LabeledDataset,
    NetworkArch,
    DnnConfig,
    NetworkParams,
    _as_float,
    _backprop,
    _mean_loss,
    _sigmoid,
    backward,
    context_windows,
    extract_deep_features,
    forward,
    init_network,
    stack_context,
    train,
)


def zero_params(arch: NetworkArch) -> NetworkParams:
    params = init_network(arch, seed=0)
    for w in params.weights + params.head_weights:
        w[:] = 0.0
    return params


class Gradients(NamedTuple):
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    head_weights: list[np.ndarray]
    head_biases: list[np.ndarray]


def posteriors(fp) -> list[np.ndarray]:
    return [np.exp(lp) for lp in fp.head_log_posteriors]


def batch_loss(params, batch) -> float:
    """The loss ``train`` traces: the heads' mean negative log posterior of the true class."""
    fp = forward(params, batch.inputs)
    picked = [
        lp[np.arange(len(batch.labels[n])), batch.labels[n]]
        for lp, (n, _) in zip(fp.head_log_posteriors, params.arch.output_heads)
    ]
    return _mean_loss(picked)


def analytic_gradients(params, batch) -> Gradients:
    """``_backprop``'s gradient of every parameter array, gathered by kind; ``params`` is not changed."""
    x = _as_float(batch.inputs)
    labels = [batch.labels[n] for n, _ in params.arch.output_heads]
    grads = {id(p): g for p, g in _backprop(params, x, forward(params, x), labels)}
    return Gradients(*([grads[id(a)] for a in arrays] for arrays in (
        params.weights, params.biases, params.head_weights, params.head_biases)))


def numeric_gradients(params, batch, h=1e-5) -> Gradients:
    """Central finite differences on every scalar parameter."""

    def diff(arr: np.ndarray) -> np.ndarray:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            lp = batch_loss(params, batch)
            arr[idx] = orig - h
            lm = batch_loss(params, batch)
            arr[idx] = orig
            g[idx] = (lp - lm) / (2.0 * h)
        return g

    return Gradients(
        weights=[diff(w) for w in params.weights],
        biases=[diff(b) for b in params.biases],
        head_weights=[diff(w) for w in params.head_weights],
        head_biases=[diff(b) for b in params.head_biases],
    )


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.linalg.norm(a) + np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def max_gradient_error(analytic: Gradients, numeric: Gradients) -> float:
    pairs = (
        list(zip(analytic.weights, numeric.weights))
        + list(zip(analytic.biases, numeric.biases))
        + list(zip(analytic.head_weights, numeric.head_weights))
        + list(zip(analytic.head_biases, numeric.head_biases))
    )
    return max(relative_error(a, n) for a, n in pairs)


# --- context stacking ---


def test_stack_context_single_frame_replicates():
    frame = np.array([[1.0, 2.0]])
    out = stack_context(frame, left=5, right=5)
    np.testing.assert_array_equal(out, np.tile(frame, (1, 11)))


def test_stack_context_middle_frame_is_plain_concatenation():
    frames = np.arange(11.0)[:, None]
    out = stack_context(frames, left=5, right=5)
    np.testing.assert_array_equal(out[5], np.arange(11.0))


def test_stack_context_edge_blocks():
    a, b, c = [1.0], [2.0], [3.0]
    out = stack_context(np.array([a, b, c]), left=5, right=5)
    np.testing.assert_array_equal(out[0], [1, 1, 1, 1, 1, 1, 2, 3, 3, 3, 3])
    np.testing.assert_array_equal(out[2], [1, 1, 1, 1, 2, 3, 3, 3, 3, 3, 3])


def test_stack_context_matches_loop_oracle():
    rng = np.random.default_rng(0)
    frames = rng.standard_normal((7, 3))
    out = stack_context(frames, left=2, right=3)
    assert out.shape == (7, 18)
    for t in range(7):
        row = np.concatenate([frames[min(max(t + o, 0), 6)] for o in range(-2, 4)])
        np.testing.assert_array_equal(out[t], row)


# --- initialization ---


def test_context_windows_match_stacked_rows():
    rng = np.random.default_rng(4)
    lengths, kept = (1, 7, 4, 9), (1, 7, 2, 0)  # one-frame, whole, two truncated prefixes
    utterances = [(rng.standard_normal((n, 3)), k) for n, k in zip(lengths, kept)]
    expected = np.vstack([stack_context(f, 2, 3)[:k] for f, k in utterances])
    view = context_windows(utterances, left=2, right=3)
    assert view.shape == expected.shape == (10, 18)
    assert len(view) == 10
    np.testing.assert_array_equal(view[:], expected)
    order = rng.permutation(10)
    np.testing.assert_array_equal(view[order], expected[order])
    np.testing.assert_array_equal(view[3:8], expected[3:8])
    np.testing.assert_array_equal(view[5], expected[5])


def test_sigmoid_bitwise_equal_to_masked_formula():
    def masked(z):
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    rng = np.random.default_rng(0)
    blocks = [rng.standard_normal((64, 33)) * scale for scale in (1, 10, 40, 200, 800)]
    extremes = np.array([0.0, -0.0, 745.0, -745.0, 1e-300, -1e-300, 709.8, -709.8,
                         5e-324, -5e-324, np.inf, -np.inf])
    # float32 exp overflows above 88.72 and underflows to 0 below -103.98
    extremes32 = np.array([0.0, -0.0, 88.72, -88.72, 88.73, -88.73, 103.97, -103.97,
                           103.98, -103.98, 1e-45, -1e-45, 745.0, -745.0, np.inf, -np.inf,
                           np.nan, -np.nan], dtype=np.float32)
    cases = blocks + [extremes, extremes.reshape(3, 4), np.array([np.nan, -np.nan])]
    cases += [block.astype(np.float32) for block in blocks] + [extremes32, extremes32.reshape(3, 6)]
    for z in cases:
        got = _sigmoid(z.copy())  # it overwrites its argument
        assert got.shape == z.shape
        assert got.dtype == z.dtype
        np.testing.assert_array_equal(got, masked(z))


def test_init_deterministic_and_biases_zero():
    arch = NetworkArch(input_dim=5, hidden_layers=(8, 8), output_heads=(("y", 3),))
    a = init_network(arch, seed=42)
    b = init_network(arch, seed=42)
    for wa, wb in zip(a.weights + a.head_weights, b.weights + b.head_weights):
        assert np.array_equal(wa, wb)
    for bias in a.biases + a.head_biases:
        assert np.all(bias == 0.0)


def test_init_respects_uniform_bounds_and_mean():
    arch = NetworkArch(input_dim=627, hidden_layers=(1024,), output_heads=(("y", 2),))
    params = init_network(arch, seed=7)
    w = params.weights[0]
    tanh_limit = np.sqrt(6.0 / (627 + 1024))  # Glorot & Bengio's range for tanh units
    limit = 4.0 * tanh_limit
    assert np.all(np.abs(w) <= limit)
    assert np.any(np.abs(w) > tanh_limit)
    stderr = np.sqrt((limit**2 / 3.0) / w.size)
    assert abs(w.mean()) < 3.0 * stderr


def test_arch_validation_and_layer_names():
    arch = NetworkArch(input_dim=4, hidden_layers=(8, 8, 8), output_heads=(("y", 2),))
    assert arch.layer_index("L1") == 0 and arch.layer_index("L3") == 2
    for bad in ("L0", "L4", "X2", "l1"):
        with pytest.raises(DataError, match=f"no hidden layer '{bad}'"):
            arch.layer_index(bad)
    with pytest.raises(DataError):
        NetworkArch(input_dim=4, hidden_layers=(8,), output_heads=())


# --- forward ---


def test_forward_zero_params_gives_half_activations_and_uniform_posteriors():
    arch = NetworkArch(input_dim=3, hidden_layers=(4, 4), output_heads=(("y", 5),))
    params = zero_params(arch)
    fp = forward(params, np.array([[0.3, -1.0, 2.0], [0.0, 0.0, 0.0]]))
    for h in fp.hidden:
        np.testing.assert_allclose(h, 0.5, atol=0)
    np.testing.assert_allclose(posteriors(fp)[0], 0.2, atol=1e-12)


def test_forward_posteriors_sum_to_one():
    arch = NetworkArch(input_dim=6, hidden_layers=(9,), output_heads=(("a", 4), ("b", 3)))
    params = init_network(arch, seed=1)
    fp = forward(params, np.random.default_rng(2).standard_normal((13, 6)))
    for post in posteriors(fp):
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(post > 0)


def test_forward_identical_rows_identical_posteriors():
    arch = NetworkArch(input_dim=4, hidden_layers=(6,), output_heads=(("y", 3),))
    params = init_network(arch, seed=3)
    row = np.array([0.5, -0.2, 1.0, 0.0])
    fp = forward(params, np.vstack([row, row]))
    np.testing.assert_array_equal(posteriors(fp)[0][0], posteriors(fp)[0][1])


def test_forward_dimension_mismatch():
    arch = NetworkArch(input_dim=4, hidden_layers=(6,), output_heads=(("y", 3),))
    with pytest.raises(DataError, match="input dim 5, network expects 4"):
        forward(init_network(arch, 0), np.zeros((2, 5)))


def test_forward_matches_manual_computation():
    arch = NetworkArch(input_dim=2, hidden_layers=(2,), output_heads=(("y", 2),))
    params = init_network(arch, seed=0)
    params.weights[0][:] = [[0.1, -0.4], [0.7, 0.2]]
    params.biases[0][:] = [0.05, -0.05]
    params.head_weights[0][:] = [[1.0, -1.0], [0.5, 0.5]]
    params.head_biases[0][:] = [0.0, 0.1]
    x = np.array([[0.3, -0.6]])
    z1 = x @ params.weights[0] + params.biases[0]
    a1 = 1.0 / (1.0 + np.exp(-z1))
    logits = a1 @ params.head_weights[0] + params.head_biases[0]
    expected = np.exp(logits) / np.exp(logits).sum()
    fp = forward(params, x)
    np.testing.assert_allclose(fp.hidden[0], a1, atol=1e-12)
    np.testing.assert_allclose(posteriors(fp)[0], expected, atol=1e-12)


# --- loss ---


def test_loss_uniform_posteriors_is_log_k():
    picked = np.log(np.full(7, 0.2))
    assert _mean_loss([picked]) == pytest.approx(np.log(5.0), abs=1e-12)
    arch = NetworkArch(input_dim=3, hidden_layers=(4,), output_heads=(("y", 5),))
    batch = LabeledDataset(inputs=np.ones((7, 3)), labels={"y": np.zeros(7, dtype=int)})
    assert batch_loss(zero_params(arch), batch) == pytest.approx(np.log(5.0), abs=1e-12)


def test_loss_perfect_prediction_is_zero():
    assert _mean_loss([np.zeros(3)]) == pytest.approx(0.0, abs=0)


def test_loss_two_heads_averages():
    pa, pb = np.log(np.full(4, 0.5)), np.log(np.full(4, 0.125))
    a = _mean_loss([pa])
    b = _mean_loss([pb])
    assert _mean_loss([pa, pb]) == pytest.approx((a + b) / 2.0, abs=1e-12)


# --- backward ---


def test_gradients_match_finite_differences_single_head():
    arch = NetworkArch(input_dim=5, hidden_layers=(2,), output_heads=(("y", 3),))
    params = init_network(arch, seed=11)
    rng = np.random.default_rng(12)
    batch = LabeledDataset(
        inputs=rng.standard_normal((6, 5)), labels={"y": rng.integers(0, 3, 6)}
    )
    analytic = analytic_gradients(params, batch)
    numeric = numeric_gradients(params, batch)
    assert max_gradient_error(analytic, numeric) <= 1e-5


def test_gradients_match_finite_differences_multi_task():
    arch = NetworkArch(input_dim=4, hidden_layers=(3, 3), output_heads=(("a", 2), ("b", 3)))
    params = init_network(arch, seed=21)
    rng = np.random.default_rng(22)
    batch = LabeledDataset(
        inputs=rng.standard_normal((5, 4)),
        labels={"a": rng.integers(0, 2, 5), "b": rng.integers(0, 3, 5)},
    )
    analytic = analytic_gradients(params, batch)
    numeric = numeric_gradients(params, batch)
    assert max_gradient_error(analytic, numeric) <= 1e-5


def test_gradient_of_batch_is_mean_of_singletons():
    arch = NetworkArch(input_dim=3, hidden_layers=(4,), output_heads=(("y", 2),))
    params = init_network(arch, seed=31)
    rng = np.random.default_rng(32)
    x = rng.standard_normal((2, 3))
    y = np.array([0, 1])
    g_pair = analytic_gradients(params, LabeledDataset(inputs=x, labels={"y": y}))
    g0 = analytic_gradients(params, LabeledDataset(inputs=x[:1], labels={"y": y[:1]}))
    g1 = analytic_gradients(params, LabeledDataset(inputs=x[1:], labels={"y": y[1:]}))
    for pair, a, b in zip(g_pair.weights, g0.weights, g1.weights):
        np.testing.assert_allclose(pair, (a + b) / 2.0, atol=1e-12)
    for pair, a, b in zip(g_pair.head_biases, g0.head_biases, g1.head_biases):
        np.testing.assert_allclose(pair, (a + b) / 2.0, atol=1e-12)


def test_gradient_vanishes_at_saturated_correct_prediction():
    arch = NetworkArch(input_dim=2, hidden_layers=(2,), output_heads=(("y", 2),))
    params = zero_params(arch)
    params.head_biases[0][:] = [60.0, -60.0]  # saturated logits favoring class 0
    batch = LabeledDataset(inputs=np.array([[0.1, 0.2]]), labels={"y": np.array([0])})
    grads = analytic_gradients(params, batch)
    for g in grads.head_weights + grads.head_biases + grads.weights + grads.biases:
        assert np.max(np.abs(g)) < 1e-12


def test_backward_is_one_sgd_step_of_backprops_gradients():
    arch = NetworkArch(input_dim=7, hidden_layers=(9, 6), output_heads=(("a", 4), ("b", 3)))
    params = init_network(arch, seed=44)
    rng = np.random.default_rng(45)
    batch = LabeledDataset(
        inputs=rng.standard_normal((33, 7)),
        labels={"a": rng.integers(0, 4, 33), "b": rng.integers(0, 3, 33)},
    )
    lr = 0.3
    fp = forward(params, batch.inputs)
    want_picked = [lp[np.arange(33), batch.labels[n]] for lp, n in zip(fp.head_log_posteriors, "ab")]
    want = [a - g * lr for a, g in zip(all_arrays(params), all_arrays(analytic_gradients(params, batch)))]
    arrays = all_arrays(params)
    picked = backward(params, batch, lr)
    assert all(a is b for a, b in zip(all_arrays(params), arrays))  # updated in place
    for got, expected in zip(all_arrays(params), want):
        np.testing.assert_array_equal(got, expected)
    for got, expected in zip(picked, want_picked):
        np.testing.assert_array_equal(got, expected)


# --- training ---


def separable_dataset(n=100, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.vstack(
        [rng.normal(-2.0, 0.5, (half, 2)), rng.normal(2.0, 0.5, (n - half, 2))]
    )
    y = np.concatenate([np.zeros(half, dtype=int), np.ones(n - half, dtype=int)])
    return LabeledDataset(inputs=x, labels={"y": y})


def test_training_reduces_loss_on_separable_data():
    arch = NetworkArch(input_dim=2, hidden_layers=(8,), output_heads=(("y", 2),))
    config = DnnConfig(learning_rate=0.5, epochs=10, minibatch_size=16, init_seed=1, shuffle_seed=2)
    params, trace = train(separable_dataset(), arch, config)
    assert len(trace) == 10
    assert trace[-1] < trace[0]
    fp = forward(params, separable_dataset().inputs)
    accuracy = np.mean(posteriors(fp)[0].argmax(axis=1) == separable_dataset().labels["y"])
    assert accuracy > 0.9


def test_training_zero_learning_rate_keeps_parameters():
    arch = NetworkArch(input_dim=2, hidden_layers=(4,), output_heads=(("y", 2),))
    config = DnnConfig(learning_rate=0.0, epochs=3, minibatch_size=8, init_seed=5)
    data = separable_dataset(20)
    params, trace = train(data, arch, config)
    fresh = init_network(arch, seed=5)
    for got, want in zip(params.weights + params.head_weights, fresh.weights + fresh.head_weights):
        assert np.array_equal(got, want)
    # every epoch's trace entry is the full-batch loss of the initial parameters,
    # bit for bit: the minibatch values are scattered back into row order
    full_batch = batch_loss(fresh, data)
    assert trace == [full_batch] * config.epochs


def test_training_is_bit_deterministic():
    arch = NetworkArch(input_dim=2, hidden_layers=(6,), output_heads=(("y", 2),))
    config = DnnConfig(learning_rate=0.2, epochs=4, minibatch_size=8, init_seed=3, shuffle_seed=4)
    p1, t1 = train(separable_dataset(40), arch, config)
    p2, t2 = train(separable_dataset(40), arch, config)
    assert t1 == t2
    for a, b in zip(
        p1.weights + p1.biases + p1.head_weights + p1.head_biases,
        p2.weights + p2.biases + p2.head_weights + p2.head_biases,
    ):
        assert np.array_equal(a, b)


def test_training_loss_trace_forwards_one_minibatch_at_a_time(monkeypatch):
    rng = np.random.default_rng(21)
    n, minibatch = 1000, 256  # deliberately not a multiple
    x = rng.standard_normal((n, 10))
    labels = {"a": rng.integers(0, 4, n), "b": rng.integers(0, 3, n)}
    arch = NetworkArch(input_dim=10, hidden_layers=(32, 16), output_heads=(("a", 4), ("b", 3)))
    config = DnnConfig(learning_rate=0.1, epochs=2, minibatch_size=minibatch, init_seed=2, shuffle_seed=3)
    real_forward = network.forward
    rows_seen = []

    def recording_forward(params, batch):
        rows_seen.append(len(batch))
        return real_forward(params, batch)

    monkeypatch.setattr(network, "forward", recording_forward)
    dataset = LabeledDataset(inputs=x, labels=labels)
    _, trace = train(dataset, arch, config)
    assert max(rows_seen) == minibatch
    assert sum(rows_seen) == config.epochs * n  # the SGD passes only, no loss passes
    assert len(trace) == config.epochs

    # two heads, a short last minibatch: with no updates each entry still
    # equals one full-batch pass
    _, flat = train(dataset, arch, replace(config, learning_rate=0.0))
    initial = init_network(arch, config.init_seed)
    assert flat == [batch_loss(initial, dataset)] * config.epochs


def test_training_on_context_windows_matches_stacked_matrix(monkeypatch):
    real_as_float = network._as_float
    seen = []

    def checked_as_float(inputs):
        # Every array train converts must already be gathered rows, never the view.
        assert type(inputs) is np.ndarray
        seen.append(len(inputs))
        return real_as_float(inputs)

    monkeypatch.setattr(network, "_as_float", checked_as_float)
    rng = np.random.default_rng(8)
    utterances = [(rng.standard_normal((n, 4)), k) for n, k in ((30, 30), (1, 1), (25, 12))]
    view = context_windows(utterances, left=1, right=2)
    stacked = view[:]
    y = {"y": rng.integers(0, 3, len(view))}
    arch = NetworkArch(input_dim=16, hidden_layers=(8,), output_heads=(("y", 3),))
    config = DnnConfig(learning_rate=0.2, epochs=2, minibatch_size=8, init_seed=1, shuffle_seed=6)
    p1, t1 = train(LabeledDataset(inputs=view, labels=y), arch, config)
    assert sum(seen[1:]) >= config.epochs * len(view)  # every training row was checked
    p2, t2 = train(LabeledDataset(inputs=stacked, labels=y), arch, config)
    assert t1 == t2
    for a, b in zip(p1.weights + p1.head_weights, p2.weights + p2.head_weights):
        np.testing.assert_array_equal(a, b)


def test_training_validates_inputs():
    arch = NetworkArch(input_dim=2, hidden_layers=(4,), output_heads=(("y", 2),))
    with pytest.raises(DataError):
        train(LabeledDataset(inputs=np.zeros((0, 2)), labels={"y": np.zeros(0, dtype=int)}), arch, DnnConfig())
    with pytest.raises(DataError):
        train(
            LabeledDataset(inputs=np.zeros((4, 2)), labels={"z": np.zeros(4, dtype=int)}),
            arch,
            DnnConfig(),
        )
    with pytest.raises(DataError):
        LabeledDataset(inputs=np.zeros((3, 2)), labels={"y": np.zeros(2, dtype=int)})


# --- deep feature extraction ---


def test_extract_zero_params_gives_half():
    arch = NetworkArch(input_dim=3, hidden_layers=(5, 5), output_heads=(("y", 2),))
    out = extract_deep_features(zero_params(arch), np.ones((4, 3)), "L2")
    np.testing.assert_allclose(out, 0.5, atol=0)


def test_extract_last_layer_matches_forward():
    arch = NetworkArch(input_dim=3, hidden_layers=(4, 4, 4), output_heads=(("y", 2),))
    params = init_network(arch, seed=9)
    x = np.random.default_rng(10).standard_normal((6, 3))
    np.testing.assert_array_equal(
        extract_deep_features(params, x, "L3"), forward(params, x).hidden[-1]
    )
    l1 = extract_deep_features(params, x, "L1")
    np.testing.assert_array_equal(l1, forward(params, x).hidden[0])


def test_extract_values_in_open_unit_interval():
    arch = NetworkArch(input_dim=2, hidden_layers=(7,), output_heads=(("y", 2),))
    params = init_network(arch, seed=13)
    out = extract_deep_features(params, np.random.default_rng(1).standard_normal((20, 2)), "L1")
    assert np.all((out > 0) & (out < 1))


def test_extract_unknown_layer():
    arch = NetworkArch(input_dim=2, hidden_layers=(3,), output_heads=(("y", 2),))
    with pytest.raises(DataError, match="no hidden layer 'L2'"):
        extract_deep_features(init_network(arch, 0), np.zeros((1, 2)), "L2")


# --- dtype of the compute path; float64 results against reference copies of the plain loops ---


def reference_sigmoid(z):
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.divide(np.where(z >= 0, 1.0, e), d, out=d)


def reference_forward(params, input_batch):
    x = np.atleast_2d(np.asarray(input_batch, dtype=np.float64))
    hidden = []
    a = x
    for W, b in zip(params.weights, params.biases):
        a = reference_sigmoid(a @ W + b)
        hidden.append(a)
    log_posts = [
        network._log_softmax(a @ W + b)
        for W, b in zip(params.head_weights, params.head_biases)
    ]
    return network.ForwardPass(hidden=hidden, head_log_posteriors=log_posts)


def reference_backward(params, batch, task_weights):
    arch = params.arch
    x = np.atleast_2d(np.asarray(batch.inputs, dtype=np.float64))
    fp = reference_forward(params, x)
    m = x.shape[0]
    last = fp.hidden[-1] if fp.hidden else x

    g_head_w, g_head_b = [], []
    delta_into_hidden = np.zeros_like(last)
    for h, (name, _) in enumerate(arch.output_heads):
        y = batch.labels[name]
        post = np.exp(fp.head_log_posteriors[h])
        post[np.arange(m), y] -= 1.0
        delta = post * (task_weights[h] / m)
        g_head_w.append(last.T @ delta)
        g_head_b.append(delta.sum(axis=0))
        delta_into_hidden += delta @ params.head_weights[h].T

    g_w = [None] * len(params.weights)
    g_b = [None] * len(params.biases)
    delta = delta_into_hidden
    for layer in range(len(params.weights) - 1, -1, -1):
        a = fp.hidden[layer]
        delta = delta * a * (1.0 - a)
        below = fp.hidden[layer - 1] if layer > 0 else x
        g_w[layer] = below.T @ delta
        g_b[layer] = delta.sum(axis=0)
        delta = delta @ params.weights[layer].T
    return Gradients(g_w, g_b, g_head_w, g_head_b)


def reference_train(dataset, arch, config, task_weights):
    params = init_network(arch, config.init_seed)
    label_order = [dataset.labels[name] for name, _ in arch.output_heads]
    n, step = dataset.num_rows, config.minibatch_size
    picked = [np.empty(n) for _ in label_order]
    trace = []
    rng = np.random.default_rng(config.shuffle_seed)
    lr = config.learning_rate
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, step):
            sel = order[start : start + step]
            batch = LabeledDataset(
                inputs=dataset.inputs[sel],
                labels={name: vec[sel] for name, vec in dataset.labels.items()},
            )
            # each row's log posterior of its true class, before this minibatch's update
            fp = reference_forward(params, batch.inputs)
            for vec, y, log_post in zip(picked, label_order, fp.head_log_posteriors):
                vec[sel] = log_post[np.arange(len(sel)), y[sel]]
            grads = reference_backward(params, batch, task_weights)
            for W, g in zip(params.weights, grads.weights):
                W -= lr * g
            for b, g in zip(params.biases, grads.biases):
                b -= lr * g
            for W, g in zip(params.head_weights, grads.head_weights):
                W -= lr * g
            for b, g in zip(params.head_biases, grads.head_biases):
                b -= lr * g
        total = 0.0
        for vec, w in zip(picked, task_weights):
            total += w * float(-np.mean(vec))
        trace.append(total)
    return params, trace


def all_arrays(obj):
    return obj.weights + obj.biases + obj.head_weights + obj.head_biases


def test_float64_gradients_equal_previous_backward():
    arch = NetworkArch(input_dim=7, hidden_layers=(9, 6, 5), output_heads=(("a", 4), ("b", 3)))
    params = init_network(arch, seed=41)
    rng = np.random.default_rng(42)
    for b in params.biases + params.head_biases:
        b[:] = rng.normal(0.0, 0.5, b.shape)
    batch = LabeledDataset(
        inputs=rng.standard_normal((33, 7)),
        labels={"a": rng.integers(0, 4, 33), "b": rng.integers(0, 3, 33)},
    )
    got = analytic_gradients(params, batch)
    want = reference_backward(params, batch, (0.5, 0.5))
    for g, w in zip(all_arrays(got), all_arrays(want)):
        assert g.dtype == np.float64
        np.testing.assert_array_equal(g, w)


def test_float64_training_equals_previous_trainer():
    rng = np.random.default_rng(43)
    utterances = [(rng.standard_normal((n, 4)), k) for n, k in ((40, 40), (3, 3), (31, 20))]
    view = context_windows(utterances, left=2, right=1)
    labels = {"a": rng.integers(0, 5, len(view)), "b": rng.integers(0, 2, len(view))}
    arch = NetworkArch(input_dim=16, hidden_layers=(12, 8), output_heads=(("a", 5), ("b", 2)))
    config = DnnConfig(learning_rate=0.3, epochs=3, minibatch_size=10, init_seed=4, shuffle_seed=5)
    dataset = LabeledDataset(inputs=view, labels=labels)
    params, trace = train(dataset, arch, config)
    want_params, want_trace = reference_train(dataset, arch, config, (0.5, 0.5))
    assert trace == want_trace
    for got, want in zip(all_arrays(params), all_arrays(want_params)):
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)


def test_float32_training_stays_float32_and_is_deterministic(monkeypatch):
    real_forward, real_backprop = network.forward, network._backprop
    seen = []

    def checked_forward(params, batch):
        fp = real_forward(params, batch)
        seen.extend(fp.hidden + fp.head_log_posteriors)
        return fp

    def checked_backprop(params, x, fp, labels):
        for p, g in real_backprop(params, x, fp, labels):
            seen.extend((p, g))
            yield p, g

    monkeypatch.setattr(network, "forward", checked_forward)
    monkeypatch.setattr(network, "_backprop", checked_backprop)
    rng = np.random.default_rng(44)
    frames = [(rng.standard_normal((n, 5)).astype(np.float32), n) for n in (30, 17, 9)]
    view = context_windows(frames, left=1, right=1)
    labels = {"a": rng.integers(0, 3, len(view)), "b": rng.integers(0, 4, len(view))}
    arch = NetworkArch(input_dim=15, hidden_layers=(16, 8), output_heads=(("a", 3), ("b", 4)))
    config = DnnConfig(learning_rate=0.2, epochs=2, minibatch_size=8, init_seed=6, shuffle_seed=7)
    dataset = LabeledDataset(inputs=view, labels=labels)
    p1, t1 = train(dataset, arch, config)
    assert seen and {a.dtype for a in seen} == {np.dtype(np.float32)}
    assert {a.dtype for a in all_arrays(p1)} == {np.dtype(np.float32)}
    p2, t2 = train(dataset, arch, config)
    assert t1 == t2 and t1[-1] < t1[0]
    for a, b in zip(all_arrays(p1), all_arrays(p2)):
        np.testing.assert_array_equal(a, b)


def test_float32_extraction_matches_float64_on_paper_architecture():
    arch = NetworkArch(input_dim=627, output_heads=(("tcl", 10),))
    params = init_network(arch, seed=45)
    x = np.random.default_rng(46).standard_normal((300, 627))
    want = extract_deep_features(params, x, "L2")
    single = init_network(arch, seed=45, dtype=np.float32)
    got = extract_deep_features(single, x.astype(np.float32), "L2")
    assert want.dtype == np.float64 and got.dtype == np.float32
    assert np.max(np.abs(got - want)) <= 1e-4


def test_init_network_in_float32_equals_the_float64_draw_cast():
    arch = NetworkArch(input_dim=30, hidden_layers=(17, 9), output_heads=(("y", 4), ("z", 3)))
    double = init_network(arch, seed=47)
    single = init_network(arch, seed=47, dtype=np.float32)
    assert single.arch == arch and single.rng_seed == 47
    for a, b in zip(all_arrays(single), all_arrays(double), strict=True):
        assert a.dtype == np.float32 and b.dtype == np.float64
        assert np.array_equal(a.view(np.uint32), b.astype(np.float32).view(np.uint32))


def test_float32_training_holds_one_weight_gradient_at_a_time():
    arch = NetworkArch(input_dim=64, hidden_layers=(128,) * 6, output_heads=(("a", 10), ("b", 7)))
    rng = np.random.default_rng(48)
    n, minibatch = 200, 16
    x = rng.standard_normal((n, 64)).astype(np.float32)
    dataset = LabeledDataset(inputs=x, labels={"a": rng.integers(0, 10, n), "b": rng.integers(0, 7, n)})
    config = DnnConfig(learning_rate=0.1, epochs=2, minibatch_size=minibatch, init_seed=1, shuffle_seed=2)
    tracemalloc.start()
    try:
        params, _ = train(dataset, arch, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = all_arrays(params)
    assert {a.dtype for a in arrays} == {np.dtype(np.float32)}
    widths = (arch.input_dim, *arch.hidden_layers, *(k for _, k in arch.output_heads))
    activations = minibatch * sum(widths) * 4
    # no float64 copy of the network, and no gradient of every layer at once
    bound = sum(a.nbytes for a in arrays) + max(a.nbytes for a in arrays) + activations + 64 * 1024
    assert peak < bound
