import numpy as np
import pytest

from orchestra.autodiff import Tensor, softmax_np
from orchestra.errors import ContractError, DimensionError
from orchestra.nn import (Adam, Mlp, load_mlp_arrays, load_params,
                          mlp_named_arrays, sample_categorical_batch,
                          save_params)


def sample_categorical(probs, rng) -> int:
    """One draw from a single probability vector via the batched sampler."""
    return int(sample_categorical_batch(np.asarray(probs)[None, :], rng)[0])


def test_zero_weights_zero_biases_map_to_zero(rng):
    net = Mlp([4, 3, 2], rng)
    net.set_arrays([np.zeros_like(p.data) for p in net.parameters])
    out = net.forward_np(rng.normal(size=(5, 4)))
    assert np.array_equal(out, np.zeros((5, 2)))


def test_identity_single_layer_is_identity(rng):
    net = Mlp([3, 3], rng)  # single layer: no hidden activation applied
    net.set_arrays([np.eye(3), np.zeros(3)])
    v = rng.normal(size=(1, 3))
    assert np.allclose(net.forward_np(v), v, atol=0)


def test_two_layer_forward_matches_hand_rolled_oracle(rng):
    net = Mlp([5, 4, 3], rng)
    x = rng.normal(size=(6, 5))
    w0, b0 = net.weights[0].data, net.biases[0].data
    w1, b1 = net.weights[1].data, net.biases[1].data
    oracle = np.tanh(x @ w0 + b0) @ w1 + b1  # straight-line recomputation
    assert np.abs(net.forward_np(x) - oracle).max() < 1e-12


def test_shape_mismatch_names_offending_layer(rng):
    net = Mlp([5, 4, 3], rng)
    with pytest.raises(DimensionError, match="layer 0"):
        net.forward_np(rng.normal(size=(2, 7)))


def test_softmax_uniform_and_direct_values():
    assert np.allclose(softmax_np(np.zeros(3)), np.full(3, 1 / 3), atol=1e-12)
    probs = softmax_np(np.array([1.0, 2.0, 3.0]))
    e = np.exp([1.0, 2.0, 3.0])
    assert np.abs(probs - e / e.sum()).max() < 1e-12
    with pytest.raises(ContractError):
        softmax_np(np.array([np.nan, 0.0]))


def test_sample_categorical_one_hot_and_determinism():
    one_hot = np.array([0.0, 0.0, 1.0, 0.0])
    rng = np.random.default_rng(7)
    assert all(sample_categorical(one_hot, rng) == 2 for _ in range(20))
    seq1 = [sample_categorical(np.full(4, 0.25), np.random.default_rng(3))
            for _ in range(1)]
    r1, r2 = np.random.default_rng(9), np.random.default_rng(9)
    s1 = [sample_categorical(np.full(4, 0.25), r1) for _ in range(50)]
    s2 = [sample_categorical(np.full(4, 0.25), r2) for _ in range(50)]
    assert s1 == s2
    with pytest.raises(ContractError):
        sample_categorical(np.zeros(3), rng)


def test_sample_categorical_uniform_frequencies():
    rng = np.random.default_rng(11)
    draws = sample_categorical_batch(np.tile(np.full(4, 0.25), (100_000, 1)), rng)
    freqs = np.bincount(draws, minlength=4) / 100_000
    assert np.abs(freqs - 0.25).max() < 0.01


def test_adam_zero_gradient_leaves_parameters_unchanged(rng):
    net = Mlp([3, 2], rng)
    before = net.get_arrays()
    opt = Adam(net.parameters)
    for p in net.parameters:
        p.grad = np.zeros_like(p.data)
    opt.step()
    for b, a in zip(before, net.get_arrays()):
        assert np.array_equal(b, a)


def test_adam_descent_direction(rng):
    p = Tensor(np.zeros(3), requires_grad=True)
    opt = Adam([p], learning_rate=0.01)
    g = np.array([1.0, -2.0, 0.5])
    for _ in range(50):
        p.grad = g.copy()
        opt.step()
    assert (np.sign(p.data) == -np.sign(g)).all()


def test_adam_single_step_matches_formula(rng):
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    lr, b1, b2, eps = 0.0005, 0.9, 0.999, 1e-8
    opt = Adam([p], learning_rate=lr, beta1=b1, beta2=b2, epsilon=eps)
    g = np.array([0.3, -0.7])
    p.grad = g.copy()
    opt.step()
    m_hat = (1 - b1) * g / (1 - b1)
    v_hat = (1 - b2) * g * g / (1 - b2)
    expected = np.array([1.0, 2.0]) - lr * m_hat / (np.sqrt(v_hat) + eps)
    assert np.abs(p.data - expected).max() < 1e-12


def test_parameter_blob_round_trip(tmp_path, rng):
    net = Mlp([6, 5, 4], rng)
    save_params(tmp_path / "net.blob", mlp_named_arrays(net))
    loaded = load_params(tmp_path / "net.blob")
    twin = Mlp([6, 5, 4], np.random.default_rng(999))
    load_mlp_arrays(twin, loaded)
    x = rng.normal(size=(2, 6))
    assert np.array_equal(net.forward_np(x), twin.forward_np(x))


# --- sparse first layer ---------------------------------------------------------


def _plain_forward(net, x):
    """Every layer as the dense product ``h @ W + b``."""
    h = x
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w.data + b.data
        if i < len(net.weights) - 1:
            h = np.tanh(h)
    return h


def _binary_batch(rng, rows, width=60, density=0.05):
    """Binary rows like MiniProc observations; row 0 is all zero."""
    x = (rng.random((rows, width)) < density).astype(np.float64)
    x[0] = 0.0
    return x


@pytest.mark.parametrize("rows", [1, 16, 512])
def test_forward_np_matches_forward_on_binary_batches(rows):
    rng = np.random.default_rng(rows)
    net = Mlp([60, 16, 16, 5], rng)
    empty = np.zeros((rows, 60))
    for x in (_binary_batch(rng, rows), empty):
        out, hidden = net.forward_np(x, return_hidden=True)
        g_out, g_hidden = net.forward(Tensor(x), return_hidden=True)
        assert np.array_equal(out, g_out.data)
        assert np.array_equal(hidden, g_hidden.data)
        assert np.array_equal(out, net.forward(x).data)
    # a batch that sets no cell multiplies no column: its output is the biases'
    assert np.array_equal(net.forward_np(empty), _plain_forward(net, empty))


def test_dense_input_gives_the_plain_product(rng):
    net = Mlp([5, 4, 3], rng)
    x = rng.normal(size=(6, 5))
    assert np.array_equal(net.forward_np(x), _plain_forward(net, x))
    assert np.array_equal(net.forward(Tensor(x)).data, _plain_forward(net, x))
