import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orchestra import autodiff as ad
from orchestra.autodiff import Tensor
from orchestra.errors import ContractError
from orchestra.nn import Mlp

from conftest import fd_gradient, max_rel_error


def test_backward_sum_gives_ones():
    p = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    ad.backward(p.sum())
    assert np.array_equal(p.grad, np.ones((2, 3)))


def test_backward_requires_scalar_loss():
    p = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        ad.backward(p + p)


def test_unused_parameter_gets_no_gradient():
    used = Tensor(np.ones(3), requires_grad=True)
    unused = Tensor(np.ones(3), requires_grad=True)
    ad.backward((used * 2.0).sum())
    assert unused.grad is None
    assert np.array_equal(used.grad, np.full(3, 2.0))


def test_linear_regression_gradients_match_finite_differences(rng):
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    x = rng.normal(size=(5, 4))
    y = rng.normal(size=(5, 3))

    def loss_np():
        return (((x @ w.data) - y) ** 2).mean()

    loss = (Tensor(x) @ w - Tensor(y)).square().mean()
    ad.backward(loss)
    g = np.zeros_like(w.data)
    h = 1e-5
    base = w.data.copy()
    for idx in np.ndindex(base.shape):
        w.data = base.copy(); w.data[idx] += h; lp = loss_np()
        w.data = base.copy(); w.data[idx] -= h; lm = loss_np()
        g[idx] = (lp - lm) / (2 * h)
    w.data = base
    assert np.abs(g - w.grad).max() / np.abs(g).max() < 1e-4


@pytest.mark.parametrize("trial", range(10))
def test_mlp_loss_gradients_match_finite_differences(trial):
    rng = np.random.default_rng(100 + trial)
    net = Mlp([6, 5, 4], rng)
    x = rng.normal(size=(3, 6))
    y = rng.normal(size=(3, 4))

    def run():
        return float(((net.forward_np(x) - y) ** 2).mean())

    loss = (net.forward(Tensor(x)) - Tensor(y)).square().mean()
    ad.backward(loss)
    numeric = fd_gradient(run, net)
    analytic = [p.grad for p in net.parameters]
    assert max_rel_error(analytic, numeric) < 1e-4


def test_minimum_clip_pick_and_index_add_gradients(rng):
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    idx = np.array([0, 2, 1, 0])
    rows = np.array([1, 1, 3])
    contrib = Tensor(rng.normal(size=(3, 3)), requires_grad=True)

    def compute():
        m = ad.minimum(a, b)
        c = ad.clip(m, -0.5, 0.5)
        s = ad.index_add(c, rows, contrib)
        return ad.pick(s, idx).sum()

    loss = compute()
    ad.backward(loss)
    for leaf in (a, b, contrib):
        base = leaf.data.copy()
        g = np.zeros_like(base)
        h = 1e-6
        for ix in np.ndindex(base.shape):
            leaf.data = base.copy(); leaf.data[ix] += h; lp = float(compute().data)
            leaf.data = base.copy(); leaf.data[ix] -= h; lm = float(compute().data)
            g[ix] = (lp - lm) / (2 * h)
        leaf.data = base
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(base)
        assert np.abs(analytic - g).max() < 1e-6


def test_log_softmax_matches_direct_evaluation():
    logits = np.array([[1.0, 2.0, 3.0]])
    out = ad.log_softmax(Tensor(logits)).data
    direct = np.log(np.exp(logits) / np.exp(logits).sum())
    assert np.abs(out - direct).max() < 1e-12


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
       st.floats(-100, 100))
@settings(max_examples=200, deadline=None)
def test_softmax_np_shift_invariance(logits, c):
    x = np.array(logits)
    p1 = ad.softmax_np(x)
    p2 = ad.softmax_np(x + c)
    assert abs(p1.sum() - 1.0) < 1e-9
    assert np.abs(p1 - p2).max() < 1e-9
    assert p1[np.argmax(p2)] >= p1.max() - 1e-9
    assert (p1 > 0).all()


def test_forward_deterministic(rng):
    net = Mlp([8, 4, 2], rng)
    x = rng.normal(size=(3, 8))
    a = net.forward_np(x)
    b = net.forward_np(x)
    assert np.array_equal(a, b)
    assert np.array_equal(a, net.forward(Tensor(x)).data)


def test_take_rows_gradient_matches_finite_differences(rng):
    a = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    rows = np.array([0, 2, 5])
    c = rng.normal(size=(3, 4))

    def compute():
        return (ad.take_rows(a, rows).tanh() * Tensor(c)).sum()

    assert np.array_equal(ad.take_rows(a, rows).data, a.data[rows])
    ad.backward(compute())
    base = a.data.copy()
    g = np.zeros_like(base)
    h = 1e-6
    for ix in np.ndindex(base.shape):
        a.data = base.copy(); a.data[ix] += h; lp = float(compute().data)
        a.data = base.copy(); a.data[ix] -= h; lm = float(compute().data)
        g[ix] = (lp - lm) / (2 * h)
    a.data = base
    assert np.abs(a.grad - g).max() < 1e-6
    assert not a.grad[[1, 3, 4]].any()


def test_sparse_first_layer_gradient_equals_the_dense_product():
    rng = np.random.default_rng(7)
    net = Mlp([40, 8, 3], rng)
    x = (rng.random((64, 40)) < 0.1).astype(np.float64)
    x[:, [3, 17, 29]] = 0.0                      # cells the batch never sets
    y = rng.normal(size=(64, 3))
    ad.backward((net.forward(Tensor(x)) - Tensor(y)).square().mean())
    # the gradient g reaching the first layer's pre-activation, from the same
    # graph with that pre-activation as a leaf
    cols = np.flatnonzero(x.any(axis=0))
    w0, w1 = net.weights[0].data, net.weights[1].data
    z = Tensor(x[:, cols] @ w0[cols] + net.biases[0].data, requires_grad=True)
    ad.backward((z.tanh() @ Tensor(w1) + Tensor(net.biases[1].data)
                 - Tensor(y)).square().mean())
    dense = x.T @ z.grad
    assert not net.weights[0].grad[[3, 17, 29]].any()
    assert np.array_equal(net.weights[0].grad, dense)
