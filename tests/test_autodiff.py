import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orchestra import autodiff as ad
from orchestra.autodiff import Tensor
from orchestra.errors import ContractError
from orchestra.hop import joined_logits
from orchestra.nn import Mlp
from orchestra.ppo import PpoConfig, policy_loss, value_loss

from conftest import fd_gradient, max_rel_error, tap


def test_backward_sum_gives_ones():
    # backward seeds the loss with ones; a node that hands its gradient on
    # broadcast, as a sum does, leaves ones in its leaf
    p = Tensor(np.arange(6.0).reshape(2, 3))
    ad.backward(ad.Node(p.data.sum(), lambda g: p._accumulate(np.broadcast_to(g, p.data.shape))))
    assert np.array_equal(p.grad, np.ones((2, 3)))


def test_backward_requires_scalar_loss(rng):
    net = Mlp([3, 4, 2], rng)
    with pytest.raises(ContractError):
        ad.backward(net.forward(rng.normal(size=(2, 3))))


def test_backward_from_a_node_given_its_gradient(rng):
    # backward from a network's (B, A) output given G leaves the bits of a
    # backward from a scalar node whose backward sends G to that output
    net = Mlp([5, 6, 3], rng)
    twin = net.clone()
    x = rng.normal(size=(4, 5))
    grad = rng.normal(size=(4, 3))
    ad.backward(net.forward(x), grad)
    out = twin.forward(x)
    ad.backward(ad.Node((out.data * grad).sum(), lambda g: out.back(grad)))
    for p, q in zip(net.parameters, twin.parameters, strict=True):
        assert p.grad.tobytes() == q.grad.tobytes()
    with pytest.raises(ContractError, match="gradient shape"):
        ad.backward(net.forward(x), grad[:, :2])


def test_unused_parameter_gets_no_gradient(rng):
    used, unused = Mlp([3, 4, 1], rng), Mlp([3, 4, 1], rng)
    x = rng.normal(size=(5, 3))
    ad.backward(value_loss(used.forward(x), rng.normal(size=5), None, PpoConfig())[0])
    assert all(p.grad is None for p in unused.parameters)
    assert all(np.abs(p.grad).max() > 0.0 for p in used.parameters)


def test_linear_regression_gradients_match_finite_differences(rng):
    # the output layer's node under the value loss is a least-squares fit
    net = Mlp([2, 4, 1], rng)
    x = rng.normal(size=(5, 4))
    y = rng.normal(size=5)

    def loss():
        return value_loss(net.head(ad.Node(x, lambda g: None)), y, None, PpoConfig(vf_coef=1.0))[0]

    ad.backward(loss())
    head = [net.weights[-1], net.biases[-1]]
    for p, g in zip(head, fd_gradient(lambda: float(loss().data), head)):
        assert np.abs(g - p.grad).max() / np.abs(g).max() < 1e-4


def _ratio_shifts(rng, n):
    """Log-ratios at ±0.1 or ±0.4, give or take 0.02: inside or outside a
    clip range of 0.2, never near its bounds or at 0."""
    return rng.choice([-1.0, 1.0], n) * (rng.choice([0.1, 0.4], n) + rng.uniform(-0.02, 0.02, n))


# (clip_coef, ent_coef, clip_vloss, tie) per trial. At a tie the stored
# log-prob and value are the current ones: each ratio is 1, where both
# surrogate terms are equal and the gradient goes to the unclipped one, and
# the clipped value is the value.
BRANCHES = [(0.2, 0.01, False, False), (0.0, 0.01, False, False), (0.0, 0.01, False, True),
            (0.2, 0.0, False, False), (0.2, 0.01, True, False), (0.2, 0.01, True, True),
            (0.0, 0.0, True, False), (np.inf, 0.01, False, False), (0.2, 0.0, False, True),
            (0.1, 0.3, True, False)]


@pytest.mark.parametrize("trial", range(10))
def test_mlp_loss_gradients_match_finite_differences(trial):
    clip_coef, ent_coef, clip_vloss, tie = BRANCHES[trial]
    rng = np.random.default_rng(100 + trial)
    actor, critic = Mlp([6, 5, 4], rng), Mlp([6, 5, 1], rng)
    x = rng.normal(size=(8, 6))
    acts = rng.integers(0, 4, size=8)
    adv = rng.normal(size=8)
    logp = ad.log_softmax_np(actor.forward_np(x))[np.arange(8), acts]
    v = critic.forward_np(x)[:, 0]
    old_logp, old_v = (logp, v) if tie else (logp - _ratio_shifts(rng, 8), v - _ratio_shifts(rng, 8))
    ret = v + rng.normal(size=8)
    cfg = PpoConfig(clip_coef=clip_coef, ent_coef=ent_coef, clip_vloss=clip_vloss)

    def policy(c=cfg):
        return policy_loss(actor.forward(x), acts, old_logp, adv, c)[0]

    def value():
        return value_loss(critic.forward(x), ret, old_v, cfg)[0]

    ad.backward(policy())
    ad.backward(value())
    # at a tie with clip_coef 0 the surrogate has a kink; its gradient is the
    # unclipped term's, which is the gradient without clipping
    smooth = PpoConfig(clip_coef=np.inf, ent_coef=ent_coef) if tie else cfg
    for net, loss in ((actor, lambda: policy(smooth)), (critic, value)):
        numeric = fd_gradient(lambda: float(loss().data), net.parameters)
        assert max_rel_error([p.grad for p in net.parameters], numeric) < 1e-4


def _leaf_node(p):
    """A node over parameter ``p`` that accumulates its gradient into it."""
    return ad.Node(p.data, p._accumulate)


def test_minimum_clip_pick_and_index_add_gradients(rng):
    # min, clip, pick and the row scatter-add, through the policy loss over
    # routed logits: rows 1 (twice) and 3 take a snapshot's outputs
    logits = Tensor(rng.normal(size=(4, 3)))
    out = Tensor(rng.normal(size=(3, 3)))
    spread = np.zeros((4, 3))
    spread[[1, 1, 3], [0, 1, 2]] = rng.random(3) + 0.25
    const = rng.normal(size=(4, 3))
    acts = np.array([0, 2, 1, 0])
    adv = rng.normal(size=4)
    joined = logits.data + spread @ out.data + const
    old = ad.log_softmax_np(joined)[np.arange(4), acts] - _ratio_shifts(rng, 4)
    cfg = PpoConfig(clip_coef=0.2)

    def compute():
        return policy_loss(joined_logits(_leaf_node(logits), [(spread, _leaf_node(out))], const),
                           acts, old, adv, cfg)[0]

    ad.backward(compute())
    for leaf, g in zip((logits, out), fd_gradient(lambda: float(compute().data),
                                                    (logits, out), h=1e-6)):
        assert np.abs(leaf.grad - g).max() < 1e-6


def test_log_softmax_matches_direct_evaluation():
    logits = np.array([[1.0, 2.0, 3.0]])
    out = ad.log_softmax_np(logits)
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
    assert np.array_equal(a, net.forward(x).data)


def test_sparse_first_layer_gradient_equals_the_dense_product():
    rng = np.random.default_rng(7)
    net = Mlp([40, 8, 3], rng)
    x = (rng.random((64, 40)) < 0.1).astype(np.float64)
    x[:, [3, 17, 29]] = 0.0                      # cells the batch never sets
    out, seen = tap(net.forward(x))
    ad.backward(policy_loss(out, rng.integers(0, 3, size=64), rng.normal(size=64) - 1.1,
                            rng.normal(size=64), PpoConfig())[0])
    # the gradient g reaching the first layer's pre-activation, in numpy from
    # the gradient the loss sent to the output
    cols = np.flatnonzero(x.any(axis=0))
    w0, w1 = net.weights[0].data, net.weights[1].data
    a = np.tanh(x[:, cols] @ w0[cols] + net.biases[0].data)
    g = (seen[0] @ w1.T) * (1.0 - a * a)
    dense = x.T @ g
    assert not net.weights[0].grad[[3, 17, 29]].any()
    assert np.array_equal(net.weights[0].grad, dense)
