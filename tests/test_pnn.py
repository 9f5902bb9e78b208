import numpy as np
import pytest

from orchestra.autodiff import Tensor
from orchestra.envs import LevelSpec, N_ACTIONS, OBS_DIM, VecEnv
from orchestra.errors import ConfigError, ContractError
from orchestra.nn import Adam, Mlp
from orchestra.pnn import ColumnSource, PnnStack, pnn_update
from orchestra.ppo import GaeOutput, PpoConfig, collect_rollout, compute_gae


def make_stack(hidden=8, lr=1e-3, seed=0, obs_dim=OBS_DIM):
    return PnnStack(obs_dim, N_ACTIONS, hidden, lr, np.random.default_rng(seed))


def test_adapter_counting_and_duplicate_rejection():
    stack = make_stack()
    stack.add_column("a")
    assert len(stack.adapters) == 0 and 0 not in stack.adapter_opts
    stack.add_column("b")
    stack.add_column("c")
    # column 2 links to sources 0 and 1, separately for actor and critic
    assert len(stack.adapters) == (1 + 2) * 2
    assert set(stack.adapter_opts) == {1, 2}
    with pytest.raises(ConfigError):
        stack.add_column("b")
    with pytest.raises(ConfigError):
        stack.forward_with_adapters("zzz", np.zeros(OBS_DIM))


def test_zero_adapters_match_standalone_column():
    stack = make_stack()
    for t in ("a", "b", "c"):
        stack.add_column(t)
    x = np.random.default_rng(1).random((5, OBS_DIM))
    for i, t in enumerate(("a", "b", "c")):
        logits, values = stack.forward_with_adapters(t, x)
        assert np.array_equal(logits, stack.columns[i].actor.forward_np(x))
        assert np.array_equal(values, stack.columns[i].critic.forward_np(x)[:, 0])


def test_two_column_forward_matches_hand_rolled_oracle():
    # single hidden layer per column keeps the oracle a one-liner:
    # out = W2 @ (tanh(W1 x + b1) + A @ relu(src_hidden) + c) + b2
    rng = np.random.default_rng(2)
    stack = make_stack(hidden=6, obs_dim=5)
    # shrink to one hidden layer for the hand computation
    for t in ("a", "b"):
        stack.add_column(t)
        col = stack.columns[-1]
        col.actor = Mlp([5, 6, N_ACTIONS], rng)
        col.critic = Mlp([5, 6, 1], rng)
    for adp in stack.adapters.values():
        adp.weight.data = rng.standard_normal(adp.weight.data.shape) * 0.3
        adp.bias.data = rng.standard_normal(adp.bias.data.shape) * 0.3

    x = rng.random((4, 5))
    a0, a1 = stack.columns[0].actor, stack.columns[1].actor
    h_src = np.tanh(x @ a0.weights[0].data + a0.biases[0].data)
    h_dst = np.tanh(x @ a1.weights[0].data + a1.biases[0].data)
    adp = stack.adapters[("actor", 0, 1)]
    h_aug = h_dst + np.maximum(h_src, 0.0) @ adp.weight.data + adp.bias.data
    want = h_aug @ a1.weights[-1].data + a1.biases[-1].data
    got, _ = stack.forward_with_adapters("b", x)
    assert np.abs(got - want).max() < 1e-12


def test_a_column_net_takes_an_array_or_a_tensor_off_the_tape():
    stack = make_stack()
    stack.add_column("a")
    stack.add_column("b")
    rng = np.random.default_rng(4)
    for adp in stack.adapters.values():
        adp.weight.data = rng.standard_normal(adp.weight.data.shape) * 0.3
    x = rng.random((3, OBS_DIM))
    net = stack.net("b", "actor")
    want = net.forward_np(x)
    assert np.array_equal(net.forward(x).data, want)
    assert np.array_equal(net.forward(Tensor(x)).data, want)
    with pytest.raises(ContractError):
        net.forward(Tensor(x, requires_grad=True))


def _rollout_for(stack, task, cfg, env_seed=7, rng_seed=11):
    vec = VecEnv([LevelSpec("runner", env_seed)], cfg.num_envs, max_ep_length=40)
    src = ColumnSource(stack, task)
    critic = stack.columns[stack._column(task)].critic
    return collect_rollout(src, vec, critic.forward_np, cfg,
                           np.random.default_rng(rng_seed))


def tiny_cfg():
    return PpoConfig(num_steps=8, num_envs=2, num_minibatches=2, update_epochs=2)


def test_single_column_update_equals_plain_ppo():
    cfg = tiny_cfg()
    stack = make_stack()
    stack.add_column("a")
    buffer = _rollout_for(stack, "a", cfg)
    gae = compute_gae(buffer, cfg.gamma, cfg.gae_lambda, norm_adv=True)

    col = stack.columns[0]
    actor2, critic2 = col.actor.clone(), col.critic.clone()
    from orchestra.ppo import ppo_update
    pnn_update(stack, "a", buffer, gae, cfg, np.random.default_rng(3))
    ppo_update(buffer, gae, actor2, critic2, cfg,
               Adam(actor2.parameters, stack.learning_rate),
               Adam(critic2.parameters, stack.learning_rate),
               np.random.default_rng(3))
    for a, b in zip(col.actor.get_arrays(), actor2.get_arrays()):
        assert np.array_equal(a, b)
    for a, b in zip(col.critic.get_arrays(), critic2.get_arrays()):
        assert np.array_equal(a, b)


def test_training_second_column_freezes_the_first():
    cfg = tiny_cfg()
    stack = make_stack()
    stack.add_column("a")
    stack.add_column("b")
    before_a = stack.columns[0].actor.get_arrays() + stack.columns[0].critic.get_arrays()
    before_b = stack.columns[1].actor.get_arrays()

    buffer = _rollout_for(stack, "b", cfg)
    gae = compute_gae(buffer, cfg.gamma, cfg.gae_lambda, norm_adv=True)
    pnn_update(stack, "b", buffer, gae, cfg, np.random.default_rng(5))

    after_a = stack.columns[0].actor.get_arrays() + stack.columns[0].critic.get_arrays()
    for x, y in zip(before_a, after_a):
        assert np.array_equal(x, y)  # bit-exact: column 1 never entered the graph
    assert any(not np.array_equal(x, y)
               for x, y in zip(before_b, stack.columns[1].actor.get_arrays()))


def test_adapters_receive_gradient_despite_zero_init():
    cfg = tiny_cfg()
    stack = make_stack()
    stack.add_column("a")
    stack.add_column("b")
    buffer = _rollout_for(stack, "b", cfg)
    gae = compute_gae(buffer, cfg.gamma, cfg.gae_lambda, norm_adv=True)
    pnn_update(stack, "b", buffer, gae, cfg, np.random.default_rng(5))
    adp = stack.adapters[("actor", 0, 1)]
    assert np.abs(adp.weight.data).max() > 0.0
    assert np.abs(adp.bias.data).max() > 0.0


def test_standalone_forward_is_adapter_free():
    stack = make_stack()
    stack.add_column("a")
    stack.add_column("b")
    x = np.random.default_rng(8).random((3, OBS_DIM))
    plain = stack.columns[1].actor.forward_np(x)
    for adp in stack.adapters.values():
        adp.weight.data += 0.5
        adp.bias.data -= 0.25
    assert np.array_equal(stack.columns[1].actor.forward_np(x), plain)
    assert not np.array_equal(stack.forward_with_adapters("b", x)[0], plain)


@pytest.mark.parametrize("task", ["a", "b"])
@pytest.mark.parametrize("net", ["actor", "critic"])
def test_a_non_finite_column_output_raises(task, net):
    stack = make_stack()
    stack.add_column("a")
    stack.add_column("b")
    getattr(stack.columns[stack._column(task)], net).biases[-1].data[0] = np.inf
    with pytest.raises(ContractError, match="non-finite"):
        stack.net(task, net).forward_np(np.zeros((2, OBS_DIM)))
