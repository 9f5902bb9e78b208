import functools
import itertools
import multiprocessing
import operator
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import astuple

import numpy as np
import pytest

from orchestra import autodiff as ad
from orchestra import hop, ppo
from orchestra.envs import EnvInstance, LevelSpec, N_ACTIONS, OBS_DIM, VecEnv
from orchestra.errors import ContractError

# hand-verified optimal route through the (runner, 7) layout: reaches the
# goal in 12 steps for exactly +10 reward (no cues on this path)
RUNNER7_SCRIPT = [0, 0, 3, 3, 3, 0, 3, 0, 3, 3, 3, 3]
from orchestra.hop import masked_policy_update
from orchestra.nn import Adam, Mlp, clip_grad_norm
from orchestra.pnn import pnn_update
from orchestra.ppo import (EVAL_STEP_PENALTY, GaeOutput, LearnerSource,
                           PpoConfig, RolloutBuffer, collect_rollout,
                           compute_gae, evaluate_policy, play_episodes,
                           ppo_update, replay)


def tiny_cfg(**overrides) -> PpoConfig:
    base = dict(num_steps=16, num_envs=2, num_minibatches=2, update_epochs=2)
    base.update(overrides)
    return PpoConfig(**base)


def make_nets(seed=0):
    rng = np.random.default_rng(seed)
    actor = Mlp([OBS_DIM, 32, N_ACTIONS], rng)
    critic = Mlp([OBS_DIM, 32, 1], rng)
    return actor, critic


def fresh_vec(cfg, seeds=(1, 2)):
    return VecEnv([LevelSpec("runner", s) for s in seeds], cfg.num_envs,
                  max_ep_length=50)


def test_rollout_deterministic_and_sized():
    cfg = tiny_cfg()
    actor, critic = make_nets()
    buffers = []
    for _ in range(2):
        vec = fresh_vec(cfg)
        rng = np.random.default_rng(99)
        buffers.append(collect_rollout(LearnerSource(actor), vec, critic.forward_np, cfg, rng))
    a, b = buffers
    assert a.obs.shape == (cfg.num_steps, cfg.num_envs, OBS_DIM)
    assert a.num_steps * a.num_envs == cfg.batch_size
    for field in ("obs", "actions", "rewards", "dones", "logprobs", "values"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def _count_observations(monkeypatch) -> list:
    """Count every observation an EnvInstance builds from here on."""
    calls = []
    build = EnvInstance.observation

    def counted(self):
        calls.append(self)
        return build(self)

    monkeypatch.setattr(EnvInstance, "observation", counted)
    return calls


def test_a_rollout_builds_each_observation_once(monkeypatch):
    cfg = tiny_cfg(num_steps=30, num_envs=3)
    actor, critic = make_nets(3)
    calls = _count_observations(monkeypatch)
    vec = VecEnv([LevelSpec("runner", s) for s in (1, 2)], cfg.num_envs, max_ep_length=8)
    buffer = collect_rollout(LearnerSource(actor), vec, critic.forward_np, cfg,
                             np.random.default_rng(5))
    ends = int(buffer.dones.sum())
    assert ends >= cfg.num_envs * (cfg.num_steps // 8)
    # the first observations and one per env per step; a terminal state
    # nobody reads is not built
    assert len(calls) == cfg.num_envs + cfg.num_steps * cfg.num_envs


def test_lockstep_episodes_build_each_observation_once(monkeypatch):
    specs = [LevelSpec("dodger", s) for s in (1, 2, 3, 1)]
    calls = _count_observations(monkeypatch)
    episodes = play_episodes(LearnerSource(make_nets(5)[0]), specs, 30,
                             np.random.default_rng(8))
    # each episode's first observation and one after every step but its last
    assert len(calls) == sum(ep.steps for ep in episodes)


def test_rollout_rewards_match_replay_oracle():
    cfg = tiny_cfg(num_steps=40)
    actor, critic = make_nets(3)
    vec = fresh_vec(cfg)
    buffer = collect_rollout(LearnerSource(actor), vec, critic.forward_np, cfg,
                             np.random.default_rng(5))
    # replay the stored actions through fresh envs with the same rotation
    replay = fresh_vec(cfg)
    for t in range(cfg.num_steps):
        results = replay.vec_step(buffer.actions[t])
        assert np.array_equal([r.reward for r in results], buffer.rewards[t])
        assert np.array_equal([r.done for r in results], buffer.dones[t])


def _manual_buffer(rewards, dones, values, bootstrap):
    T = len(rewards)
    return RolloutBuffer(
        obs=np.zeros((T, 1, 2)), actions=np.zeros((T, 1), dtype=np.int64),
        rewards=np.asarray(rewards, dtype=float).reshape(T, 1),
        dones=np.asarray(dones, dtype=bool).reshape(T, 1),
        logprobs=np.zeros((T, 1)),
        values=np.asarray(values, dtype=float).reshape(T, 1),
        bootstrap=np.array([bootstrap], dtype=float),
        aux=[[None]] * T,
    )


def test_gae_single_terminal_step():
    buf = _manual_buffer([2.0], [True], [0.5], bootstrap=9.0)
    gae = compute_gae(buf, gamma=0.9, gae_lambda=0.95)
    assert np.isclose(gae.advantages[0, 0], 2.0 - 0.5)


def test_gae_lambda_zero_is_one_step_td():
    rewards = [1.0, 0.0, 2.0, 0.5]
    dones = [False, False, True, False]
    values = [0.3, -0.2, 0.6, 0.1]
    buf = _manual_buffer(rewards, dones, values, bootstrap=0.4)
    gamma = 0.99
    gae = compute_gae(buf, gamma, gae_lambda=0.0)
    next_values = [-0.2, 0.6, 0.4, 0.4]  # bootstrap after terminal / at the end
    for t in range(4):
        nonterminal = 0.0 if dones[t] else 1.0
        td = rewards[t] + gamma * next_values[t] * nonterminal - values[t]
        assert np.isclose(gae.advantages[t, 0], td)


def test_gae_monte_carlo_limit_hand_fixture():
    # lambda=1, gamma=1, one episode of 5 steps: advantage = MC return - value
    rewards = [1.0, 0.0, 2.0, 0.0, 3.0]
    dones = [False, False, False, False, True]
    values = [0.5, 0.1, -0.3, 0.2, 0.9]
    buf = _manual_buffer(rewards, dones, values, bootstrap=123.0)
    gae = compute_gae(buf, gamma=1.0, gae_lambda=1.0)
    mc = np.cumsum(rewards[::-1])[::-1]  # hand-computed returns-to-go
    for t in range(5):
        assert np.isclose(gae.advantages[t, 0], mc[t] - values[t])
        assert np.isclose(gae.returns[t, 0], mc[t])


def _collected(cfg, seed=0):
    actor, critic = make_nets(seed)
    vec = fresh_vec(cfg)
    buffer = collect_rollout(LearnerSource(actor), vec, critic.forward_np, cfg,
                             np.random.default_rng(17))
    return actor, critic, buffer


def test_update_with_ratio_one_reports_plain_surrogate_and_moves_params():
    cfg = tiny_cfg(update_epochs=1, num_minibatches=1)
    actor, critic, buffer = _collected(cfg)
    gae = compute_gae(buffer, cfg.gamma, cfg.gae_lambda, norm_adv=True)
    before = actor.get_arrays()
    # an optimizer whose parameters are off the graph, with stale gradients
    idle = Mlp([OBS_DIM, 4, N_ACTIONS], np.random.default_rng(2))
    idle_before = idle.get_arrays()
    for p in idle.parameters:
        p.grad = np.ones_like(p.data)
    idle_opt = Adam(idle.parameters, cfg.learning_rate)
    stats = ppo_update(buffer, gae, actor, critic, cfg,
                       Adam(actor.parameters, cfg.learning_rate),
                       Adam(critic.parameters, cfg.learning_rate),
                       np.random.default_rng(1), extra_opts=[idle_opt])
    # ratio == 1 on the first pass: surrogate reduces to -mean(advantages)
    assert np.isclose(stats.policy_loss, -gae.advantages.mean(), atol=1e-12)
    assert any(not np.array_equal(b, a)
               for b, a in zip(before, actor.get_arrays()))
    # the update zeroed its gradients and did not step it
    assert all(p.grad is None for p in idle.parameters)
    assert idle_opt.step_count == 0
    assert all(np.array_equal(b, a) for b, a in zip(idle_before, idle.get_arrays()))


def test_zero_advantages_give_zero_actor_gradient():
    cfg = tiny_cfg(update_epochs=1, num_minibatches=1, ent_coef=0.0)
    actor, critic, buffer = _collected(cfg)
    gae = compute_gae(buffer, cfg.gamma, cfg.gae_lambda)
    gae = GaeOutput(np.zeros_like(gae.advantages), gae.returns)
    before = actor.get_arrays()
    ppo_update(buffer, gae, actor, critic, cfg,
               Adam(actor.parameters, 0.0),  # lr 0: inspect grads via movement
               Adam(critic.parameters, cfg.learning_rate),
               np.random.default_rng(1))
    for p in actor.parameters:
        assert p.grad is None or np.abs(p.grad).max() == 0.0
    assert all(np.array_equal(b, a) for b, a in zip(before, actor.get_arrays()))


def test_clipped_branch_gradient_matches_hand_computation():
    # one-sample batch with ratio pushed to 1.5 and positive advantage:
    # min selects the clipped branch (constant 1.2 * A), so the policy term
    # contributes zero gradient.
    cfg = tiny_cfg(num_steps=1, num_envs=1, num_minibatches=1,
                   update_epochs=1, ent_coef=0.0, vf_coef=0.0)
    actor, critic = make_nets(1)
    obs = np.random.default_rng(2).random((1, 1, OBS_DIM))
    logits = actor.forward_np(obs[0])
    logp = ad.log_softmax_np(logits)[0]
    action = int(np.argmax(logp))
    # the update refuses a first minibatch this far off the acting policy, so
    # the policy half runs by hand
    loss, _ = ppo.policy_loss(actor.forward(obs[0]), np.array([action]),
                              np.array([logp[action] - np.log(1.5)]),  # forces ratio 1.5
                              np.ones(1), cfg)
    ad.backward(loss)
    for p in actor.parameters:
        assert p.grad is None or np.abs(p.grad).max() < 1e-15


@pytest.mark.parametrize("target_offset, unclipped_wins", [(-0.5, True), (1.0, False)])
def test_clipped_value_loss_takes_the_larger_error(target_offset, unclipped_wins):
    # the stored value sits 0.5 below the critic's v, so clip_coef 0.2 clips
    # v to v_old + 0.2. The loss is the larger of the two squared errors:
    # with target v - 0.5 that is the unclipped (0.25 against 0.04), whose
    # gradient in v is vf_coef * (v - R); with target v + 1 it is the
    # clipped (1.69 against 1), which is constant in v.
    cfg = tiny_cfg(num_steps=1, num_envs=1, num_minibatches=1, update_epochs=1,
                   ent_coef=0.0, clip_vloss=True, max_grad_norm=np.inf)
    actor, critic = make_nets(4)
    obs = np.random.default_rng(3).random((1, 1, OBS_DIM))
    v = critic.forward_np(obs[0])[0, 0]
    target = v + target_offset
    buffer = RolloutBuffer(
        obs=obs, actions=np.zeros((1, 1), dtype=np.int64),
        rewards=np.zeros((1, 1)), dones=np.zeros((1, 1), dtype=bool),
        logprobs=ad.log_softmax_np(actor.forward_np(obs[0]))[:, :1],
        values=np.array([[v - 0.5]]), bootstrap=np.zeros(1), aux=[[None]],
    )
    gae = GaeOutput(np.zeros((1, 1)), np.array([[target]]))
    stats = ppo_update(buffer, gae, actor, critic, cfg,
                       Adam(actor.parameters, 0.0), Adam(critic.parameters, 0.0),
                       np.random.default_rng(1))
    err = (v - target) ** 2 if unclipped_wins else (v - 0.3 - target) ** 2
    assert np.isclose(stats.value_loss, 0.5 * err, rtol=0, atol=1e-12)
    out_bias_grad = critic.biases[-1].grad
    if unclipped_wins:
        assert np.isclose(out_bias_grad[0], cfg.vf_coef * (v - target), rtol=0, atol=1e-12)
    else:
        for p in critic.parameters:
            assert p.grad is None or np.abs(p.grad).max() == 0.0


def test_actor_gradient_reduces_to_vanilla_policy_gradient():
    # clip = inf, one epoch, one minibatch: surrogate gradient at the
    # collection parameters equals the plain advantage-weighted score.
    cfg = tiny_cfg(update_epochs=1, num_minibatches=1, ent_coef=0.0,
                   vf_coef=0.0, clip_coef=np.inf, target_kl=np.inf,
                   max_grad_norm=np.inf)
    actor, critic, buffer = _collected(cfg)
    gae = compute_gae(buffer, cfg.gamma, cfg.gae_lambda, norm_adv=True)
    ppo_update(buffer, gae, actor, critic, cfg,
               Adam(actor.parameters, 0.0), Adam(critic.parameters, 0.0),
               np.random.default_rng(1))
    surrogate_grads = [p.grad.copy() for p in actor.parameters]

    B = cfg.batch_size
    obs = buffer.obs.reshape(B, -1)
    acts = buffer.actions.reshape(B)
    adv = gae.advantages.reshape(B)
    out = actor.forward(obs)
    # -mean(adv * log p(a)), whose gradient in the logits is adv * (p - onehot) / B
    logp = ad.log_softmax_np(out.data)
    p_minus_onehot = ad.softmax_np(out.data)
    p_minus_onehot[np.arange(B), acts] -= 1.0
    vanilla = ad.Node(-(logp[np.arange(B), acts] * adv).mean(),
                      lambda g: out.back(g * p_minus_onehot * adv[:, None] / B))
    ad.zero_grads(actor.parameters)
    ad.backward(vanilla)
    for g_s, p in zip(surrogate_grads, actor.parameters):
        assert np.abs(g_s - p.grad).max() < 1e-10


def _opt_bits(opts) -> list:
    """Every step count, parameter and Adam moment of ``opts``, as bytes."""
    return [(opt.step_count, *(a.tobytes() for a in [p.data for p in opt.params] + opt.m + opt.v))
            for opt in opts]


def test_nan_loss_aborts_with_diagnostic(monkeypatch):
    # NaN advantages make the policy term NaN, NaN returns the value term:
    # both halves run their backward, and the update raises before it clips
    # or steps anything, with its worker thread or without
    cfg = tiny_cfg(update_epochs=1, num_minibatches=1)
    for worker, term in itertools.product((True, False), ("advantages", "returns")):
        monkeypatch.setattr(ppo, "_worker_fits", lambda: worker)
        actor, critic, buffer = _collected(cfg)
        gae = compute_gae(buffer, cfg.gamma, cfg.gae_lambda)
        opts = [Adam(actor.parameters, 1e-3), Adam(critic.parameters, 1e-3)]
        ppo_update(buffer, gae, actor, critic, cfg, *opts, np.random.default_rng(1))
        before = _opt_bits(opts)
        getattr(gae, term)[:] = np.nan
        with pytest.raises(RuntimeError, match="non-finite loss"):
            ppo_update(buffer, gae, actor, critic, cfg, *opts, np.random.default_rng(1))
        assert _opt_bits(opts) == before


def test_nan_logits_stop_the_update_before_any_step(monkeypatch):
    # a NaN in the actor's output bias makes a column of its logits NaN: the
    # policy loss refuses them, and no optimizer moves, with the worker
    # thread or without
    cfg = tiny_cfg(update_epochs=1, num_minibatches=1)
    for worker in (True, False):
        monkeypatch.setattr(ppo, "_worker_fits", lambda: worker)
        actor, critic, buffer = _collected(cfg)
        gae = compute_gae(buffer, cfg.gamma, cfg.gae_lambda)
        opts = [Adam(actor.parameters, 1e-3), Adam(critic.parameters, 1e-3)]
        ppo_update(buffer, gae, actor, critic, cfg, *opts, np.random.default_rng(1))
        actor.biases[-1].data[2] = np.nan
        before = _opt_bits(opts)
        with pytest.raises(ContractError, match="log_softmax: NaN in logits"):
            ppo_update(buffer, gae, actor, critic, cfg, *opts, np.random.default_rng(1))
        assert _opt_bits(opts) == before


def test_nan_loss_with_routed_snapshots_moves_no_optimizer(monkeypatch):
    # the twin of the test above through HOP's routed update: no optimizer,
    # a snapshot's included, moves when the loss is not finite
    from test_hop import _hop_rollout, _hop_setup
    for worker, term in itertools.product((True, False), ("advantages", "returns")):
        monkeypatch.setattr(ppo, "_worker_fits", lambda: worker)
        learner, critic, orch, hop_cfg, ppo_cfg = _hop_setup(3)
        assert hop_cfg.checkpoint_gradients
        buffer = _hop_rollout(learner, critic, orch, hop_cfg, ppo_cfg)
        gae = compute_gae(buffer, ppo_cfg.gamma, ppo_cfg.gae_lambda)
        opts = [Adam(learner.parameters, 1e-3), Adam(critic.parameters, 1e-3),
                *(c.opt for c in orch.checkpoints)]

        def update():
            masked_policy_update(buffer, gae, learner, critic, orch, ppo_cfg, hop_cfg,
                                 opts[0], opts[1], np.random.default_rng(9))

        update()
        assert all(opt.step_count > 0 for opt in opts)
        before = _opt_bits(opts)
        getattr(gae, term)[:] = np.nan
        with pytest.raises(RuntimeError, match="non-finite loss"):
            update()
        assert _opt_bits(opts) == before


def test_stored_log_probs_off_by_1e_6_stop_the_update_before_any_step(monkeypatch):
    cfg = tiny_cfg(update_epochs=1)
    for worker in (True, False):
        monkeypatch.setattr(ppo, "_worker_fits", lambda: worker)
        actor, critic, buffer = _collected(cfg)
        buffer.logprobs += 1e-6
        gae = compute_gae(buffer, cfg.gamma, cfg.gae_lambda)
        opts = [Adam(actor.parameters, 1e-3), Adam(critic.parameters, 1e-3)]
        before = _opt_bits(opts)
        with pytest.raises(ContractError, match="does not train the policy that acted"):
            ppo_update(buffer, gae, actor, critic, cfg, *opts, np.random.default_rng(1))
        assert _opt_bits(opts) == before


def test_a_stale_logit_table_stops_a_routed_update():
    # a snapshot's weights change without an optimizer step, so the joined
    # index keeps its logit table, and the next rollout acts on the old
    # weights while the update trains the new ones
    from test_hop import _hop_rollout, _hop_setup
    learner, critic, orch, hop_cfg, ppo_cfg = _hop_setup(3)
    _hop_rollout(learner, critic, orch, hop_cfg, ppo_cfg)
    for c in orch.checkpoints:
        c.actor.biases[-1].data[0] += 1.0     # action 0's logit
    buffer = _hop_rollout(learner, critic, orch, hop_cfg, ppo_cfg, seed=8)
    gae = compute_gae(buffer, ppo_cfg.gamma, ppo_cfg.gae_lambda, norm_adv=True)
    opts = [Adam(learner.parameters, 1e-3), Adam(critic.parameters, 1e-3),
            *(c.opt for c in orch.checkpoints)]
    before = _opt_bits(opts)
    with pytest.raises(ContractError, match="does not train the policy that acted"):
        masked_policy_update(buffer, gae, learner, critic, orch, ppo_cfg, hop_cfg,
                             opts[0], opts[1], np.random.default_rng(9))
    assert _opt_bits(opts) == before


@pytest.mark.parametrize("algorithm, hop_keys", [
    ("ppo", {}), ("pnn", {}), ("hop", {"checkpoint_gradients": False}),
    ("hop", {"checkpoint_gradients": True}), ("hop", {"attributes": "learner"})],
    ids=["ppo", "pnn", "hop", "hop-routed", "hop-learner"])
def test_tiny_runs_train_the_policy_that_acted(algorithm, hop_keys, monkeypatch):
    # every update checks its first minibatch; record the gap each one saw
    from orchestra import harness, pnn
    from test_harness import tiny_run_config
    real_loss, real_update, gaps, firsts = ppo.policy_loss, ppo.ppo_update, [], []

    def policy_loss(*args):
        loss, stats = real_loss(*args)
        gaps.append(stats[-1])
        return loss, stats

    def ppo_update(*args, **kwargs):
        gaps.clear()
        stats = real_update(*args, **kwargs)
        firsts.append(gaps[0])
        return stats

    monkeypatch.setattr(ppo, "policy_loss", policy_loss)
    for module in (harness, hop, pnn):
        monkeypatch.setattr(module, "ppo_update", ppo_update)
    cfg = tiny_run_config(algorithm)
    cfg.hop.reward_limit = -100.0       # every checkpoint attempt succeeds
    for key, value in hop_keys.items():
        setattr(cfg.hop, key, value)
    trainer = harness.Trainer(cfg)
    trainer.run()
    assert len(firsts) == 6 and max(firsts) <= ppo.LOGP_TOL
    if algorithm == "hop":      # the later updates ran over snapshots
        assert len(trainer.orchestra) >= 2


def test_target_kl_stops_at_epoch_boundary():
    # epoch-1 minibatch KL is exactly 0 (ratio 1), which already exceeds a
    # negative threshold, so the loop stops after exactly one full epoch
    cfg = tiny_cfg(update_epochs=10, num_minibatches=1, target_kl=-1.0)
    actor, critic, buffer = _collected(cfg)
    gae = compute_gae(buffer, cfg.gamma, cfg.gae_lambda, norm_adv=True)
    stats = ppo_update(buffer, gae, actor, critic, cfg,
                       Adam(actor.parameters, cfg.learning_rate),
                       Adam(critic.parameters, cfg.learning_rate),
                       np.random.default_rng(1))
    assert stats.epochs_run == 1


def test_update_stats_are_minibatch_means_and_the_kl_stop_reads_one_epoch(monkeypatch):
    # two minibatches an epoch, reporting KL 0, 0 in epoch 1 and 1, 1 after:
    # epoch 2's mean passes target_kl, and a mean over every epoch run (0.5)
    # would not, and would run a third. The reported policy losses sum to 1.0
    # only in minibatch order (1e16 + 1.0 rounds to 1e16).
    cfg = tiny_cfg(update_epochs=4, num_minibatches=2, target_kl=0.5)
    actor, critic, buffer = _collected(cfg)
    gae = compute_gae(buffer, cfg.gamma, cfg.gae_lambda, norm_adv=True)
    scripted = iter([(1e16, 0.0), (1.0, 0.0), (-1e16, 1.0), (1.0, 1.0)]
                    + [(0.0, 1.0)] * 4)
    real_policy, real_value, real_squares = ppo.policy_loss, ppo.value_loss, ppo._squares
    policy, values, squares = [], [], []

    def policy_loss(*args):
        loss, (_, ent, _, cf, gap) = real_policy(*args)
        pg, kl = next(scripted)
        policy.append((pg, ent, kl, cf))
        return loss, (*policy[-1], gap)

    def value_loss(*args):
        loss, v = real_value(*args)
        values.append(v)
        return loss, v

    def recorded_squares(lane):
        squares.append(real_squares(lane))
        return squares[-1]

    monkeypatch.setattr(ppo, "policy_loss", policy_loss)
    monkeypatch.setattr(ppo, "value_loss", value_loss)
    monkeypatch.setattr(ppo, "_squares", recorded_squares)
    stats = ppo_update(buffer, gae, actor, critic, cfg,
                       Adam(actor.parameters, cfg.learning_rate),
                       Adam(critic.parameters, cfg.learning_rate),
                       np.random.default_rng(1))
    assert stats.epochs_run == 2 and len(policy) == len(values) == 4
    # each minibatch's gradient norm, from both lanes' squares in parameter order
    norms = [float(np.sqrt(functools.reduce(operator.add,
                                            [sq for _, sq in sorted(a + b)], 0.0)))
             for a, b in zip(squares[::2], squares[1::2])]
    rows = [(pg, vl, ent, kl, cf, gn)
            for (pg, ent, kl, cf), vl, gn in zip(policy, values, norms)]
    means = tuple(functools.reduce(operator.add, column, 0.0) / 4 for column in zip(*rows))
    assert astuple(stats) == (*means, 2)
    assert stats.policy_loss == 0.25 and stats.approx_kl == 0.5


# --- the update's worker thread ---------------------------------------------------


def _ppo_case():
    cfg = tiny_cfg()
    actor, critic, buffer = _collected(cfg)
    gae = compute_gae(buffer, cfg.gamma, cfg.gae_lambda, norm_adv=True)
    opts = [Adam(actor.parameters, cfg.learning_rate), Adam(critic.parameters, cfg.learning_rate)]
    return (lambda: ppo_update(buffer, gae, actor, critic, cfg, *opts,
                               np.random.default_rng(1))), opts


def _hop_case():
    from test_hop import _hop_rollout, _hop_setup
    # at ω = 0.98 a snapshot activates only on a state it stored, so on some
    # of these minibatches no gradient is routed into some of the snapshots
    learner, critic, orch, hop_cfg, ppo_cfg = _hop_setup(3, seed=52, omega=0.98)
    ppo_cfg.num_minibatches = 4
    assert hop_cfg.checkpoint_gradients
    buffer = _hop_rollout(learner, critic, orch, hop_cfg, ppo_cfg)
    gae = compute_gae(buffer, ppo_cfg.gamma, ppo_cfg.gae_lambda, norm_adv=True)
    opts = [Adam(learner.parameters, 1e-3), Adam(critic.parameters, 1e-3),
            *(c.opt for c in orch.checkpoints)]
    snapshots = opts[2:]

    def run():
        # before each minibatch's clip and steps: which snapshots have no
        # gradient, and every snapshot optimizer's state
        lanes, seen = ppo._lanes, []

        def recorded(opts):
            idle = [n for n, opt in enumerate(snapshots)
                    if all(p.grad is None for p in opt.params)]
            seen.append((idle, _opt_bits(snapshots)))
            return lanes(opts)

        ppo._lanes = recorded
        try:
            stats = masked_policy_update(buffer, gae, learner, critic, orch, ppo_cfg, hop_cfg,
                                         opts[0], opts[1], np.random.default_rng(9))
        finally:
            ppo._lanes = lanes
        seen.append(([], _opt_bits(snapshots)))
        assert any(idle for idle, _ in seen)
        for (idle, before), (_, after) in zip(seen, seen[1:]):
            # step count, parameters and moments of an idle snapshot stay
            assert all(after[n] == before[n] for n in idle)
        # every snapshot was routed into on some minibatch
        assert all(c.opt.step_count > 0 for c in orch.checkpoints)
        return stats
    return run, opts


def _pnn_case():
    from test_pnn import _rollout_for, make_stack
    cfg = tiny_cfg(num_steps=8, num_envs=2)
    stack = make_stack()
    stack.add_column("a")
    stack.add_column("b")
    buffer = _rollout_for(stack, "b", cfg)
    gae = compute_gae(buffer, cfg.gamma, cfg.gae_lambda, norm_adv=True)
    col = stack.columns[1]
    opts = [col.actor_opt, col.critic_opt, stack.adapter_opts[1]]
    return (lambda: pnn_update(stack, "b", buffer, gae, cfg, np.random.default_rng(5))), opts


@pytest.mark.parametrize("case", [_ppo_case, _hop_case, _pnn_case], ids=["ppo", "hop", "pnn"])
def test_the_worker_thread_leaves_the_inline_bits(case, monkeypatch, one_blas_thread):
    backward = ad.backward
    results = []
    for worker in (True, False):
        threads = set()

        def recorded(root, grad=None):
            threads.add(threading.get_ident())
            backward(root, grad)

        monkeypatch.setattr(ad, "backward", recorded)
        monkeypatch.setattr(ppo, "_worker_fits", lambda: worker)
        run, opts = case()
        # the interpreter passes between the threads as often as it can, so a
        # half that touched the other's state would show
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            stats = run()
        finally:
            sys.setswitchinterval(interval)
        assert len(threads) == (2 if worker else 1)
        results.append((np.array(astuple(stats), dtype=float).tobytes(), _opt_bits(opts)))
    assert results[0] == results[1]


def _routed_case(m=4):
    """A routed update over ``m`` snapshots, and its optimizers."""
    from test_hop import _hop_rollout, _hop_setup
    learner, critic, orch, hop_cfg, ppo_cfg = _hop_setup(m)
    buffer = _hop_rollout(learner, critic, orch, hop_cfg, ppo_cfg)
    gae = compute_gae(buffer, ppo_cfg.gamma, ppo_cfg.gae_lambda, norm_adv=True)
    opts = [Adam(learner.parameters, 1e-3), Adam(critic.parameters, 1e-3),
            *(c.opt for c in orch.checkpoints)]
    return (lambda: masked_policy_update(buffer, gae, learner, critic, orch, ppo_cfg, hop_cfg,
                                         opts[0], opts[1], np.random.default_rng(9))), opts


_BACKWARD = ad.backward


def _slow_snapshot_backwards(monkeypatch, on_task=lambda: None):
    """Make each routed snapshot's backward (a backward given a gradient)
    call ``on_task``, then sleep 2 ms, so the queue holds work while the
    other thread is free; return the list of the threads that ran them."""
    threads = []

    def recorded(root, grad=None):
        if grad is not None:
            threads.append(threading.current_thread())
            on_task()
            time.sleep(0.002)
        _BACKWARD(root, grad)

    monkeypatch.setattr(ad, "backward", recorded)
    return threads


def test_routed_snapshot_backwards_run_on_both_threads(monkeypatch, one_blas_thread):
    results = []
    for worker in (True, False):
        monkeypatch.setattr(ppo, "_worker_fits", lambda: worker)
        threads = _slow_snapshot_backwards(monkeypatch)
        run, opts = _routed_case()
        stats = run()
        # all four snapshots were routed into, and each thread took some of
        # their backwards
        assert all(opt.step_count > 0 for opt in opts[2:])
        names = {t.name.startswith("ppo-update") for t in threads}
        assert names == ({True, False} if worker else {False})
        results.append((np.array(astuple(stats), dtype=float).tobytes(), _opt_bits(opts)))
    assert results[0] == results[1]


def _raises_without_deadlock(update, queues, error, match):
    """Run ``update`` on a helper thread: it must raise ``error`` matching
    ``match`` within a minute and leave no update thread alive. A deadlock
    fails the test; a task that raises, put in each of the update's
    ``queues``, ends it so that the test process can exit."""
    caught = []

    def target():
        try:
            update()
        except Exception as e:
            caught.append(e)

    def release():
        raise RuntimeError("released")

    helper = threading.Thread(target=target, daemon=True)
    helper.start()
    helper.join(timeout=60)
    if helper.is_alive():
        for q in queues:
            q.put(release)
            q.put(release)
        helper.join(timeout=60)
        pytest.fail("the update deadlocked")
    assert len(caught) == 1 and isinstance(caught[0], error), caught
    assert re.search(match, str(caught[0]))
    assert not _update_threads()


@pytest.mark.parametrize("worker", [True, False], ids=["worker", "inline"])
def test_a_failing_half_cannot_deadlock_the_queue(worker, monkeypatch):
    monkeypatch.setattr(ppo, "_worker_fits", lambda: worker)
    update, queues = hop.ppo_update, []

    def recorded(*args, tasks=None, **kwargs):
        queues.append(tasks)
        return update(*args, tasks=tasks, **kwargs)

    monkeypatch.setattr(hop, "ppo_update", recorded)
    # NaN logits raise in the policy half, before any snapshot backward is queued
    run, opts = _routed_case()
    opts[0].params[-1].data[2] = np.nan          # the learner's output bias
    threads = _slow_snapshot_backwards(monkeypatch)
    _raises_without_deadlock(run, queues, ContractError, "log_softmax: NaN in logits")
    assert not threads
    # a snapshot backward raises on one side: the first task the main side
    # runs, or the first the worker runs
    for side in ("main", "worker") if worker else ("main",):
        def on_task():
            if threading.current_thread().name.startswith("ppo-update") == (side == "worker"):
                raise RuntimeError(f"snapshot backward failed on the {side} side")

        _slow_snapshot_backwards(monkeypatch, on_task)
        run, _ = _routed_case()
        _raises_without_deadlock(run, queues, RuntimeError, f"failed on the {side} side")
    assert queues and None not in queues


def _with_gradients(*nets) -> list[Adam]:
    opts = []
    for net in nets:
        for p in net.parameters:
            p.grad = np.ones_like(p.data)
        opts.append(Adam(net.parameters))
    return opts


def _lane_params(lane) -> list[int]:
    return [id(p) for _, p, _ in lane]


def test_two_optimizers_make_the_actor_and_the_critic_lanes():
    actor, critic = make_nets()
    lanes = ppo._lanes(_with_gradients(actor, critic))
    assert _lane_params(lanes[0]) == [id(p) for p in actor.parameters]
    assert _lane_params(lanes[1]) == [id(p) for p in critic.parameters]


def test_routed_snapshots_balance_the_lanes():
    rng = np.random.default_rng(0)
    sizes = [OBS_DIM, 256, 256, N_ACTIONS]
    nets = [Mlp(sizes, rng), Mlp(sizes[:-1] + [1], rng), *(Mlp(sizes, rng) for _ in range(4))]
    opts = _with_gradients(*nets)
    ad.zero_grads(nets[-1].parameters)       # a snapshot with no routed term
    lanes = ppo._lanes(opts)
    params = [p for opt in opts for p in opt.params]
    # each parameter with a gradient is in one lane, at its place in params
    entries = sorted(lanes[0] + lanes[1], key=lambda e: e[0])
    assert [(k, id(p)) for k, p, _ in entries] == [(k, id(p)) for k, p in enumerate(params)
                                                     if p.grad is not None]
    assert _lane_params(lanes[0])[:6] == [id(p) for p in nets[0].parameters]
    assert _lane_params(lanes[1])[:6] == [id(p) for p in nets[1].parameters]
    elements = [sum(p.data.size for _, p, _ in lane) for lane in lanes]
    assert abs(elements[0] - elements[1]) <= max(p.data.size for p in params)
    # both lanes take snapshot parameters; the idle snapshot counts no step
    assert min(len(lane) for lane in lanes) > 6
    assert [opt.step_count for opt in opts] == [1, 1, 1, 1, 1, 0]


def test_the_lanes_give_clip_grad_norms_bits(monkeypatch, one_blas_thread):
    # routed snapshots spread the parameters over both lanes; the norm and
    # the clipped gradients are those of clip_grad_norm over params
    from test_hop import _hop_rollout, _hop_setup
    monkeypatch.setattr(ppo, "_worker_fits", lambda: True)
    learner, critic, orch, hop_cfg, ppo_cfg = _hop_setup(3)
    ppo_cfg.max_grad_norm, ppo_cfg.target_kl = 1e-3, np.inf
    buffer = _hop_rollout(learner, critic, orch, hop_cfg, ppo_cfg)
    gae = compute_gae(buffer, ppo_cfg.gamma, ppo_cfg.gae_lambda, norm_adv=True)
    opts = [Adam(learner.parameters, 1e-3), Adam(critic.parameters, 1e-3),
            *(c.opt for c in orch.checkpoints)]
    params = [p for opt in opts for p in opt.params]
    twins = [ad.Tensor(p.data) for p in params]
    lanes = ppo._lanes
    oracle = []

    def recorded(opts):
        for twin, p in zip(twins, params):
            twin.grad = p.grad.copy()
        oracle.append(clip_grad_norm(twins, ppo_cfg.max_grad_norm))
        return lanes(opts)

    monkeypatch.setattr(ppo, "_lanes", recorded)
    stats = masked_policy_update(buffer, gae, learner, critic, orch, ppo_cfg, hop_cfg,
                                 opts[0], opts[1], np.random.default_rng(9))
    # the norm of each of the four minibatches, averaged as the update averages
    assert len(oracle) == 4 and min(oracle) > ppo_cfg.max_grad_norm
    total = 0.0
    for norm in oracle:
        total += norm
    assert stats.grad_norm == total / len(oracle)
    for p, twin in zip(params, twins, strict=True):
        assert p.grad.tobytes() == twin.grad.tobytes()


def test_split_backward_equals_the_joint_loss_backward(monkeypatch, one_blas_thread):
    # one minibatch at learning rate 0: the clipped gradients the update
    # leaves are those of one backward of the joint loss
    monkeypatch.setattr(ppo, "_worker_fits", lambda: True)
    cfg = tiny_cfg(update_epochs=1, num_minibatches=1)
    actor, critic, buffer = _collected(cfg)
    gae = compute_gae(buffer, cfg.gamma, cfg.gae_lambda, norm_adv=True)
    twins = [actor.clone(), critic.clone()]
    ppo_update(buffer, gae, actor, critic, cfg, Adam(actor.parameters, 0.0),
               Adam(critic.parameters, 0.0), np.random.default_rng(1))

    B = cfg.batch_size
    idx = np.random.default_rng(1).permutation(B)
    obs = buffer.obs.reshape(B, -1)[idx]
    policy, _ = ppo.policy_loss(twins[0].forward(obs), buffer.actions.reshape(B)[idx],
                                buffer.logprobs.reshape(B)[idx], gae.advantages.reshape(B)[idx],
                                cfg)
    value, _ = ppo.value_loss(twins[1].forward(obs), gae.returns.reshape(B)[idx],
                              buffer.values.reshape(B)[idx], cfg)
    twin_params = twins[0].parameters + twins[1].parameters

    def joint_back(g):
        """The joint loss, policy + value, sends its gradient to both."""
        policy.back(g)
        value.back(g)

    ad.backward(ad.Node(policy.data + value.data, joint_back))
    clip_grad_norm(twin_params, cfg.max_grad_norm)
    for p, twin in zip(actor.parameters + critic.parameters, twin_params, strict=True):
        assert p.grad.tobytes() == twin.grad.tobytes()


def test_the_update_runs_inline_unless_one_blas_thread_and_two_cpus(monkeypatch):
    for threads, cpus, inline in ((1, {0, 1}, False), (2, {0, 1}, True),
                                  (None, {0, 1}, True), (1, {0}, True)):
        monkeypatch.setattr(ppo, "openblas_threads", lambda: threads)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        with ppo._update_worker() as worker:
            assert (worker is None) == inline


def _update_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith("ppo-update")]


def test_no_worker_thread_outlives_its_update(monkeypatch):
    monkeypatch.setattr(ppo, "_worker_fits", lambda: True)
    backward = ad.backward
    seen = set()

    def recorded(loss):
        seen.update(_update_threads())
        backward(loss)

    monkeypatch.setattr(ad, "backward", recorded)
    cfg = tiny_cfg(update_epochs=1, num_minibatches=1)
    actor, critic, buffer = _collected(cfg)
    gae = compute_gae(buffer, cfg.gamma, cfg.gae_lambda)
    opts = [Adam(actor.parameters, 1e-3), Adam(critic.parameters, 1e-3)]
    ppo_update(buffer, gae, actor, critic, cfg, *opts, np.random.default_rng(1))
    assert seen and not _update_threads()
    gae.returns[:] = np.nan
    with pytest.raises(RuntimeError, match="non-finite loss"):
        ppo_update(buffer, gae, actor, critic, cfg, *opts, np.random.default_rng(1))
    assert not _update_threads()


def test_importing_the_package_makes_no_worker():
    probe = ("import sys; import orchestra.cli; "
             "print('concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.stdout.strip() == "False"


def test_a_forked_child_makes_its_own_worker(monkeypatch, one_blas_thread):
    # a fork copies no thread, so the child's update needs a worker of its own
    monkeypatch.setattr(ppo, "_worker_fits", lambda: True)
    cfg = tiny_cfg()

    def update() -> bytes:
        actor, critic, buffer = _collected(cfg)
        gae = compute_gae(buffer, cfg.gamma, cfg.gae_lambda, norm_adv=True)
        ppo_update(buffer, gae, actor, critic, cfg, Adam(actor.parameters, 1e-3),
                   Adam(critic.parameters, 1e-3), np.random.default_rng(1))
        return b"".join(p.data.tobytes() for p in actor.parameters + critic.parameters)

    want = update()

    def child():
        os._exit(0 if update() == want else 1)

    process = multiprocessing.get_context("fork").Process(target=child)
    process.start()
    process.join(timeout=60)
    if process.exitcode is None:
        process.kill()
        process.join()
        pytest.fail("the forked child's update did not finish")
    assert process.exitcode == 0


class _ScriptedSource(LearnerSource):
    """Plays a fixed action script, then no-ops."""

    def __init__(self, actor, script):
        super().__init__(actor)
        self.script = list(script)
        self.cursor = 0

    def act(self, obs_batch, rng):
        a = self.script[self.cursor] if self.cursor < len(self.script) else 5
        self.cursor += 1
        return np.array([a]), np.zeros(1), [None]


def test_evaluation_reward_formula():
    actor, _ = make_nets()
    source = _ScriptedSource(actor, RUNNER7_SCRIPT)
    result = evaluate_policy(source, [LevelSpec("runner", 7)], episodes=1,
                             max_eval_ep_len=100, rng=np.random.default_rng(0))
    k = len(RUNNER7_SCRIPT)
    assert result.mean_return == 10.0 - EVAL_STEP_PENALTY * k
    assert len(result.returns) == 1


def test_evaluate_policy_episode_count_and_determinism():
    actor, _ = make_nets(7)
    specs = [LevelSpec("dodger", s) for s in (1, 2)]
    r1 = evaluate_policy(LearnerSource(actor), specs, 30, 60,
                         np.random.default_rng(4))
    r2 = evaluate_policy(LearnerSource(actor), specs, 30, 60,
                         np.random.default_rng(4))
    assert len(r1.returns) == 30
    assert r1.returns == r2.returns


def test_random_policy_on_dodger_scores_near_zero():
    actor, _ = make_nets(8)  # fresh init is near-uniform (0.01 output gain)
    specs = [LevelSpec("dodger", s) for s in (1, 2, 3)]
    r = evaluate_policy(LearnerSource(actor), specs, 20, 100,
                        np.random.default_rng(12))
    assert -1.0 <= r.mean_return < 6.0


def _one_row_episode(source, spec, max_len, rng):
    """Reference oracle: an episode acted one row at a time, each
    observation built by the env before the act. (raw return, steps)"""
    env = EnvInstance(spec, max_len)
    total = 0.0
    while not env.done:
        actions, _, _ = source.act(env.observation()[None, :], rng)
        total += env.step(int(actions[0])).reward
    return total, env.episode_steps


@pytest.mark.parametrize("family,level_seed", [("runner", 3), ("climber", 2), ("dodger", 1)])
def test_one_episode_evaluation_equals_a_one_row_loop(family, level_seed):
    actor, _ = make_nets(level_seed)
    spec = LevelSpec(family, level_seed)
    for seed in range(4):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        result = evaluate_policy(LearnerSource(actor), [spec], 1, 40, rng)
        total, steps = _one_row_episode(LearnerSource(actor), spec, 40, ref_rng)
        assert result.returns == [total - EVAL_STEP_PENALTY * steps]
        assert rng.random() == ref_rng.random()     # the same draws were taken


class _SpySource(LearnerSource):
    """Records every batch of observations it acts on, and its actions."""

    def __init__(self, actor):
        super().__init__(actor)
        self.batches = []
        self.actions = []

    def act(self, obs_batch, rng):
        out = super().act(obs_batch, rng)
        self.batches.append(obs_batch.copy())
        self.actions.append(out[0].tolist())
        return out


def _spied_episodes(specs, max_len=30, seed=8):
    spy = _SpySource(make_nets(5)[0])
    return spy, play_episodes(spy, specs, max_len, np.random.default_rng(seed))


def test_lockstep_batches_hold_the_live_episodes():
    specs = [LevelSpec("dodger", s) for s in (1, 2, 3, 1, 2, 3, 1)]
    spy, episodes = _spied_episodes(specs)
    steps = [ep.steps for ep in episodes]
    assert len(set(steps)) > 1          # episodes end at different steps
    sizes = [len(b) for b in spy.batches]
    assert sizes == [sum(n > t for n in steps) for t in range(max(steps))]
    assert sizes == sorted(sizes, reverse=True)


def test_evaluation_rotates_levels_by_episode_index():
    levels = [LevelSpec("runner", s) for s in (1, 2, 3)]
    spy = _SpySource(make_nets(5)[0])
    result = evaluate_policy(spy, levels, 7, 30, np.random.default_rng(3))
    assert len(result.returns) == 7
    first = [EnvInstance(levels[ep % 3]).observation() for ep in range(7)]
    assert np.array_equal(spy.batches[0], np.stack(first))


def test_replay_gives_the_observations_the_runner_acted_on():
    specs = [LevelSpec(f, s) for f in ("runner", "climber", "dodger") for s in (1, 2)]
    spy, episodes = _spied_episodes(specs, max_len=25)
    acted = [[] for _ in specs]
    sampled = [[] for _ in specs]
    for t, (batch, actions) in enumerate(zip(spy.batches, spy.actions)):
        live = [i for i, ep in enumerate(episodes) if ep.steps > t]
        for i, row, a in zip(live, batch, actions, strict=True):
            acted[i].append(row)
            sampled[i].append(a)
    for spec, ep, rows, actions in zip(specs, episodes, acted, sampled):
        assert ep.actions == actions        # each row's action went to its episode
        assert np.array_equal(np.stack(replay(spec, 25, ep.actions)), np.stack(rows))
