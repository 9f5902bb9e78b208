import itertools
import multiprocessing
import os
import subprocess
import sys
import threading
from dataclasses import astuple

import numpy as np
import pytest

from orchestra import autodiff as ad
from orchestra import ppo
from orchestra.autodiff import Tensor
from orchestra.envs import EnvInstance, LevelSpec, N_ACTIONS, OBS_DIM, VecEnv

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
    buffer = RolloutBuffer(
        obs=obs, actions=np.array([[action]]),
        rewards=np.zeros((1, 1)), dones=np.zeros((1, 1), dtype=bool),
        logprobs=np.array([[logp[action] - np.log(1.5)]]),  # forces ratio 1.5
        values=np.zeros((1, 1)), bootstrap=np.zeros(1), aux=[[None]],
    )
    gae = GaeOutput(np.ones((1, 1)), np.zeros((1, 1)))
    ppo_update(buffer, gae, actor, critic, cfg,
               Adam(actor.parameters, 0.0), Adam(critic.parameters, 0.0),
               np.random.default_rng(1))
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
    out = actor.forward(Tensor(obs))
    vanilla = -(ad.pick(ad.log_softmax(out), acts) * Tensor(adv)).mean()
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
    learner, critic, orch, hop_cfg, ppo_cfg = _hop_setup(2)
    assert hop_cfg.checkpoint_gradients
    buffer = _hop_rollout(learner, critic, orch, hop_cfg, ppo_cfg)
    gae = compute_gae(buffer, ppo_cfg.gamma, ppo_cfg.gae_lambda, norm_adv=True)
    opts = [Adam(learner.parameters, 1e-3), Adam(critic.parameters, 1e-3),
            *(c.opt for c in orch.checkpoints)]

    def run():
        stats = masked_policy_update(buffer, gae, learner, critic, orch, ppo_cfg, hop_cfg,
                                     opts[0], opts[1], np.random.default_rng(9))
        # routed gradients reached both snapshots
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

        def recorded(loss):
            threads.add(threading.get_ident())
            backward(loss)

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
    logp_all = ad.log_softmax(twins[0].forward(obs))
    newlogp = ad.pick(logp_all, buffer.actions.reshape(B)[idx])
    ratio = (newlogp - Tensor(buffer.logprobs.reshape(B)[idx])).exp()
    adv = Tensor(gae.advantages.reshape(B)[idx])
    pg_loss = -ad.minimum(ratio * adv,
                          ad.clip(ratio, 1.0 - cfg.clip_coef, 1.0 + cfg.clip_coef) * adv).mean()
    entropy = -(logp_all.exp() * logp_all).sum(axis=-1).mean()
    v = twins[1].forward(obs).reshape(-1)
    v_loss = 0.5 * (v - Tensor(gae.returns.reshape(B)[idx])).square().mean()
    twin_params = twins[0].parameters + twins[1].parameters
    ad.backward(pg_loss - cfg.ent_coef * entropy + cfg.vf_coef * v_loss)
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
