"""Acceptance suite: one test per release criterion.

Each test prints a single ``PASS:``/``FAIL:`` line with the measured values.
The directional experiments (criteria using the full three-phase protocol)
run the real desk-scale configuration and take the bulk of the runtime; they
are shared across tests through session-scoped fixtures.
"""
import json
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest

from orchestra import autodiff as ad
from orchestra.autodiff import Tensor
from orchestra.envs import LevelSpec, N_ACTIONS, OBS_DIM, EnvInstance
from orchestra.harness import (RunConfig, Trainer, config_from_flat_dict,
                               final_rewards, run_three_phase, steps_to_return)
from orchestra.hop import (CheckpointPolicy, HopConfig, JoinedSource,
                           Orchestra, TrustedStateSet, hierarchical_weights,
                           joined_records, masked_policy_update)
from orchestra.nn import Adam, Mlp
from orchestra.ppo import (EVAL_STEP_PENALTY, GaeOutput, PpoConfig,
                           RolloutBuffer, evaluate_policy)
from orchestra.pnn import PnnStack

SEEDS = (1, 2, 3, 4)
DESK_WORKERS = 2
DESK_PRESET = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "hop_desk.json"


def report(name: str, ok: bool, detail: str):
    print(f"\n{'PASS' if ok else 'FAIL'}: {name} — {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. Gradient correctness (finite differences)
# ---------------------------------------------------------------------------


def _fd_check(loss_fn, params, h=1e-6):
    """Max relative error between analytic and central-difference gradients."""
    ad.zero_grads(params)
    ad.backward(loss_fn())
    worst = 0.0
    for p in params:
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(loss_fn().data)
            flat[i] = orig - h
            down = float(loss_fn().data)
            flat[i] = orig
            num = (up - down) / (2 * h)
            denom = max(abs(num), abs(grad.reshape(-1)[i]), 1e-4)
            worst = max(worst, abs(num - grad.reshape(-1)[i]) / denom)
    return worst


def test_gradient_correctness_vs_finite_differences():
    t0 = time.time()
    rng = np.random.default_rng(0)
    n_inst = 100
    worst = {"actor": 0.0, "critic": 0.0, "adapter": 0.0, "joined": 0.0}

    for _ in range(n_inst):
        obs = rng.random((3, 6))
        acts = rng.integers(0, 4, size=3)
        adv = rng.standard_normal(3)
        old = rng.standard_normal(3) * 0.1
        ret = rng.standard_normal(3)

        # actor: clipped-surrogate + entropy loss
        actor = Mlp([6, 5, 4], rng)

        def actor_loss():
            logits = actor.forward(Tensor(obs))
            logp_all = ad.log_softmax(logits)
            ratio = (ad.pick(logp_all, acts) - Tensor(old)).exp()
            surr = ad.minimum(ratio * Tensor(adv),
                              ad.clip(ratio, 0.8, 1.2) * Tensor(adv))
            ent = -(logp_all.exp() * logp_all).sum(axis=-1).mean()
            return -surr.mean() - 0.01 * ent

        worst["actor"] = max(worst["actor"], _fd_check(actor_loss, actor.parameters))

        # critic: value regression loss
        critic = Mlp([6, 5, 1], rng)

        def critic_loss():
            v = critic.forward(Tensor(obs)).reshape(-1)
            return 0.5 * (v - Tensor(ret)).square().mean()

        worst["critic"] = max(worst["critic"], _fd_check(critic_loss, critic.parameters))

        # adapters: progressive-column forward through zero-init-then-perturbed links
        stack = PnnStack(6, 4, 5, 1e-3, rng)
        stack.add_column("a")
        stack.add_column("b")
        for adp in stack.adapters.values():
            adp.weight.data = rng.standard_normal(adp.weight.data.shape) * 0.2
            adp.bias.data = rng.standard_normal(adp.bias.data.shape) * 0.2
        adapter_params = (stack.adapters[("actor", 0, 1)].parameters
                          + stack.columns[1].actor.parameters)

        def adapter_loss():
            logits, _ = stack._net_forward_graph(1, "actor", obs)
            logp = ad.pick(ad.log_softmax(logits), acts)
            return -(logp * Tensor(adv)).mean()

        worst["adapter"] = max(worst["adapter"], _fd_check(adapter_loss, adapter_params))

        # joined path: learner + per-row checkpoint contribution via index_add
        learner = Mlp([6, 5, 4], rng)
        ckpt_actor = Mlp([6, 5, 4], rng)
        sstars = rng.random((2, 6))
        rows = np.array([0, 2])
        coeffs = rng.random((2, 1)) + 0.25
        joined_params = learner.parameters + ckpt_actor.parameters

        def joined_loss():
            logits = learner.forward(Tensor(obs))
            contrib = ckpt_actor.forward(Tensor(sstars)) * Tensor(coeffs)
            logits = ad.index_add(logits, rows, contrib)
            logp = ad.pick(ad.log_softmax(logits), acts)
            return -(logp * Tensor(adv)).mean()

        worst["joined"] = max(worst["joined"], _fd_check(joined_loss, joined_params))

    elapsed = time.time() - t0
    ok = max(worst.values()) < 1e-4 and elapsed < 60
    report("gradient correctness", ok,
           f"max rel err {max(worst.values()):.2e} over {n_inst} instances "
           f"per path ({', '.join(f'{k}={v:.1e}' for k, v in worst.items())}), "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Joined-policy recursion vs brute-force oracle, all activation patterns
# ---------------------------------------------------------------------------


def _oracle_joined(learner, checkpoints, state, omega):
    def scan(count, q):
        bits, matches = np.zeros(count, dtype=bool), [None] * count
        for j in range(count):
            sstar, sim, _ = checkpoints[j].trusted.find_most_similar(q)
            if sim > omega:
                bits[j], matches[j] = True, sstar
        return bits, matches

    def sub(m, state_m):
        logits = checkpoints[m].actor.forward_np(state_m[None, :])[0]
        bits, matches = scan(m, state_m)
        w = hierarchical_weights(bits)
        for j in range(m):
            if bits[j]:
                logits = logits + w[j] * sub(j, matches[j])
        return logits

    logits = learner.forward_np(state[None, :])[0]
    bits, matches = scan(len(checkpoints), state)
    w = hierarchical_weights(bits)
    for m in range(len(checkpoints)):
        if bits[m]:
            logits = logits + w[m] * sub(m, matches[m])
    return logits


def test_joined_recursion_matches_oracle_for_all_patterns():
    t0 = time.time()
    rng = np.random.default_rng(7)
    dim, omega = 10, 0.98
    worst = 0.0
    n_checked = 0
    for M in range(1, 7):
        q = np.zeros(dim)
        q[0] = 1.0
        off = np.zeros(dim)
        off[1] = 1.0  # orthogonal to q: similarity 0, never activates
        for pattern in range(2 ** M):
            learner = Mlp([dim, 6, 4], rng)
            ckpts = []
            for m in range(M):
                ts = TrustedStateSet(8, rng)
                active = (pattern >> m) & 1
                ts.add_episode([q if active else off], 9.0)
                # decoy state with low similarity to both q and off
                decoy = rng.random(dim) * 0.05 + (off if active else q) * 0.0
                decoy[2] = 1.0
                ts.add_episode([decoy], 9.0)
                ckpts.append(CheckpointPolicy(m + 1, Mlp([dim, 6, 4], rng), ts, 0))
            orch = Orchestra(ckpts)
            source = JoinedSource(learner, orch, HopConfig(min_similarity_score=omega))
            got = source.logits_and_aux(q[None, :])[0][0]
            want = _oracle_joined(learner, ckpts, q, omega)
            worst = max(worst, float(np.abs(got - want).max()))
            n_checked += 1
    elapsed = time.time() - t0
    ok = worst < 1e-10 and elapsed < 60
    report("joined-policy recursion vs oracle", ok,
           f"{n_checked} activation patterns (M=1..6), max abs diff "
           f"{worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Hierarchical weight formula
# ---------------------------------------------------------------------------


def test_weight_formula_suite():
    checks = []
    for M in (1, 3, 7):
        for pos in range(M):
            bits = np.zeros(M, dtype=bool)
            bits[pos] = True
            checks.append(hierarchical_weights(bits)[pos] == 0.5)
    checks.append(np.array_equal(hierarchical_weights(np.zeros(5, dtype=bool)),
                                 np.zeros(5)))
    checks.append(np.allclose(hierarchical_weights([1, 1, 1]),
                              [1 / 4, 1 / 3, 1 / 2]))
    rng = np.random.default_rng(13)
    mono_ok = True
    for _ in range(1000):
        bits = rng.random(rng.integers(1, 15)) < 0.5
        w = hierarchical_weights(bits)
        active = np.flatnonzero(bits)
        if not np.all(np.diff(w[active]) > 0) and len(active) > 1:
            mono_ok = False
        if not (np.all(w >= 0) and np.all(w <= 0.5)):
            mono_ok = False
        if not np.all(w[~bits] == 0):
            mono_ok = False
    checks.append(mono_ok)
    ok = all(checks)
    report("hierarchical weight formula", ok,
           "single-active=1/2, all-inactive=0, [1,1,1]->[1/4,1/3,1/2], "
           "recency monotone over 1000 random patterns")


# ---------------------------------------------------------------------------
# Shared directional experiment (criteria 4, 6, 7)
# ---------------------------------------------------------------------------


def _desk_config(algorithm, seed):
    """The bundled desk preset, for one algorithm and seed."""
    preset = json.loads(DESK_PRESET.read_text())
    return config_from_flat_dict({**preset, "algorithm": algorithm, "seed": seed})


def _desk_run(job):
    """One desk-scale run: (report, trainer) for PPO and HOP; for PNN the
    report plus whether column 1 stayed bit-exact through phase 2, from a
    parameter snapshot taken at the phase-1 boundary."""
    algorithm, seed = job
    trainer = Trainer(_desk_config(algorithm, seed))
    if algorithm != "pnn":
        return trainer.run(), trainer
    per_phase = trainer.total_iterations // 3
    trainer.run(max_iterations=per_phase)
    col0 = trainer.stack.columns[0]
    snapshot = [a.copy() for a in col0.actor.get_arrays() + col0.critic.get_arrays()]
    trainer.run(max_iterations=per_phase)      # all of phase 2
    after_phase2 = col0.actor.get_arrays() + col0.critic.get_arrays()
    bit_exact = all(np.array_equal(a, b) for a, b in zip(snapshot, after_phase2))
    rep = trainer.run()                        # phase 3 to completion
    return {"report": rep, "phase1_column_bit_exact": bit_exact}


@pytest.fixture(scope="session")
def desk_runs():
    """The nine desk-scale runs (4 paired seeds of HOP vs PPO, one PNN run),
    two at a time in worker processes with one BLAS thread each.

    A run's numbers depend on the BLAS thread count, so it is fixed at one
    rather than left to the host's core count; two one-thread workers also
    take about half the time of the runs in sequence at two threads.
    """
    jobs = [("pnn", SEEDS[0])] + [(algo, seed) for seed in SEEDS
                                   for algo in ("hop", "ppo")]
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"   # read by the workers' numpy
    try:
        pool = multiprocessing.get_context("spawn").Pool(DESK_WORKERS)
    finally:
        if saved is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved
    with pool:
        return dict(zip(jobs, pool.map(_desk_run, jobs, chunksize=1)))


@pytest.fixture(scope="session")
def directional_runs(desk_runs):
    """4 paired seeds of HOP vs PPO, desk scale."""
    out = {"hop": {}, "ppo": {}, "hop_trainers": {}}
    for seed in SEEDS:
        for algo in ("ppo", "hop"):
            rep, trainer = desk_runs[(algo, seed)]
            out[algo][seed] = rep
            if algo == "hop":
                out["hop_trainers"][seed] = trainer
    return out


@pytest.fixture(scope="session")
def pnn_run(desk_runs):
    """One PNN run with a parameter snapshot taken at the phase-1 boundary."""
    return desk_runs[("pnn", SEEDS[0])]


# ---------------------------------------------------------------------------
# 4. Trusted-state gate
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_trusted_state_gate(directional_runs):
    violations = 0
    n_states = 0
    for seed, trainer in directional_runs["hop_trainers"].items():
        for ckpt in trainer.orchestra.checkpoints:
            rets = np.asarray(ckpt.trusted.episode_returns)
            n_states += len(rets)
            violations += int((rets <= 7.5).sum())
    ok = n_states > 0 and violations == 0
    report("trusted-state gate", ok,
           f"{n_states} stored states across {len(SEEDS)} seeded runs, "
           f"{violations} below the 7.5 episodic-return threshold")


# ---------------------------------------------------------------------------
# 5. Gradient masking
# ---------------------------------------------------------------------------


def _crafted_masked_buffer(learner, orch, rng):
    dim = learner.sizes[0]
    obs = rng.random((4, 1, dim)) + 0.01
    index = orch.joined_index(HopConfig().min_similarity_score)
    best, _ = index.scan(obs[:, 0, :], len(index))
    bits = np.zeros((4, len(orch.checkpoints)), dtype=bool)
    bits[1, 0] = True   # the single activated timestep, checkpoint 1 only
    learner_logits = learner.forward_np(obs[:, 0, :])
    contribution = index.contribution(best, bits)
    aux = [joined_records(bits[t:t + 1], best[t:t + 1], contribution[t:t + 1],
                          learner_logits[t:t + 1]) for t in range(4)]
    logp = ad.log_softmax_np(learner_logits + contribution)
    actions = np.array([[int(np.argmax(logp[t]))] for t in range(4)])
    return RolloutBuffer(
        obs=obs, actions=actions, rewards=rng.random((4, 1)),
        dones=np.zeros((4, 1), dtype=bool),
        logprobs=np.array([[logp[t, actions[t, 0]]] for t in range(4)]),
        values=np.zeros((4, 1)), bootstrap=np.zeros(1), aux=aux)


def test_gradient_masking():
    rng = np.random.default_rng(77)
    learner = Mlp([6, 8, 4], rng)
    critic = Mlp([6, 8, 1], rng)
    ckpts = []
    for i in range(3):
        ts = TrustedStateSet(4, rng)
        ts.add_episode([rng.random(6) + 0.01], 9.0)
        ckpts.append(CheckpointPolicy(i + 1, Mlp([6, 8, 4], rng), ts, 0,
                                      opt=None))
    orch = Orchestra(ckpts)
    ppo_cfg = PpoConfig(num_steps=4, num_envs=1, num_minibatches=1,
                        update_epochs=1, target_kl=np.inf)
    gae = GaeOutput(rng.standard_normal((4, 1)), rng.random((4, 1)))

    # flag on: exactly the activated checkpoint gets gradient
    hop_cfg = HopConfig(checkpoint_gradients=True)
    for c in orch.checkpoints:
        c.opt = Adam(c.actor.parameters, 0.0)
    buffer = _crafted_masked_buffer(learner, orch, np.random.default_rng(5))
    masked_policy_update(buffer, gae, learner, critic, orch, ppo_cfg, hop_cfg,
                         Adam(learner.parameters, 0.0),
                         Adam(critic.parameters, 0.0), np.random.default_rng(1))
    grads = [max((np.abs(p.grad).max() for p in c.actor.parameters
                  if p.grad is not None), default=0.0)
             for c in orch.checkpoints]
    one_hot = grads[0] > 0 and grads[1] == 0 and grads[2] == 0

    # flag off: every checkpoint bit-identical through a real update
    hop_cfg = HopConfig(checkpoint_gradients=False)
    before = [c.actor.get_arrays() for c in orch.checkpoints]
    buffer = _crafted_masked_buffer(learner, orch, np.random.default_rng(5))
    masked_policy_update(buffer, gae, learner, critic, orch, ppo_cfg, hop_cfg,
                         Adam(learner.parameters, 1e-3),
                         Adam(critic.parameters, 1e-3), np.random.default_rng(1))
    frozen = all(np.array_equal(a, b)
                 for c, arrs in zip(orch.checkpoints, before)
                 for a, b in zip(c.actor.get_arrays(), arrs))
    ok = one_hot and frozen
    report("gradient masking", ok,
           f"flag on -> checkpoint grad norms {['%.2e' % g for g in grads]} "
           f"(only activated nonzero: {one_hot}); flag off -> checkpoints "
           f"bit-identical: {frozen}")


# ---------------------------------------------------------------------------
# 6. PPO sanity on a single level
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_ppo_sanity_single_level():
    budget = 196_608  # 48 rollouts of 4096 <= the 200k-step budget
    passes = {}
    for seed in SEEDS:
        cfg = RunConfig(algorithm="ppo", families=("runner",) * 3,
                        proc_num_levels=1, total_timesteps=budget, seed=seed)
        trainer = Trainer(cfg)
        best = -np.inf
        while trainer.iteration < trainer.total_iterations:
            trainer.run(max_iterations=2)
            best = max(best, trainer.rows[-1].mean_return)
            if best >= 9.0:
                break
        passes[seed] = best
    n_ok = sum(1 for v in passes.values() if v >= 9.0)
    ok = n_ok >= 3
    report("ppo sanity (single level)", ok,
           f"{n_ok}/4 seeds reached mean return >= 9.0 within {budget} steps "
           f"(best per seed: { {s: round(v, 2) for s, v in passes.items()} })")


# ---------------------------------------------------------------------------
# 7. Directional continual-learning reproduction
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_directional_reproduction(directional_runs, pnn_run):
    wins = []
    s2r = {"hop": {}, "ppo": {}}
    for seed in SEEDS:
        h = steps_to_return(directional_runs["hop"][seed])
        p = steps_to_return(directional_runs["ppo"][seed])
        s2r["hop"][seed], s2r["ppo"][seed] = h, p
        h_num = h if isinstance(h, int) else np.inf
        p_num = p if isinstance(p, int) else np.inf
        wins.append(h_num < p_num)
    hop_final = np.mean([final_rewards(directional_runs["hop"][s]) for s in SEEDS])
    ppo_final = np.mean([final_rewards(directional_runs["ppo"][s]) for s in SEEDS])
    a = sum(wins) >= 3
    b = hop_final >= ppo_final
    c = pnn_run["phase1_column_bit_exact"]
    ok = a and b and c
    report("directional reproduction", ok,
           f"(a) faster recovery on {sum(wins)}/4 seeds "
           f"(steps-to-return hop={s2r['hop']} ppo={s2r['ppo']}); "
           f"(b) final phase-3 mean hop={hop_final:.2f} >= ppo={ppo_final:.2f}: {b}; "
           f"(c) pnn phase-1 column bit-exact through phase 2: {c}")


# ---------------------------------------------------------------------------
# 8. Determinism & resume
# ---------------------------------------------------------------------------


def test_determinism_and_resume(tmp_path):
    def small_cfg():
        return RunConfig(
            algorithm="hop", seed=6,
            ppo=PpoConfig(num_steps=64, num_envs=4, num_minibatches=4,
                          update_epochs=2),
            hop=HopConfig(checkpoint_interval=1024, eval_episodes=4,
                          reward_limit=-100.0),
            total_timesteps=3072, report_epoch=512, eval_batch_size=4,
            max_ep_length=60, max_eval_ep_len=60, proc_num_levels=2)

    rep_a = run_three_phase(small_cfg(), tmp_path / "a")
    rep_b = run_three_phase(small_cfg(), tmp_path / "b")
    identical = ((tmp_path / "a" / "metrics.csv").read_bytes()
                 == (tmp_path / "b" / "metrics.csv").read_bytes())

    trainer = Trainer(small_cfg(), tmp_path / "c")
    trainer.run(max_iterations=5)  # "kill" mid-run at a rollout boundary
    from orchestra.harness import resume
    rep_c = resume(tmp_path / "c")
    resumed_identical = (rep_c.rows == rep_a.rows and
                         (tmp_path / "c" / "metrics.csv").read_bytes()
                         == (tmp_path / "a" / "metrics.csv").read_bytes())
    ok = identical and resumed_identical
    report("determinism & resume", ok,
           f"repeat run CSV bit-identical: {identical}; kill+resume report "
           f"identical: {resumed_identical}")


# ---------------------------------------------------------------------------
# 9. Evaluation-reward formula
# ---------------------------------------------------------------------------


class _ScriptedSource:
    def __init__(self, script):
        self.script = list(script)
        self.cursor = 0

    def act(self, obs_batch, rng):
        a = self.script[self.cursor] if self.cursor < len(self.script) else 5
        self.cursor += 1
        return np.array([a]), np.zeros(1), [None]


def test_evaluation_reward_formula():
    # hand-verified 12-step optimal route on the (runner, 7) level; the goal
    # pays +10 and no cues lie on the path
    script = [0, 0, 3, 3, 3, 0, 3, 0, 3, 3, 3, 3]
    result = evaluate_policy(_ScriptedSource(script), [LevelSpec("runner", 7)],
                             episodes=1, max_eval_ep_len=100,
                             rng=np.random.default_rng(0))
    k = len(script)
    expected = 10.0 - EVAL_STEP_PENALTY * k
    ok = result.mean_return == expected
    report("evaluation-reward formula", ok,
           f"{k}-step completion reports {result.mean_return} == 10 - 0.01*{k} "
           f"= {expected} exactly")
