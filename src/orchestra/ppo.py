"""Proximal Policy Optimization over separate actor and critic MLPs.

The rollout collector is generic over an "action source" so the same
machinery serves the plain learner, the checkpoint-orchestra joined policy,
and the progressive-network columns. Sources return per-env auxiliary
records (activation bitmask, best matches, the orchestra's part of the
logits) that the buffer stores verbatim; the update never recomputes them.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from typing import Callable, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, require_positive
from .nn import Adam, Mlp, clip_grad_norm, sample_categorical_batch
from .envs import EnvInstance, LevelSpec, VecEnv

ADV_EPS = 1e-8
EVAL_STEP_PENALTY = 0.01


@dataclass
class PpoConfig:
    gamma: float = 0.999
    gae_lambda: float = 0.95
    clip_coef: float = 0.2
    ent_coef: float = 0.01
    vf_coef: float = 0.5
    update_epochs: int = 3
    num_minibatches: int = 8
    max_grad_norm: float = 0.5
    target_kl: float = 0.05
    num_steps: int = 256
    num_envs: int = 16
    norm_adv: bool = True
    clip_vloss: bool = False
    anneal_lr: bool = False
    learning_rate: float = 5e-4

    @property
    def batch_size(self) -> int:
        return self.num_steps * self.num_envs

    @property
    def minibatch_size(self) -> int:
        return self.batch_size // self.num_minibatches

    def validate(self):
        require_positive(self, "num_steps", "num_envs", "num_minibatches", "update_epochs")
        if self.batch_size % self.num_minibatches != 0:
            raise ConfigError(
                f"num_minibatches={self.num_minibatches} does not divide "
                f"batch_size={self.batch_size}"
            )
        if self.anneal_lr:
            raise ConfigError("anneal_lr is not supported")


@dataclass
class RolloutBuffer:
    obs: np.ndarray        # (T, N, obs_dim)
    actions: np.ndarray    # (T, N) int
    rewards: np.ndarray    # (T, N)
    dones: np.ndarray      # (T, N) bool, episode ended at this step
    logprobs: np.ndarray   # (T, N) behavior log-probs, recorded at collection
    values: np.ndarray     # (T, N)
    bootstrap: np.ndarray  # (N,) value of the observation after the last step
    aux: list              # aux[t][n]: source-specific record or None

    @property
    def num_steps(self) -> int:
        return self.obs.shape[0]

    @property
    def num_envs(self) -> int:
        return self.obs.shape[1]


@dataclass
class GaeOutput:
    advantages: np.ndarray
    returns: np.ndarray


@dataclass
class UpdateStats:
    policy_loss: float
    value_loss: float
    entropy: float
    approx_kl: float
    clipfrac: float
    grad_norm: float
    epochs_run: int

    def to_jsonl(self, step: int) -> str:
        rec = {"step": step}
        rec.update(asdict(self))
        return json.dumps(rec)


class ActionSource:
    """Maps a batch of observations to logits plus per-env aux records."""

    def logits_and_aux(self, obs_batch: np.ndarray):
        raise NotImplementedError

    def act(self, obs_batch: np.ndarray, rng: np.random.Generator):
        logits, aux = self.logits_and_aux(obs_batch)
        probs = ad.softmax_np(logits)
        actions = sample_categorical_batch(probs, rng)
        blogp = ad.log_softmax_np(self.behavior_logits(logits, aux))
        rows = np.arange(len(actions))
        return actions, blogp[rows, actions], aux

    def behavior_logits(self, logits: np.ndarray, aux) -> np.ndarray:
        """Logits whose distribution defines the stored behavior log-prob."""
        return logits


class LearnerSource(ActionSource):
    def __init__(self, actor: Mlp):
        self.actor = actor

    def logits_and_aux(self, obs_batch: np.ndarray):
        logits = self.actor.forward_np(obs_batch)
        return logits, [None] * obs_batch.shape[0]


def collect_rollout(source: ActionSource, vecenv: VecEnv,
                    value_fn: Callable[[np.ndarray], np.ndarray],
                    cfg: PpoConfig, rng: np.random.Generator) -> RolloutBuffer:
    """T steps of every env; ``value_fn`` maps (N, obs_dim) observations to (N, 1)."""
    T, N = cfg.num_steps, vecenv.num_envs
    obs_dim = vecenv.observations().shape[1]
    obs = np.empty((T, N, obs_dim))
    actions = np.empty((T, N), dtype=np.int64)
    rewards = np.empty((T, N))
    dones = np.empty((T, N), dtype=bool)
    logprobs = np.empty((T, N))
    values = np.empty((T, N))
    aux: list = []
    cur = vecenv.observations()
    for t in range(T):
        obs[t] = cur
        a, lp, ax = source.act(cur, rng)
        actions[t] = a
        logprobs[t] = lp
        aux.append(ax)
        values[t] = value_fn(cur)[:, 0]
        results = vecenv.vec_step(a)
        rewards[t] = [r.reward for r in results]
        dones[t] = [r.done for r in results]
        cur = np.stack([r.observation for r in results])
    bootstrap = value_fn(cur)[:, 0]
    return RolloutBuffer(obs, actions, rewards, dones, logprobs, values,
                         bootstrap, aux)


def compute_gae(buffer: RolloutBuffer, gamma: float, gae_lambda: float,
                norm_adv: bool = False) -> GaeOutput:
    T, N = buffer.rewards.shape
    adv = np.zeros((T, N))
    last = np.zeros(N)
    for t in range(T - 1, -1, -1):
        nonterminal = 1.0 - buffer.dones[t]
        next_value = buffer.bootstrap if t == T - 1 else buffer.values[t + 1]
        delta = buffer.rewards[t] + gamma * next_value * nonterminal - buffer.values[t]
        last = delta + gamma * gae_lambda * nonterminal * last
        adv[t] = last
    returns = adv + buffer.values
    if norm_adv:
        adv = (adv - adv.mean()) / (adv.std() + ADV_EPS)
    if not np.isfinite(adv).all():
        raise ContractError("GAE produced non-finite advantages")
    return GaeOutput(adv, returns)


def ppo_update(buffer: RolloutBuffer, gae: GaeOutput, actor: Mlp, critic: Mlp,
               cfg: PpoConfig, actor_opt: Adam, critic_opt: Adam,
               rng: np.random.Generator,
               logits_fn: Optional[Callable[[np.ndarray], tuple[Tensor, list[Tensor]]]] = None,
               values_fn: Optional[Callable[[np.ndarray], tuple[Tensor, list[Tensor]]]] = None,
               extra_opts: Sequence[Adam] = ()) -> UpdateStats:
    """Clipped-surrogate update with entropy bonus and target-KL early stop.

    logits_fn(flat_indices) -> (logits Tensor, trainable params beyond the
    learner actor's); defaults to the plain learner forward. The epoch loop
    stops at an epoch boundary once mean approximate KL exceeds target_kl.
    """
    B = buffer.num_steps * buffer.num_envs
    obs_flat = buffer.obs.reshape(B, -1)
    act_flat = buffer.actions.reshape(B)
    oldlogp_flat = buffer.logprobs.reshape(B)
    adv_flat = gae.advantages.reshape(B)
    ret_flat = gae.returns.reshape(B)
    val_flat = buffer.values.reshape(B)

    if logits_fn is None:
        def logits_fn(idx):
            return actor.forward(Tensor(obs_flat[idx])), []

    pl_sum = vl_sum = ent_sum = kl_sum = cf_sum = gn_sum = 0.0
    n_mb = 0
    epochs_run = 0
    for _epoch in range(cfg.update_epochs):
        perm = rng.permutation(B)
        epoch_kls = []
        for start in range(0, B, cfg.minibatch_size):
            idx = perm[start:start + cfg.minibatch_size]
            logits, extra_params = logits_fn(idx)
            logp_all = ad.log_softmax(logits)
            newlogp = ad.pick(logp_all, act_flat[idx])
            logratio = newlogp - Tensor(oldlogp_flat[idx])
            ratio = logratio.exp()
            mb_adv = Tensor(adv_flat[idx])
            surr1 = ratio * mb_adv
            surr2 = ad.clip(ratio, 1.0 - cfg.clip_coef, 1.0 + cfg.clip_coef) * mb_adv
            pg_loss = -ad.minimum(surr1, surr2).mean()
            probs = logp_all.exp()
            entropy = -(probs * logp_all).sum(axis=-1).mean()

            if values_fn is None:
                v = critic.forward(Tensor(obs_flat[idx])).reshape(-1)
                v_extra: list[Tensor] = []
            else:
                v, v_extra = values_fn(idx)
                v = v.reshape(-1)
            if cfg.clip_vloss:
                v_old = Tensor(val_flat[idx])
                v_clipped = v_old + ad.clip(v - v_old, -cfg.clip_coef, cfg.clip_coef)
                # the larger of the two squared errors, as -min(-a, -b)
                v_loss = -0.5 * ad.minimum(
                    -(v - Tensor(ret_flat[idx])).square(),
                    -(v_clipped - Tensor(ret_flat[idx])).square(),
                ).mean()
            else:
                v_loss = 0.5 * (v - Tensor(ret_flat[idx])).square().mean()

            loss = pg_loss - cfg.ent_coef * entropy + cfg.vf_coef * v_loss
            if not np.isfinite(loss.data):
                raise RuntimeError(
                    "ppo_update aborted: non-finite loss "
                    f"(pg={pg_loss.data}, v={v_loss.data}, ent={entropy.data})"
                )
            params = actor.parameters + critic.parameters + list(extra_params) + list(v_extra)
            ad.zero_grads(params)
            for opt in extra_opts:
                ad.zero_grads(opt.params)
            ad.backward(loss)
            gn = clip_grad_norm(params, cfg.max_grad_norm)
            actor_opt.step()
            critic_opt.step()
            # an optimizer whose parameters are off this minibatch's graph
            # (a checkpoint with no routed term) keeps its state
            for opt in extra_opts:
                if any(p.grad is not None for p in opt.params):
                    opt.step()

            with np.errstate(all="ignore"):
                kl = float((oldlogp_flat[idx] - newlogp.data).mean())
                cf = float((np.abs(ratio.data - 1.0) > cfg.clip_coef).mean())
            epoch_kls.append(kl)
            pl_sum += float(pg_loss.data)
            vl_sum += float(v_loss.data)
            ent_sum += float(entropy.data)
            kl_sum += kl
            cf_sum += cf
            gn_sum += gn
            n_mb += 1
        epochs_run += 1
        if np.mean(epoch_kls) > cfg.target_kl:
            break
    return UpdateStats(
        policy_loss=pl_sum / n_mb,
        value_loss=vl_sum / n_mb,
        entropy=ent_sum / n_mb,
        approx_kl=kl_sum / n_mb,
        clipfrac=cf_sum / n_mb,
        grad_norm=gn_sum / n_mb,
        epochs_run=epochs_run,
    )


@dataclass
class EvalResult:
    mean_return: float
    stderr: float
    returns: list[float]


def play_episode(source: ActionSource, spec: LevelSpec, max_len: int,
                 rng: np.random.Generator) -> tuple[list[np.ndarray], float, int]:
    """One sampled-action episode on a fresh level, acting one row at a time:
    the observations it acted on, its cumulative env reward, and its steps."""
    env = EnvInstance(spec, max_len)
    states = []
    total = 0.0
    while not env.done:
        obs = env.observation()
        states.append(obs)
        actions, _, _ = source.act(obs[None, :], rng)
        total += env.step(int(actions[0])).reward
    return states, total, env.episode_steps


def evaluate_policy(source: ActionSource, level_specs: Sequence[LevelSpec],
                    episodes: int, max_eval_ep_len: int,
                    rng: np.random.Generator) -> EvalResult:
    """Run sampled-action evaluation episodes over a level rotation.

    Per-episode score is cumulative env reward minus 0.01 per step taken.
    """
    returns = []
    for ep in range(episodes):
        _, total, steps = play_episode(source, level_specs[ep % len(level_specs)],
                                       max_eval_ep_len, rng)
        returns.append(total - EVAL_STEP_PENALTY * steps)
    arr = np.asarray(returns)
    stderr = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return EvalResult(float(arr.mean()), stderr, returns)
