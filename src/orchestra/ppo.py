"""Proximal Policy Optimization over separate actor and critic MLPs.

The rollout collector is generic over an "action source" so the same
machinery serves the plain learner, the checkpoint-orchestra joined policy,
and the progressive-network columns. Sources return per-env auxiliary
records (activation bitmask, best matches, the orchestra's part of the
logits) that the buffer stores verbatim; the update never recomputes them.
"""
from __future__ import annotations

import json
import os
from contextlib import nullcontext
from dataclasses import dataclass, asdict
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .blas import openblas_threads
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
        if not 0.0 < self.learning_rate < np.inf:       # NaN fails too
            raise ConfigError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        for key in ("gamma", "gae_lambda"):
            if not 0.0 <= getattr(self, key) <= 1.0:
                raise ConfigError(f"{key} must be in [0, 1], got {getattr(self, key)}")
        # NaN fails every comparison, so these reject it too; an infinite
        # max_grad_norm turns clipping off
        if not self.max_grad_norm > 0.0:
            raise ConfigError(f"max_grad_norm must be positive, got {self.max_grad_norm}")
        if not self.clip_coef >= 0.0:       # below 0, clip's bounds cross
            raise ConfigError(f"clip_coef must be non-negative, got {self.clip_coef}")
        if not 0.0 <= self.vf_coef < np.inf:
            raise ConfigError(f"vf_coef must be finite and non-negative, got {self.vf_coef}")
        if not np.isfinite(self.ent_coef):
            raise ConfigError(f"ent_coef must be finite, got {self.ent_coef}")


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
    cur = vecenv.observations()
    obs = np.empty((T, N, cur.shape[1]))
    actions = np.empty((T, N), dtype=np.int64)
    rewards = np.empty((T, N))
    dones = np.empty((T, N), dtype=bool)
    logprobs = np.empty((T, N))
    values = np.empty((T, N))
    aux: list = []
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
        cur = vecenv.observations()
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
               logits_fn: Optional[Callable[[np.ndarray], Tensor]] = None,
               values_fn: Optional[Callable[[np.ndarray], Tensor]] = None,
               extra_opts: Sequence[Adam] = ()) -> UpdateStats:
    """Clipped-surrogate update with entropy bonus and target-KL early stop.

    logits_fn(flat_indices) and values_fn(flat_indices) give the minibatch's
    logits and values as Tensors; they default to the plain actor and critic
    forwards. The optimizers name what the update trains: the parameters of
    ``actor_opt``, ``critic_opt`` and ``extra_opts`` are zeroed, clipped and
    stepped, in that order. The epoch loop stops at an epoch boundary once
    mean approximate KL exceeds target_kl.

    Each minibatch runs as two halves that share no parameter: the policy
    half (logits_fn, surrogate, entropy) and the value half (values_fn,
    value loss), each with its own backward. The gradient a parameter gets
    is the one the joint loss would give it, bit for bit. Where
    ``_worker_fits()``, the value half and ``critic_opt``'s step run on a
    worker thread that lives as long as this call.
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
            return actor.forward(Tensor(obs_flat[idx]))
    if values_fn is None:
        def values_fn(idx):
            return critic.forward(Tensor(obs_flat[idx]))
    opts = [actor_opt, critic_opt, *extra_opts]
    params = [p for opt in opts for p in opt.params]
    policy_opts = [actor_opt, *extra_opts]

    def policy_half(idx):
        """(policy loss, entropy, approximate KL, clip fraction)."""
        logits = logits_fn(idx)
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
        ad.backward(pg_loss - cfg.ent_coef * entropy)
        with np.errstate(all="ignore"):
            kl = float((oldlogp_flat[idx] - newlogp.data).mean())
            cf = float((np.abs(ratio.data - 1.0) > cfg.clip_coef).mean())
        return float(pg_loss.data), float(entropy.data), kl, cf

    def value_half(idx):
        """The value loss."""
        v = values_fn(idx).reshape(-1)
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
        ad.backward(cfg.vf_coef * v_loss)
        return float(v_loss.data)

    def step(group):
        # an optimizer whose parameters are off this minibatch's graph
        # (a checkpoint with no routed term) keeps its state
        for opt in group:
            if any(p.grad is not None for p in opt.params):
                opt.step()

    with _update_worker() as worker:
        pl_sum = vl_sum = ent_sum = kl_sum = cf_sum = gn_sum = 0.0
        n_mb = 0
        epochs_run = 0
        for _epoch in range(cfg.update_epochs):
            perm = rng.permutation(B)
            epoch_kls = []
            for start in range(0, B, cfg.minibatch_size):
                idx = perm[start:start + cfg.minibatch_size]
                ad.zero_grads(params)
                (pg, ent, kl, cf), vl = _side_by_side(
                    worker, partial(policy_half, idx), partial(value_half, idx))
                # the joint loss's value, summed as the joint graph summed it
                if not np.isfinite(pg - cfg.ent_coef * ent + cfg.vf_coef * vl):
                    raise RuntimeError(
                        f"ppo_update aborted: non-finite loss (pg={pg}, v={vl}, ent={ent})")
                gn = clip_grad_norm(params, cfg.max_grad_norm)
                _side_by_side(worker, partial(step, policy_opts), partial(step, [critic_opt]))

                epoch_kls.append(kl)
                pl_sum += pg
                vl_sum += vl
                ent_sum += ent
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


# --- the update's second thread -------------------------------------------------
#
# At one BLAS thread a matmul keeps one core busy, so on a host with two or
# more usable CPUs the update runs each minibatch's value half on one worker
# thread while the main thread runs the policy half. Each half does the
# arithmetic it does inline, and each BLAS call still runs one thread, so the
# outputs do not depend on whether the worker ran. A multi-threaded BLAS
# already uses the other cores, and there the halves run inline. Each update
# makes its worker and joins it before it returns, so no thread outlives it.


def _worker_fits() -> bool:
    """Whether the loaded OpenBLAS runs one thread and this process may use
    two or more CPUs. Where the OpenBLAS cannot be asked, it does not."""
    return openblas_threads() == 1 and len(os.sched_getaffinity(0)) >= 2


def _update_worker():
    """A context holding one update's worker, a one-thread executor that
    it shuts down on exit; where the halves run inline, it holds None."""
    if not _worker_fits():
        return nullcontext()
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="ppo-update")


def _side_by_side(worker, main_call, worker_call):
    """(main_call(), worker_call()), the second on ``worker`` when there is
    one. Both have finished when this returns or raises."""
    if worker is None:
        return main_call(), worker_call()
    future = worker.submit(worker_call)
    try:
        first = main_call()
    finally:
        second = future.result()
    return first, second


@dataclass
class EvalResult:
    mean_return: float
    stderr: float
    returns: list[float]


@dataclass
class Episode:
    """One played episode: the actions it sampled and its cumulative env reward."""
    actions: list[int]
    total: float = 0.0

    @property
    def steps(self) -> int:
        return len(self.actions)


def play_episodes(source: ActionSource, specs: Sequence[LevelSpec], max_len: int,
                  rng: np.random.Generator) -> list[Episode]:
    """One sampled-action episode on a fresh level per entry of ``specs``,
    played side by side.

    Each step makes one ``source.act`` over the episodes still running, in
    ``specs`` order, and an episode leaves the batch when it ends. An act
    draws one number per row, so a one-level call draws what acting one row
    at a time draws.
    """
    envs = [EnvInstance(spec, max_len) for spec in specs]
    episodes = [Episode([]) for _ in specs]
    obs = {i: env.observation() for i, env in enumerate(envs)}
    while obs:
        actions, _, _ = source.act(np.stack(list(obs.values())), rng)
        for i, a in zip(list(obs), actions.tolist()):
            result = envs[i].step(a)
            episodes[i].actions.append(a)
            episodes[i].total += result.reward
            if result.done:
                del obs[i]
            else:
                obs[i] = envs[i].observation()
    return episodes


def replay(spec: LevelSpec, max_len: int, actions: Sequence[int]) -> list[np.ndarray]:
    """The observations that an episode of ``actions`` on a fresh level acted
    on. A level has no runtime randomness, so they are the ones
    ``play_episodes`` acted on when it sampled those actions."""
    env = EnvInstance(spec, max_len)
    observations = [env.observation()]
    for a in actions[:-1]:
        env.step(a)
        observations.append(env.observation())
    return observations


def evaluate_policy(source: ActionSource, level_specs: Sequence[LevelSpec],
                    episodes: int, max_eval_ep_len: int,
                    rng: np.random.Generator) -> EvalResult:
    """Run sampled-action evaluation episodes over a level rotation, side by
    side (``play_episodes``).

    Per-episode score is cumulative env reward minus 0.01 per step taken.
    """
    specs = [level_specs[ep % len(level_specs)] for ep in range(episodes)]
    returns = [ep.total - EVAL_STEP_PENALTY * ep.steps
               for ep in play_episodes(source, specs, max_eval_ep_len, rng)]
    arr = np.asarray(returns)
    stderr = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return EvalResult(float(arr.mean()), stderr, returns)
