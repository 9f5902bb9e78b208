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
import queue
from contextlib import nullcontext
from dataclasses import dataclass, asdict
from functools import partial, reduce
from operator import add
from typing import Callable, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .blas import openblas_threads
from .errors import ConfigError, ContractError, require_positive
from .nn import Adam, Mlp, sample_categorical_batch
from .envs import EnvInstance, LevelSpec, VecEnv

ADV_EPS = 1e-8
LOGP_TOL = 1e-9     # largest act-to-update log-prob gap at an update's start
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
        if np.isnan(self.target_kl):     # inf turns the early stop off
            raise ConfigError(f"target_kl must not be NaN, got {self.target_kl}")
        if not np.isfinite(self.ent_coef):
            raise ConfigError(f"ent_coef must be finite, got {self.ent_coef}")


@dataclass
class RolloutBuffer:
    obs: np.ndarray        # (T, N, obs_dim) uint8
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
    """T steps of every env; ``value_fn`` maps (N, obs_dim) observations to (N, 1).

    The buffer stores the observations as ``uint8``, the binary cells they
    are; an observation that does not round-trip raises ContractError.
    """
    T, N = cfg.num_steps, vecenv.num_envs
    cur = vecenv.observations()
    obs = np.empty((T, N, cur.shape[1]), dtype=np.uint8)
    actions = np.empty((T, N), dtype=np.int64)
    rewards = np.empty((T, N))
    dones = np.empty((T, N), dtype=bool)
    logprobs = np.empty((T, N))
    values = np.empty((T, N))
    aux: list = []
    for t in range(T):
        obs[t] = cur
        if not (obs[t] == cur).all():
            raise ContractError("collect_rollout: an observation does not round-trip as uint8")
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
               logits_fn: Optional[Callable[[np.ndarray], ad.Node]] = None,
               extra_opts: Sequence[Adam] = (),
               tasks: Optional[queue.SimpleQueue] = None) -> UpdateStats:
    """Clipped-surrogate update with entropy bonus and target-KL early stop.

    The actor and critic are networks with ``Mlp``'s ``forward``.
    logits_fn(flat_indices) gives the minibatch's logits as a ``Node``; it
    defaults to the actor's forward. The optimizers name what the update
    trains: the parameters of ``actor_opt``, ``critic_opt`` and
    ``extra_opts`` are zeroed, clipped and stepped, in that order. The
    epoch loop stops at an epoch boundary once mean approximate KL exceeds
    target_kl. Before its first step, the update checks that it trains the
    policy that acted: on the first minibatch, the log-prob of each taken
    action must be within LOGP_TOL of the stored one (ContractError).

    Each minibatch runs as two halves that share no parameter: the policy
    half (logits_fn, surrogate, entropy) and the value half (the critic's
    forward, value loss), each with its own backward. The gradient a
    parameter gets is the one the joint loss would give it, bit for bit.
    ``tasks``, where given, is the queue into which the policy half's
    backward puts zero-argument tasks (HOP's routed snapshot backwards); each
    half then runs tasks until it takes an end mark. Clip and steps run per
    parameter in two ``_lanes``. Where ``_worker_fits()``, the value half,
    its share of the tasks and the second lane run on a worker thread.
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
            return actor.forward(obs_flat[idx])
    opts = [actor_opt, critic_opt, *extra_opts]
    params = [p for opt in opts for p in opt.params]

    def policy_half(idx):
        """(policy loss, entropy, approximate KL, clip fraction, log-prob gap)."""
        loss, stats = policy_loss(logits_fn(idx), act_flat[idx], oldlogp_flat[idx],
                                  adv_flat[idx], cfg)
        ad.backward(loss)
        return stats

    def value_half(idx):
        """The value loss."""
        loss, v_loss = value_loss(critic.forward(obs_flat[idx]), ret_flat[idx],
                                  val_flat[idx], cfg)
        ad.backward(loss)
        return v_loss

    def drained(half, marks, idx):
        """``half(idx)``, then the ``tasks`` queued up to an end mark; ``marks``
        end marks go in after the half, whether it returns or raises."""
        try:
            result = half(idx)
        finally:
            for _ in range(marks):
                tasks.put(None)
        for task in iter(tasks.get, None):
            task()
        return result

    halves = (policy_half, value_half)
    if tasks is not None:       # the policy half queues every task; each side takes one mark
        halves = (partial(drained, policy_half, 2), partial(drained, value_half, 0))

    with _update_worker() as worker:
        stats = []      # (pg, vl, ent, kl, cf, gn) of each minibatch, in order
        starts = range(0, B, cfg.minibatch_size)
        for epochs_run in range(1, cfg.update_epochs + 1):
            perm = rng.permutation(B)
            for start in starts:
                idx = perm[start:start + cfg.minibatch_size]
                ad.zero_grads(params)
                (pg, ent, kl, cf, gap), vl = _side_by_side(
                    worker, *(partial(half, idx) for half in halves))
                # the joint loss's value, summed as the joint graph summed it
                if not np.isfinite(pg - cfg.ent_coef * ent + cfg.vf_coef * vl):
                    raise RuntimeError(
                        f"ppo_update aborted: non-finite loss (pg={pg}, v={vl}, ent={ent})")
                if not stats and gap > LOGP_TOL:
                    raise ContractError(
                        f"ppo_update: a taken action's log-prob is {gap:.3g} from the stored "
                        "one; the update does not train the policy that acted")
                lanes = _lanes(opts)     # clip_grad_norm(params) and steps, by parameter
                squares = _side_by_side(worker, *(partial(_squares, lane) for lane in lanes))
                total = 0.0
                for _, sq in sorted(squares[0] + squares[1]):   # in params order
                    total += sq
                gn = float(np.sqrt(total))
                scale = cfg.max_grad_norm / gn if gn > cfg.max_grad_norm and gn > 0.0 else None
                _side_by_side(worker, *(partial(_step_lane, lane, scale) for lane in lanes))
                stats.append((pg, vl, ent, kl, cf, gn))
            if np.mean([mb[3] for mb in stats[-len(starts):]]) > cfg.target_kl:
                break       # the epoch just run went too far
    # each column summed in minibatch order, from 0.0, as running sums add
    return UpdateStats(*(reduce(add, column, 0.0) / len(stats) for column in zip(*stats)),
                       epochs_run=epochs_run)


def policy_loss(logits: ad.Node, actions: np.ndarray, oldlogp: np.ndarray,
                adv: np.ndarray, cfg: PpoConfig):
    """The clipped surrogate loss minus ``ent_coef`` times the mean entropy,
    as a node over the (B, A) logits, and (policy loss, entropy, approximate
    KL, clip fraction, largest ``|newlogp - oldlogp|``). Its ``back`` does a
    per-op graph's arithmetic (log-softmax, pick, ratio, clip, min, entropy)
    in its order of accumulation, so the gradient keeps that graph's bits. A
    tie of the two surrogate terms sends the gradient to the unclipped one."""
    z = logits.data
    if np.isnan(z).any():
        raise ContractError("log_softmax: NaN in logits")
    n = len(actions)
    shift = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shift)
    s = e.sum(axis=-1, keepdims=True)
    logp_all = shift - np.log(s)
    rows = np.arange(n)
    newlogp = logp_all[rows, actions]
    ratio = np.exp(newlogp - oldlogp)
    lo, hi = 1.0 - cfg.clip_coef, 1.0 + cfg.clip_coef
    surr1, surr2 = ratio * adv, np.clip(ratio, lo, hi) * adv
    first = surr1 <= surr2
    pg_loss = np.where(first, surr1, surr2).sum() * (1.0 / n) * -1.0
    probs = np.exp(logp_all)
    entropy = (probs * logp_all).sum(axis=-1).sum() * (1.0 / n) * -1.0

    def back(g):
        g_min = g * -1.0 * (1.0 / n)                 # d/d min(surr1, surr2), per row
        g_ratio = g_min * first * adv
        g_ratio += g_min * ~first * adv * ((ratio > lo) & (ratio < hi))
        g_logp = np.zeros_like(logp_all)
        g_logp[rows, actions] += g_ratio * ratio
        g_plogp = -g * cfg.ent_coef * -1.0 * (1.0 / n)   # d/d (probs * logp_all)
        g_logp += g_plogp * probs
        g_logp += g_plogp * logp_all * probs
        g_s = (-g_logp).sum(axis=-1, keepdims=True) / s
        g_logp += g_s * e
        logits.back(g_logp)

    with np.errstate(all="ignore"):
        drift = oldlogp - newlogp
        kl, gap = float(drift.mean()), float(np.abs(drift).max())
        cf = float((np.abs(ratio - 1.0) > cfg.clip_coef).mean())
    return ad.Node(pg_loss - cfg.ent_coef * entropy, back), \
        (float(pg_loss), float(entropy), kl, cf, gap)


def value_loss(values: ad.Node, returns: np.ndarray, old_values: np.ndarray,
               cfg: PpoConfig):
    """``vf_coef`` times the value loss, as a node over the (B, 1)
    values, and the value loss: half the mean squared error against
    ``returns``. With ``clip_vloss``, each row takes the larger of that error
    and the one of ``old_values`` plus the change clipped to ±``clip_coef``
    (a tie takes the first). Its ``back`` is built as ``policy_loss``'s."""
    v = values.data.reshape(-1)
    n = len(v)
    d = v - returns
    if cfg.clip_vloss:
        cc = cfg.clip_coef
        dv = v - old_values
        d_clipped = old_values + np.clip(dv, -cc, cc) - returns
        neg, neg_clipped = d * d * -1.0, d_clipped * d_clipped * -1.0
        first = neg <= neg_clipped
        loss = -0.5 * (np.where(first, neg, neg_clipped).sum() * (1.0 / n))
    else:
        loss = 0.5 * ((d * d).sum() * (1.0 / n))

    def back(g):
        if cfg.clip_vloss:
            g_max = g * cfg.vf_coef * -0.5 * (1.0 / n)
            g_v = g_max * first * -1.0 * 2.0 * d
            g_d = g_max * ~first * -1.0 * 2.0 * d_clipped
            g_v += g_d * ((dv > -cc) & (dv < cc))
        else:
            g_v = g * cfg.vf_coef * 0.5 * (1.0 / n) * 2.0 * d
        values.back(g_v.reshape(values.data.shape))

    return ad.Node(cfg.vf_coef * loss, back), float(loss)


# --- the update's second thread -------------------------------------------------
#
# At one BLAS thread a matmul keeps one core busy, so on a host with two or
# more usable CPUs the update runs each minibatch's value half on one worker
# thread while the main thread runs the policy half, then splits the norm and
# Adam steps by parameter. HOP's routed snapshot backwards are queued tasks
# that both threads take once their halves are done; a snapshot shares no
# parameter with anything else the update trains, so the thread that ran
# its task does not change its gradient. Each part does its inline
# arithmetic at one BLAS thread, so the outputs do not depend on whether
# the worker ran. A multi-threaded BLAS already uses the other cores, and
# there all runs inline.
# Each update makes and joins its own worker, so no thread outlives it.


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


def _lanes(opts: Sequence[Adam]) -> tuple[list, list]:
    """Count a step of each of ``opts`` with a gradient (the others, such as a
    snapshot with no routed term, keep their state); deal its parameters with
    one, as (position, parameter, Adam update), into two lanes that the actor's
    and the critic's start, each other largest first to the lane with fewer elements."""
    lanes, rest, k = ([], []), [], 0
    for n, opt in enumerate(opts):
        if any(p.grad is not None for p in opt.params):
            bc = opt.bias_correction()
            for i, p in enumerate(opt.params):
                if p.grad is not None:
                    (lanes[n] if n < 2 else rest).append((k + i, p, partial(opt.update, i, *bc)))
        k += len(opt.params)
    sizes = [sum(e[1].data.size for e in lane) for lane in lanes]
    for e in sorted(rest, key=lambda e: -e[1].data.size):   # stable: ties keep their order
        n = int(sizes[1] < sizes[0])
        lanes[n].append(e)
        sizes[n] += e[1].data.size
    return lanes


def _squares(lane) -> list[tuple[int, float]]:
    """(position, its gradient's squared l2 norm) per parameter of a lane."""
    return [(k, float((p.grad * p.grad).sum())) for k, p, _ in lane]


def _step_lane(lane, scale: Optional[float]):
    """Scale each gradient of a lane by ``scale``, unless it is None, and step it."""
    for _, p, update in lane:
        if scale is not None:
            p.grad *= scale
        update()


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
