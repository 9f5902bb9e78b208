"""Checkpointed policy orchestra: trusted-state harvesting, similarity
activation, hierarchical recency weights, recursive joined logits, and
activation-masked gradient routing into the PPO update.

A checkpoint is a frozen actor snapshot paired with the states it was seen
succeeding in. At act time every checkpoint whose trusted set contains a
state sufficiently similar to the current one contributes its own joined
logits (evaluated at that best-matching state, over the checkpoints older
than itself), scaled by a recency-biased weight.
"""
from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, require_positive
from .nn import Adam, Mlp, load_params, mlp_named_arrays, load_mlp_arrays, save_params
from .envs import LevelSpec
from .ppo import ActionSource, GaeOutput, PpoConfig, RolloutBuffer, UpdateStats, play_episode, ppo_update


@dataclass
class HopConfig:
    min_similarity_score: float = 0.98   # activation threshold on cosine similarity
    reward_limit: float = 7.5            # episodic-return gate for trusted states
    checkpoint_interval: int = 500_000   # steps between checkpoint attempts
    trusted_cap: int = 4096              # per-checkpoint state budget (reservoir)
    checkpoint_gradients: bool = True    # route masked gradients into checkpoints
    eval_episodes: int = 10              # episodes run per checkpoint attempt
    attributes: str = "joined"           # "joined" or "learner" log-prob source

    def validate(self):
        if not 0.0 < self.min_similarity_score < 1.0:
            raise ConfigError("min_similarity_score must be in (0, 1)")
        if self.attributes not in ("joined", "learner"):
            raise ConfigError("attributes must be 'joined' or 'learner'")
        require_positive(self, "checkpoint_interval", "trusted_cap", "eval_episodes")


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ContractError("cosine_similarity: zero vector")
    return float(a @ b / (na * nb))


def _digest(state_bytes: bytes) -> bytes:
    return hashlib.blake2b(state_bytes, digest_size=16).digest()


class TrustedStateSet:
    """Stored observations with exact dedup and a reservoir cap.

    ``raw`` keeps each state once, as observed: it is what a checkpoint's
    actor is fed, and ``matrix`` derives the unit vectors of the similarity
    scan from it. ``episode_returns`` records, per stored state, the return
    of the episode it was harvested from (audit trail for the reward gate).
    ``_seen`` holds a 16-byte digest of every state ever ingested, evicted
    ones included, so the reservoir samples a deduplicated stream.
    """

    def __init__(self, cap: int, rng: np.random.Generator):
        self.cap = cap
        self._rng = rng
        self._seen: set[bytes] = set()
        self._ingested = 0
        self.raw: list[np.ndarray] = []
        self.episode_returns: list[float] = []

    def __len__(self) -> int:
        return len(self.raw)

    def __setstate__(self, state: dict):
        # older pickles also carry unit vectors, and key _seen by each state's
        # full bytes: a stored state's own bytes are then among the keys
        state = {k: v for k, v in state.items() if k not in ("units", "_matrix")}
        if state["raw"] and state["raw"][0].tobytes() in state["_seen"]:
            state["_seen"] = set(map(_digest, state["_seen"]))
        self.__dict__.update(state)

    @property
    def matrix(self) -> np.ndarray:
        """Unit vectors of the stored states, one row each."""
        return np.stack([s / np.linalg.norm(s) for s in self.raw])

    def add_episode(self, states: Sequence[np.ndarray], episode_return: float):
        for s in states:
            s = np.asarray(s, dtype=np.float64)
            key = _digest(s.tobytes())
            if key in self._seen:
                continue
            self._seen.add(key)
            if np.linalg.norm(s) == 0.0:
                raise ContractError("trusted state must be nonzero")
            # reservoir sampling (algorithm R) over the deduplicated stream
            if len(self.raw) < self.cap:
                self.raw.append(s)
                self.episode_returns.append(episode_return)
            else:
                j = int(self._rng.integers(0, self._ingested + 1))
                if j < self.cap:
                    self.raw[j] = s
                    self.episode_returns[j] = episode_return
            self._ingested += 1

    def find_most_similar(self, state: np.ndarray) -> tuple[np.ndarray, float, int]:
        """Best stored match by cosine similarity; ties break to the lowest index.

        Returns (raw stored state, similarity, index).
        """
        if not self.raw:
            raise ContractError("find_most_similar on an empty trusted set")
        q = np.asarray(state, dtype=np.float64)
        norm = np.linalg.norm(q)
        if norm == 0.0:
            raise ContractError("query state must be nonzero")
        sims = self.matrix @ (q / norm)
        idx = int(np.argmax(sims))
        return self.raw[idx], float(sims[idx]), idx


@dataclass
class CheckpointPolicy:
    index: int                     # 1-based creation order
    actor: Mlp
    trusted: TrustedStateSet
    created_step: int
    opt: Optional[Adam] = None


@dataclass
class Orchestra:
    checkpoints: list[CheckpointPolicy] = field(default_factory=list)
    _index: Optional["JoinedIndex"] = field(default=None, init=False, repr=False,
                                            compare=False)

    def __len__(self) -> int:
        return len(self.checkpoints)

    def __getstate__(self):
        # the index is a cache of the trusted sets; it is rebuilt on first use
        return {**self.__dict__, "_index": None}

    def joined_index(self, omega: float) -> "JoinedIndex":
        """The joined index of the checkpoints as they are now. Checkpoints
        appended since the last call are added to it; any other change to
        the list, or another omega, rebuilds it."""
        index = self._index
        if (index is None or index.omega != omega or len(index) > len(self)
                or any(map(operator.is_not, index.checkpoints, self.checkpoints))):
            index = self._index = JoinedIndex([], omega)
        if len(index) < len(self.checkpoints):
            index.extend(self.checkpoints)
        return index


@dataclass
class ActivationVector:
    bitmask: np.ndarray                      # bool (M,)


def hierarchical_weights(bitmask: np.ndarray) -> np.ndarray:
    """W_m = I_m / (1 + number of active checkpoints at index >= m), along
    the last axis."""
    I = np.asarray(bitmask, dtype=np.float64)
    suffix = np.cumsum(I[..., ::-1], axis=-1)[..., ::-1]
    return I / (1.0 + suffix)


# --- joined-logit expansion -------------------------------------------------
#
# The joined policy is evaluated by flattening its recursion into a list of
# (checkpoint, coefficient, query state) terms. An active checkpoint m adds
# its actor at its best-matching trusted state s*, plus the joined policy of
# checkpoints 1..m-1 at s*, both scaled by W_m; so each term's coefficient is
# the product of the weights along its recursion path. s* is one of m's own
# trusted states, so that inner expansion depends only on the trusted sets
# and omega: it is computed once per trusted state, bottom-up, and looked up.


# Entries of the similarity matrix (rows x stacked states) that one scan
# builds while the tables are filled, which bounds its memory.
_SCAN_CELLS = 1 << 20


class JoinedIndex:
    """The trusted sets of a list of checkpoints, arranged for batched
    joined-policy expansion.

    ``units_t`` stacks every checkpoint's unit vectors as the columns of one
    ``D x S`` matrix, checkpoint m owning columns ``offsets[m]:offsets[m+1]``.
    ``tables[m][i]`` holds the ``(k, coeff, j)`` terms of the joined policy of
    checkpoints ``< m`` at m's trusted state i, where j indexes checkpoint k's
    trusted set. Nothing here depends on actor weights, and nothing about
    checkpoint m on checkpoints after it, so appending checkpoints extends
    the index.
    """

    def __init__(self, checkpoints: Sequence[CheckpointPolicy], omega: float):
        self.omega = omega
        self.checkpoints: list[CheckpointPolicy] = []
        self.offsets = np.zeros(1, dtype=np.int64)
        self.units_t: Optional[np.ndarray] = None
        self.tables: list[list[list]] = []
        self.extend(checkpoints)

    def __len__(self) -> int:
        return len(self.checkpoints)

    def extend(self, checkpoints: Sequence[CheckpointPolicy]):
        """Index the checkpoints after the ones indexed so far."""
        new = checkpoints[len(self):]
        if any(not c.trusted.raw for c in new):
            raise ContractError("joined expansion over an empty trusted set")
        if not new:
            return
        start = len(self)
        self.checkpoints += new
        self.offsets = np.cumsum([0] + [len(c.trusted) for c in self.checkpoints])
        units = np.ascontiguousarray(np.concatenate([c.trusted.matrix for c in new]).T)
        self.units_t = units if self.units_t is None else \
            np.concatenate([self.units_t, units], axis=1)
        for m in range(start, len(self)):
            raw = self.checkpoints[m].trusted.raw
            step = max(1, _SCAN_CELLS // max(1, int(self.offsets[m])))
            self.tables.append([row for s in range(0, len(raw), step)
                                for row in self.expand(raw[s:s + step], m)[1]])

    def state(self, k: int, j: int) -> np.ndarray:
        """Trusted state j of checkpoint k (1-based), the stored row itself."""
        return self.checkpoints[k - 1].trusted.raw[j]

    def _scan(self, queries: Sequence[np.ndarray], count: int):
        """Index of the best match in each of the first ``count`` trusted sets
        (ties break to the lowest index), and whether it activates, per row."""
        q = np.asarray(queries, dtype=np.float64)
        norms = np.linalg.norm(q, axis=1)
        if not norms.all():
            raise ContractError("query state must be nonzero")
        q = q / norms[:, None]
        cols = np.flatnonzero(q.any(axis=0))
        bounds = self.offsets[:count + 1]
        sims = q[:, cols] @ self.units_t[cols, :bounds[-1]]
        best = np.stack([sims[:, a:b].argmax(axis=1) for a, b in zip(bounds, bounds[1:])],
                        axis=1)
        return best, np.maximum.reduceat(sims, bounds[:-1], axis=1) > self.omega

    def expand(self, queries: Sequence[np.ndarray], count: int):
        """Activation bitmask ``(N, count)`` of the first ``count`` checkpoints
        at N query states and, per row, the ``(k, coeff, j)`` terms of their
        joined policy."""
        if count == 0:
            return np.zeros((len(queries), 0), dtype=bool), [[] for _ in queries]
        best, bitmask = self._scan(queries, count)
        weights = hierarchical_weights(bitmask)
        terms = []
        for bits, idx, w_row in zip(bitmask.tolist(), best.tolist(), weights.tolist()):
            row = []
            for m, (on, w, i) in enumerate(zip(bits, w_row, idx)):
                if on:
                    row.append((m + 1, w, i))
                    row.extend((k, w * coeff, j) for k, coeff, j in self.tables[m][i])
            terms.append(row)
        return bitmask, terms


def expand_joined(orchestra: Orchestra, state: np.ndarray, omega: float):
    """Activation bitmask plus flattened ``(k, coeff, state)`` checkpoint
    terms for one state."""
    index = orchestra.joined_index(omega)
    bitmask, terms = index.expand(np.asarray(state)[None, :], len(index))
    return (ActivationVector(bitmask[0]),
            [(k, coeff, index.state(k, j)) for k, coeff, j in terms[0]])


class JoinedSource(ActionSource):
    """Action source sampling from the joined policy of learner + orchestra."""

    def __init__(self, learner: Mlp, orchestra: Orchestra, cfg: HopConfig):
        self.learner = learner
        self.orchestra = orchestra
        self.cfg = cfg

    def logits_and_aux(self, obs_batch: np.ndarray):
        """Learner logits plus every checkpoint term of the joined policy,
        each checkpoint evaluated once per distinct trusted state."""
        learner_logits = self.learner.forward_np(obs_batch)
        logits = learner_logits.copy()
        index = self.orchestra.joined_index(self.cfg.min_similarity_score)
        bitmask, terms = index.expand(obs_batch, len(index))
        outputs: dict = {}
        aux = []
        for n, row in enumerate(terms):
            row_terms = []
            for k, coeff, j in row:
                s = index.state(k, j)
                out = outputs.get((k, j))
                if out is None:
                    out = self.orchestra.checkpoints[k - 1].actor.forward_np(s[None, :])[0]
                    outputs[(k, j)] = out
                logits[n] += coeff * out
                row_terms.append((k, coeff, s))
            aux.append({
                "bitmask": bitmask[n],
                "terms": row_terms,
                "learner_logits": learner_logits[n],
            })
        return logits, aux

    def behavior_logits(self, logits: np.ndarray, aux) -> np.ndarray:
        if self.cfg.attributes == "learner":
            return np.stack([a["learner_logits"] for a in aux])
        return logits


def checkpoint_now(learner: Mlp, orchestra: Orchestra,
                   level_specs: Sequence[LevelSpec], hop_cfg: HopConfig,
                   max_eval_ep_len: int, rng: np.random.Generator,
                   created_step: int, learning_rate: float) -> Optional[CheckpointPolicy]:
    """Freeze the learner, harvest trusted states from fresh evaluation
    episodes whose raw return beats the reward limit, and append the
    checkpoint to the orchestra. Returns None when every episode failed.

    Mutates only the orchestra and the rng passed in; the learner and the
    training environments are untouched.
    """
    snapshot = learner.clone()
    source = JoinedSource(learner, orchestra, hop_cfg)
    trusted = TrustedStateSet(hop_cfg.trusted_cap, rng)
    for ep in range(hop_cfg.eval_episodes):
        states, total, _ = play_episode(source, level_specs[ep % len(level_specs)],
                                        max_eval_ep_len, rng)
        if total > hop_cfg.reward_limit:
            trusted.add_episode(states, total)
    if len(trusted) == 0:
        return None
    ckpt = CheckpointPolicy(
        index=len(orchestra) + 1,
        actor=snapshot,
        trusted=trusted,
        created_step=created_step,
    )
    if hop_cfg.checkpoint_gradients:
        ckpt.opt = Adam(ckpt.actor.parameters, learning_rate)
    orchestra.checkpoints.append(ckpt)
    return ckpt


def _stack_terms(entries: list[tuple[int, float, np.ndarray]]):
    """(row, coefficient, state) entries as row indices, a coefficient
    column and a state matrix."""
    rows = np.fromiter((e[0] for e in entries), dtype=np.int64)
    coeffs = np.fromiter((e[1] for e in entries), dtype=np.float64)
    return rows, coeffs[:, None], np.stack([e[2] for e in entries])


def masked_policy_update(buffer: RolloutBuffer, gae: GaeOutput, learner: Mlp,
                         critic: Mlp, orchestra: Orchestra, ppo_cfg: PpoConfig,
                         hop_cfg: HopConfig, actor_opt: Adam, critic_opt: Adam,
                         rng: np.random.Generator) -> UpdateStats:
    """PPO update on the joined policy with activation-masked gradient flow.

    Checkpoint m's parameters enter the graph only on timesteps whose stored
    bitmask has bit m set (and only when checkpoint gradients are enabled);
    every other checkpoint contribution is folded in as a constant.
    """
    B = buffer.num_steps * buffer.num_envs
    M = len(orchestra)
    flat_aux = [buffer.aux[t][n]
                for t in range(buffer.num_steps)
                for n in range(buffer.num_envs)]
    for a in flat_aux:
        if a is not None and len(a["bitmask"]) != M:
            raise ContractError(
                f"stored bitmask length {len(a['bitmask'])} != checkpoint count {M}"
            )
    obs_flat = buffer.obs.reshape(B, -1)
    n_actions = learner.sizes[-1]
    route_grads = hop_cfg.checkpoint_gradients
    learner_mode = hop_cfg.attributes == "learner"

    def logits_fn(idx: np.ndarray):
        logits = learner.forward(Tensor(obs_flat[idx]))
        if learner_mode or M == 0:
            return logits, []
        const = np.zeros((len(idx), n_actions))
        grad_batches: dict[int, list] = {}
        const_batches: dict[int, list] = {}
        for row, t in enumerate(idx):
            a = flat_aux[t]
            if a is None:
                continue
            bitmask = a["bitmask"]
            for k, coeff, s in a["terms"]:
                if route_grads and bitmask[k - 1]:
                    grad_batches.setdefault(k, []).append((row, coeff, s))
                else:
                    const_batches.setdefault(k, []).append((row, coeff, s))
        for k, entries in const_batches.items():
            rows, coeffs, states = _stack_terms(entries)
            out = orchestra.checkpoints[k - 1].actor.forward_np(states)
            np.add.at(const, rows, coeffs * out)
        logits = logits + Tensor(const)
        extra_params = []
        for k, entries in grad_batches.items():
            rows, coeffs, states = _stack_terms(entries)
            ckpt = orchestra.checkpoints[k - 1]
            out = ckpt.actor.forward(Tensor(states))
            logits = ad.index_add(logits, rows, out * Tensor(coeffs))
            extra_params.extend(ckpt.actor.parameters)
        return logits, extra_params

    extra_opts = [c.opt for c in orchestra.checkpoints
                  if c.opt is not None and route_grads and not learner_mode]
    return ppo_update(buffer, gae, learner, critic, ppo_cfg, actor_opt,
                      critic_opt, rng, logits_fn=logits_fn, extra_opts=extra_opts)


# --- on-disk checkpoint bundles ----------------------------------------------


def save_checkpoint(ckpt: CheckpointPolicy, directory, hop_cfg: HopConfig):
    """Directory bundle: manifest + actor blob + trusted states."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "index": ckpt.index,
        "created_step": ckpt.created_step,
        "num_trusted_states": len(ckpt.trusted),
        "min_similarity_score": hop_cfg.min_similarity_score,
        "reward_limit": hop_cfg.reward_limit,
        "actor_sizes": ckpt.actor.sizes,
    }
    with open(directory / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=1)
    save_params(directory / "actor.blob", mlp_named_arrays(ckpt.actor))
    save_params(directory / "trusted.blob", {
        "raw": np.stack(ckpt.trusted.raw),
        "episode_returns": np.asarray(ckpt.trusted.episode_returns),
    })


def load_checkpoint(directory, rng: Optional[np.random.Generator] = None) -> CheckpointPolicy:
    """A bundle written by ``save_checkpoint``; a ``units`` entry, which
    older bundles carry, is ignored."""
    directory = Path(directory)
    with open(directory / "manifest.json") as f:
        manifest = json.load(f)
    actor = Mlp(manifest["actor_sizes"], np.random.default_rng(0))
    load_mlp_arrays(actor, load_params(directory / "actor.blob"))
    blobs = load_params(directory / "trusted.blob")
    trusted = TrustedStateSet(cap=max(len(blobs["raw"]), 1),
                              rng=rng or np.random.default_rng(0))
    for raw, ret in zip(blobs["raw"], blobs["episode_returns"]):
        trusted.add_episode([raw], float(ret))
    return CheckpointPolicy(
        index=manifest["index"],
        actor=actor,
        trusted=trusted,
        created_step=manifest["created_step"],
    )
