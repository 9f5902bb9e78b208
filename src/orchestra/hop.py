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

import functools
import hashlib
import json
import operator
import queue
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ContractError, require_positive
from .nn import Adam, Mlp
from .envs import LevelSpec
from .ppo import (ActionSource, GaeOutput, PpoConfig, RolloutBuffer, UpdateStats,
                  play_episodes, ppo_update, replay)


@dataclass
class HopConfig:
    min_similarity_score: float = 0.98   # activation threshold on cosine similarity
    reward_limit: float = 7.5            # episodic-return gate for trusted states
    checkpoint_interval: int = 24_576    # steps between checkpoint attempts (desk scale)
    trusted_cap: int = 4096              # per-checkpoint state budget (reservoir)
    checkpoint_gradients: bool = True    # route masked gradients into checkpoints
    eval_episodes: int = 10              # episodes run per checkpoint attempt

    def validate(self):
        if not 0.0 < self.min_similarity_score < 1.0:
            raise ConfigError("min_similarity_score must be in (0, 1)")
        require_positive(self, "checkpoint_interval", "trusted_cap", "eval_episodes")
        if np.isnan(self.reward_limit):     # no return would pass the gate
            raise ConfigError("reward_limit must not be NaN")


def _digest(state_bytes: bytes) -> bytes:
    return hashlib.blake2b(state_bytes, digest_size=16).digest()


class TrustedStateSet:
    """Stored observations with exact dedup and a reservoir cap.

    ``raw`` keeps each state once, as observed and in the dtype it was
    given (MiniProc's ``uint8``): it is what a checkpoint's actor is fed, and
    ``matrix`` derives the float64 unit vectors of the similarity scan from
    it. ``episode_returns`` records, per stored state, the return of the
    episode it was harvested from (audit trail for the reward gate).
    ``_seen`` holds a 16-byte digest of every state ever ingested, evicted
    ones included, so the reservoir samples a deduplicated stream; a digest
    is taken over the state's float64 value, so one state deduplicates
    whatever its dtype.
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

    def __getstate__(self):
        # sorted, so the pickle's bytes do not depend on the per-process
        # hash salt that orders a set of bytes
        return {**self.__dict__, "_seen": sorted(self._seen)}

    def __setstate__(self, state: dict):
        self.__dict__.update(state, _seen=set(state["_seen"]))

    @property
    def matrix(self) -> np.ndarray:
        """Unit vectors of the stored states, one row each."""
        return np.stack([s / np.linalg.norm(s) for s in self.raw])

    def add_episode(self, states: Sequence[np.ndarray], episode_return: float):
        for s in states:
            s = np.asarray(s)
            key = _digest(s.astype(np.float64, copy=False).tobytes())
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

        Returns (raw stored state, similarity, index). ``JoinedIndex.scan``
        does the acting; this is kept as the tests' oracle and a perfbench span.
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
# The joined policy is a sum of (checkpoint, coefficient, state) terms. An
# active checkpoint m adds its actor at its best-matching trusted state s*,
# plus the joined policy of checkpoints 1..m-1 at s*, both scaled by W_m; so
# each term's coefficient is the product of the weights along its recursion
# path. s* is one of m's own trusted states, so the expansion below it
# depends only on the trusted sets and omega: it is computed once per trusted
# state, bottom-up, and looked up. Every term is a checkpoint's actor at one
# of that checkpoint's own trusted states, so one forward of each actor over
# its trusted set holds every value a term can take, and folding each trusted
# state's expansion over those outputs leaves one logit row per trusted state.


# Entries of the similarity matrix (rows x stacked states) that one scan
# builds while the tables are filled, which bounds its memory.
_SCAN_CELLS = 1 << 20


class Terms(NamedTuple):
    """Flat joined-policy terms, ordered by row, then by active checkpoint,
    each checkpoint's own term ahead of the terms below it. ``k`` is 1-based
    and ``g`` indexes the stacked trusted states of the joined index."""
    row: np.ndarray
    k: np.ndarray
    coeff: np.ndarray
    g: np.ndarray


class JoinedIndex:
    """The trusted sets of a list of checkpoints, arranged for batched
    joined-policy evaluation.

    ``units_t`` stacks every checkpoint's unit vectors as the columns of one
    ``D x S`` matrix, checkpoint m owning columns ``offsets[m]:offsets[m+1]``;
    a stacked state index g names one column. Row m of ``slots`` lists m's
    columns, its last one repeated up to the longest set's length, so an
    ``argmax`` along the row finds m's lowest-index best match.

    ``tables`` holds, for each stacked state g, the terms of its owner's
    joined policy at g: the owner's own term (coefficient 1), then the
    expansion of the checkpoints before it, as entries
    ``table_ptr[g]:table_ptr[g+1]`` whose ``row`` is g. Nothing there depends
    on actor weights, and nothing about checkpoint m on checkpoints after it,
    so appending checkpoints extends the index. ``logit_table`` folds the
    tables over the actors' outputs at their current weights.

    ``recall`` remembers, per observation (its dtype and bytes), its best
    match and activation over every indexed checkpoint, until ``extend``
    appends one, and its ``contribution``, until the logit table is rebuilt.
    """

    def __init__(self, checkpoints: Sequence[CheckpointPolicy], omega: float):
        self.omega = omega
        self.checkpoints: list[CheckpointPolicy] = []
        self.offsets = np.zeros(1, dtype=np.int64)
        self.units_t: Optional[np.ndarray] = None
        self.slots = np.zeros((0, 0), dtype=np.int64)
        self.tables = Terms(*(np.zeros(0, dtype=t)
                              for t in (np.int64, np.int64, np.float64, np.int64)))
        self.table_ptr = np.zeros(1, dtype=np.int64)
        self._logits: list[np.ndarray] = []      # each actor over its trusted set
        self._steps: list[int] = []              # at these optimizer step counts
        self._table: Optional[np.ndarray] = None
        self._scanned: dict[tuple[str, bytes], tuple[np.ndarray, np.ndarray]] = {}
        self._folded: dict[tuple[str, bytes], np.ndarray] = {}
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
        self._scanned.clear()    # the step list grows too, so every fold goes as well
        self.offsets = np.cumsum([0] + [len(c.trusted) for c in self.checkpoints])
        units = np.ascontiguousarray(np.concatenate([c.trusted.matrix for c in new]).T)
        self.units_t = units if self.units_t is None else \
            np.concatenate([self.units_t, units], axis=1)
        sizes = np.diff(self.offsets)
        self.slots = self.offsets[:-1, None] + np.minimum(np.arange(sizes.max()),
                                                          sizes[:, None] - 1)
        for m in range(start, len(self)):
            lo, hi = int(self.offsets[m]), int(self.offsets[m + 1])
            own = np.arange(lo, hi)
            parts = [Terms(own, np.full(hi - lo, m + 1), np.ones(hi - lo), own)]
            raw = self.checkpoints[m].trusted.raw
            step = max(1, _SCAN_CELLS // max(1, lo, self.slots[:m].size))
            for s in range(0, len(raw), step):
                below = self.expand(raw[s:s + step], m)[1]
                parts.append(below._replace(row=below.row + lo + s))
            new_terms = Terms(*map(np.concatenate, zip(*parts)))
            order = np.argsort(new_terms.row, kind="stable")    # own term first
            self.tables = Terms(*(np.concatenate([a, b[order]])
                                  for a, b in zip(self.tables, new_terms)))
            self.table_ptr = np.concatenate(
                [[0], np.cumsum(np.bincount(self.tables.row, minlength=hi))])

    def scan(self, queries: Sequence[np.ndarray], count: int):
        """Index of the best match in each of the first ``count`` trusted sets
        (ties break to the lowest index), and whether it activates, per row."""
        if count == 0:
            return np.zeros((len(queries), 0), dtype=np.int64), \
                np.zeros((len(queries), 0), dtype=bool)
        q = np.asarray(queries, dtype=np.float64)
        norms = np.sqrt((q * q).sum(axis=1))        # np.linalg.norm's arithmetic
        if not norms.all():
            raise ContractError("query state must be nonzero")
        q = q / norms[:, None]
        cols = np.flatnonzero(q.any(axis=0))
        sims = q[:, cols] @ self.units_t[cols, :self.offsets[count]]
        grid = sims[:, self.slots[:count]]
        return grid.argmax(axis=2), grid.max(axis=2) > self.omega

    def terms(self, best: np.ndarray, bitmask: np.ndarray) -> Terms:
        """The joined-policy terms of rows with these best matches and
        activations: each active checkpoint's table at its best match, every
        coefficient scaled by the checkpoint's hierarchical weight."""
        rows, ms = np.nonzero(bitmask)
        g = self.offsets[ms] + best[rows, ms]
        w = hierarchical_weights(bitmask)[rows, ms]
        sizes = self.table_ptr[g + 1] - self.table_ptr[g]
        group = np.repeat(np.arange(len(g)), sizes)
        at = (np.arange(len(group)) + np.repeat(self.table_ptr[g] - (np.cumsum(sizes) - sizes),
                                                sizes))
        return Terms(rows[group], self.tables.k[at], w[group] * self.tables.coeff[at],
                     self.tables.g[at])

    def expand(self, queries: Sequence[np.ndarray], count: int):
        """Activation bitmask ``(N, count)`` of the first ``count`` checkpoints
        at N query states, and the terms of their joined policy."""
        best, bitmask = self.scan(queries, count)
        return bitmask, self.terms(best, bitmask)

    def logit_table(self) -> np.ndarray:
        """``S x A`` logits, row g the owner's joined logits at stacked state g:
        the tables folded over every actor's outputs on its trusted set.

        Built on first use. A snapshot's weights change only through its
        optimizer, so only an appended checkpoint, or one whose step count
        moved since the last call, runs its actor again before the fold.
        """
        steps = [c.opt.step_count if c.opt is not None else 0 for c in self.checkpoints]
        if steps != self._steps:
            for k, c in enumerate(self.checkpoints):
                if k >= len(self._steps) or self._steps[k] != steps[k]:
                    self._logits[k:k + 1] = [c.actor.forward_np(np.stack(c.trusted.raw))]
            logits = np.concatenate(self._logits)
            self._table = np.add.reduceat(self.tables.coeff[:, None] * logits[self.tables.g],
                                          self.table_ptr[:-1], axis=0)
            self._steps = steps
            self._folded.clear()
        return self._table

    def contribution(self, best: np.ndarray, bitmask: np.ndarray) -> np.ndarray:
        """The orchestra's part of the joined logits: ``sum_m W_m T[best_m]``,
        one gather from the logit table per row and checkpoint."""
        table = self.logit_table()
        rows = table[self.offsets[:-1] + best]
        return np.einsum("nm,nma->na", hierarchical_weights(bitmask), rows)

    def recall(self, queries: np.ndarray):
        """``scan`` over every indexed checkpoint and ``contribution`` of each
        row of a 2-D batch, as remembered for its observation: the distinct
        rows not scanned since the last ``extend`` go to one ``scan``, and
        those not folded since the logit table last changed to one
        ``contribution``. Returns best matches, bitmask and contributions."""
        self.logit_table()                      # a rebuild forgets every fold
        dtype = queries.dtype.str
        keys = [(dtype, q.tobytes()) for q in queries]
        unseen = _first_rows(keys, self._scanned)
        if unseen:
            best, bitmask = self.scan(_take(queries, unseen), len(self))
            self._scanned.update(zip(unseen, zip(best, bitmask)))
        best, bitmask = (np.array(a) for a in zip(*map(self._scanned.__getitem__, keys)))
        unfolded = _first_rows(keys, self._folded)
        if unfolded:
            self._folded.update(zip(unfolded, self.contribution(_take(best, unfolded),
                                                                _take(bitmask, unfolded))))
        return best, bitmask, np.array(list(map(self._folded.__getitem__, keys)))


def _first_rows(keys: list, memo: dict) -> dict:
    """The distinct keys missing from ``memo``, each with its first row."""
    first = {}
    for i, key in enumerate(keys):
        if key not in memo:
            first.setdefault(key, i)
    return first


def _take(a: np.ndarray, first: dict) -> np.ndarray:
    """The rows of ``a`` that ``_first_rows`` found; all of them, uncopied,
    when that is every row."""
    return a if len(first) == len(a) else a[list(first.values())]


def expand_joined(orchestra: Orchestra, state: np.ndarray, omega: float):
    """Activation bitmask plus flattened ``(k, coeff, state)`` checkpoint
    terms for one state, each state the stored row itself; kept as the
    tests' view of ``JoinedIndex.expand`` and a perfbench span."""
    index = orchestra.joined_index(omega)
    bitmask, terms = index.expand(np.asarray(state)[None, :], len(index))
    return (ActivationVector(bitmask[0]),
            [(k, coeff, index.checkpoints[k - 1].trusted.raw[g - index.offsets[k - 1]])
             for k, coeff, g in zip(terms.k.tolist(), terms.coeff.tolist(),
                                    terms.g.tolist())])


@functools.lru_cache
def _records_dtype(checkpoints: int, actions: int) -> np.dtype:
    return np.dtype([("bitmask", bool, (checkpoints,)), ("best", np.int64, (checkpoints,)),
                     ("orchestra", np.float64, (actions,)),
                     ("learner_logits", np.float64, (actions,))])


def joined_records(bitmask: np.ndarray, best: np.ndarray, contribution: np.ndarray,
                   learner_logits: np.ndarray) -> np.ndarray:
    """The aux records of a joined act, one structured row per observation:
    the activation ``bitmask`` and ``best`` match of every checkpoint, the
    ``orchestra``'s part of the logits and the ``learner_logits``."""
    records = np.empty(len(bitmask),
                       dtype=_records_dtype(bitmask.shape[1], learner_logits.shape[1]))
    records["bitmask"], records["best"] = bitmask, best
    records["orchestra"], records["learner_logits"] = contribution, learner_logits
    return records


class JoinedSource(ActionSource):
    """Action source sampling from the joined policy of learner + orchestra."""

    def __init__(self, learner: Mlp, orchestra: Orchestra, cfg: HopConfig):
        self.learner = learner
        self.orchestra = orchestra
        self.cfg = cfg

    def logits_and_aux(self, obs_batch: np.ndarray):
        """Learner logits plus the orchestra's, gathered from the logit table
        at each checkpoint's best match; aux is ``joined_records``."""
        learner_logits = self.learner.forward_np(obs_batch)
        index = self.orchestra.joined_index(self.cfg.min_similarity_score)
        if len(index):
            best, bitmask, contribution = index.recall(obs_batch)
        else:
            best, bitmask = index.scan(obs_batch, 0)
            contribution = np.zeros_like(learner_logits)
        return (learner_logits + contribution,
                joined_records(bitmask, best, contribution, learner_logits))


def checkpoint_now(learner: Mlp, orchestra: Orchestra,
                   level_specs: Sequence[LevelSpec], hop_cfg: HopConfig,
                   max_eval_ep_len: int, rng: np.random.Generator,
                   created_step: int, learning_rate: float) -> Optional[CheckpointPolicy]:
    """Freeze the learner, harvest trusted states from fresh evaluation
    episodes whose raw return beats the reward limit, and append the
    checkpoint to the orchestra. Returns None when every episode failed.

    The episodes are played side by side, keeping only their actions; each
    one that passes the gate is replayed for its observations, so one
    episode's states are held at a time.

    Mutates only the orchestra and the rng passed in; the learner and the
    training environments are untouched.
    """
    snapshot = learner.clone()
    source = JoinedSource(learner, orchestra, hop_cfg)
    trusted = TrustedStateSet(hop_cfg.trusted_cap, rng)
    specs = [level_specs[ep % len(level_specs)] for ep in range(hop_cfg.eval_episodes)]
    for spec, ep in zip(specs, play_episodes(source, specs, max_eval_ep_len, rng)):
        if ep.total > hop_cfg.reward_limit:
            trusted.add_episode(replay(spec, max_eval_ep_len, ep.actions), ep.total)
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


def joined_logits(logits: ad.Node, routed: Sequence[tuple[np.ndarray, ad.Node]],
                  const: np.ndarray, send: Callable = lambda task: task()) -> ad.Node:
    """``logits + spread @ out``, for each routed ``(spread, out)`` in turn,
    plus ``const``, as a node over ``logits``. Its ``back`` hands ``send`` one
    task per routed term, "backward from ``out`` with ``spread.T @ g``" (by
    default run at once), then sends ``g`` on to ``logits``."""
    data = logits.data
    for spread, out in routed:
        data = data + spread @ out.data

    def back(g):
        for spread, out in routed:
            send(lambda out=out, spread=spread: ad.backward(out, spread.T @ g))
        logits.back(g)

    return ad.Node(data + const, back)


def masked_policy_update(buffer: RolloutBuffer, gae: GaeOutput, learner: Mlp,
                         critic: Mlp, orchestra: Orchestra, ppo_cfg: PpoConfig,
                         hop_cfg: HopConfig, actor_opt: Adam, critic_opt: Adam,
                         rng: np.random.Generator) -> UpdateStats:
    """PPO update on the joined policy with activation-masked gradient flow.

    Checkpoint m's parameters enter the graph only on timesteps whose stored
    bitmask has bit m set (and only when checkpoint gradients are enabled);
    every other checkpoint contribution is folded in as a constant. Frozen
    snapshots never change, so their part is the one each act stored. Routed
    gradients need an optimizer on every checkpoint (ContractError). A routed
    snapshot's backward is not on the policy loss's chain: ``joined_logits``
    queues it as a task, which either of ``ppo_update``'s threads runs.
    """
    M = len(orchestra)
    records = np.concatenate(buffer.aux)
    stored = records.dtype["bitmask"].shape[0]
    if stored != M:
        raise ContractError(f"stored bitmask length {stored} != checkpoint count {M}")
    bitmask, best = records["bitmask"], records["best"]
    obs_flat = buffer.obs.reshape(len(records), -1)
    index = orchestra.joined_index(hop_cfg.min_similarity_score)

    def routed_logits(logits: ad.Node, idx: np.ndarray):
        """Every term of the minibatch from one forward per checkpoint over
        its distinct states: a node where the stored bitmask routes a
        gradient into the checkpoint, a constant elsewhere."""
        terms = index.terms(best[idx], bitmask[idx])
        routed = bitmask[idx][terms.row, terms.k - 1].astype(np.int64)
        const = np.zeros(logits.data.shape)
        outs = []
        for k in np.unique(terms.k).tolist():
            sel = terms.k == k
            states, at = np.unique(terms.g[sel], return_inverse=True)
            ckpt = orchestra.checkpoints[k - 1]
            x = np.stack([ckpt.trusted.raw[j] for j in (states - index.offsets[k - 1]).tolist()])
            spread = np.zeros((2, len(idx), len(states)))   # constant, routed coefficients
            np.add.at(spread, (routed[sel], terms.row[sel], at), terms.coeff[sel])
            if routed[sel].any():
                out = ckpt.actor.forward(x)
                outs.append((spread[1], out))
                out = out.data
            else:
                out = ckpt.actor.forward_np(x)
            const += spread[0] @ out
        return joined_logits(logits, outs, const, tasks.put)

    def logits_fn(idx: np.ndarray):
        logits = learner.forward(obs_flat[idx])
        if M == 0:
            return logits
        if not hop_cfg.checkpoint_gradients:
            return joined_logits(logits, [], records["orchestra"][idx])
        return routed_logits(logits, idx)

    extra_opts = [c.opt for c in orchestra.checkpoints] if hop_cfg.checkpoint_gradients else []
    if None in extra_opts:
        raise ContractError("routed checkpoint gradients need an optimizer on every checkpoint")
    tasks = queue.SimpleQueue() if extra_opts else None
    try:
        return ppo_update(buffer, gae, learner, critic, ppo_cfg, actor_opt, critic_opt, rng,
                          logits_fn=logits_fn, extra_opts=extra_opts, tasks=tasks)
    finally:
        # the snapshots an update routes into change from one update to the
        # next; the next makes what it needs, so none piles up
        for ckpt in orchestra.checkpoints:
            ckpt.actor.free_buffers()


# --- on-disk checkpoint bundles ----------------------------------------------


def save_checkpoint(ckpt: CheckpointPolicy, directory, hop_cfg: HopConfig):
    """Directory bundle: ``manifest.json`` and ``arrays.npz``, which holds the
    actor's parameters as ``actor_0 ...`` in ``Mlp.parameters`` order, then
    the trusted states as observed (``raw``) and their ``episode_returns``."""
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
    actor = {f"actor_{i}": p.data for i, p in enumerate(ckpt.actor.parameters)}
    np.savez(directory / "arrays.npz", **actor, raw=np.stack(ckpt.trusted.raw),
             episode_returns=np.asarray(ckpt.trusted.episode_returns))


def load_checkpoint(directory) -> CheckpointPolicy:
    """A bundle written by ``save_checkpoint``. A manifest that is not a JSON
    object raises ConfigError, ``np.load`` refuses an archive that holds
    pickled objects (ValueError), and actor arrays whose shapes do not fit
    ``actor_sizes`` raise DimensionError."""
    directory = Path(directory)
    with open(directory / "manifest.json") as f:
        manifest = json.load(f)
    if not isinstance(manifest, dict):
        raise ConfigError(f"{directory / 'manifest.json'} does not hold a JSON object")
    actor = Mlp(manifest["actor_sizes"], np.random.default_rng(0))
    with np.load(directory / "arrays.npz") as arrays:
        actor.set_arrays([arrays[f"actor_{i}"] for i in range(len(actor.parameters))])
        raw, returns = arrays["raw"], arrays["episode_returns"]
    # the cap holds every state, so the reservoir never draws from its generator
    trusted = TrustedStateSet(cap=max(len(raw), 1), rng=np.random.default_rng(0))
    for state, ret in zip(raw, returns):
        trusted.add_episode([state], float(ret))
    return CheckpointPolicy(
        index=manifest["index"],
        actor=actor,
        trusted=trusted,
        created_step=manifest["created_step"],
    )
