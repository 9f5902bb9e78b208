"""Progressive-network baseline: per-task actor/critic columns plus
trainable adapters that inject earlier columns' hidden features into the
active column. Task labels are supplied by the caller; inactive columns are
never touched by an update.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError
from .nn import Adam, Mlp
from .ppo import (ActionSource, GaeOutput, PpoConfig, RolloutBuffer,
                  UpdateStats, ppo_update)


@dataclass
class AdapterParams:
    """One affine link (src column -> dst column) on the last hidden layer.

    Zero-initialized so a freshly added column behaves exactly like a
    standalone network; the affine acts on ReLU-gated source features, which
    keeps the zero init trainable.
    """

    weight: Tensor
    bias: Tensor

    @property
    def parameters(self) -> list[Tensor]:
        return [self.weight, self.bias]


@dataclass
class Column:
    task_id: str
    actor: Mlp
    critic: Mlp
    actor_opt: Adam
    critic_opt: Adam


class PnnStack:
    def __init__(self, obs_dim: int, n_actions: int, hidden: int,
                 learning_rate: float, rng: np.random.Generator):
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        self.hidden = hidden
        self.learning_rate = learning_rate
        self._rng = rng
        self.columns: list[Column] = []
        self.task_index: dict[str, int] = {}
        # (net, src, dst) -> AdapterParams
        self.adapters: dict[tuple[str, int, int], AdapterParams] = {}
        self.adapter_opts: dict[int, Adam] = {}  # keyed by dst column

    def add_column(self, task_id: str) -> int:
        if task_id in self.task_index:
            raise ConfigError(f"duplicate task id {task_id!r}")
        dst = len(self.columns)
        actor = Mlp([self.obs_dim, self.hidden, self.hidden, self.n_actions], self._rng)
        critic = Mlp([self.obs_dim, self.hidden, self.hidden, 1], self._rng)
        col = Column(task_id, actor, critic,
                     Adam(actor.parameters, self.learning_rate),
                     Adam(critic.parameters, self.learning_rate))
        self.columns.append(col)
        self.task_index[task_id] = dst
        new_params: list[Tensor] = []
        for net in ("actor", "critic"):
            for src in range(dst):
                adp = AdapterParams(
                    Tensor(np.zeros((self.hidden, self.hidden)), requires_grad=True),
                    Tensor(np.zeros(self.hidden), requires_grad=True),
                )
                self.adapters[(net, src, dst)] = adp
                new_params.extend(adp.parameters)
        if new_params:
            self.adapter_opts[dst] = Adam(new_params, self.learning_rate)
        return dst

    def _column(self, task_id: str) -> int:
        if task_id not in self.task_index:
            raise ConfigError(f"unknown task id {task_id!r}; add_column first")
        return self.task_index[task_id]

    def _sources(self, col_idx: int, net: str, x: np.ndarray):
        """Each earlier column's ``max(h, 0)`` of its last hidden layer at
        ``x``, with the adapter that carries it into column ``col_idx``."""
        for src in range(col_idx):
            src_h = getattr(self.columns[src], net).hidden_np(x)
            yield np.maximum(src_h, 0.0), self.adapters[(net, src, col_idx)]

    def net_forward_np(self, task_id: str, net: str, obs: np.ndarray) -> np.ndarray:
        """Output of the task's ``net`` column ("actor" or "critic") with its
        adapters, for a batch of observations."""
        col_idx = self._column(task_id)
        mlp: Mlp = getattr(self.columns[col_idx], net)
        h = mlp.hidden_np(obs)
        for feats, adp in self._sources(col_idx, net, obs):
            h = h + (feats @ adp.weight.data + adp.bias.data)
        return mlp.head(h)

    def _net_forward_graph(self, col_idx: int, net: str, x: np.ndarray) -> Tensor:
        mlp: Mlp = getattr(self.columns[col_idx], net)
        h = mlp.hidden(x)
        for feats, adp in self._sources(col_idx, net, x):
            h = h + (Tensor(feats) @ adp.weight + adp.bias)
        return mlp.head(h)

    def forward_with_adapters(self, task_id: str, obs: np.ndarray):
        """(logits, value) for a batch of observations under the task's column."""
        return (self.net_forward_np(task_id, "actor", obs),
                self.net_forward_np(task_id, "critic", obs)[:, 0])


class ColumnSource(ActionSource):
    def __init__(self, stack: PnnStack, task_id: str):
        self.stack = stack
        self.task_id = task_id

    def logits_and_aux(self, obs_batch: np.ndarray):
        logits = self.stack.net_forward_np(self.task_id, "actor", obs_batch)
        return logits, [None] * obs_batch.shape[0]


def pnn_update(stack: PnnStack, task_id: str, buffer: RolloutBuffer,
               gae: GaeOutput, cfg: PpoConfig,
               rng: np.random.Generator) -> UpdateStats:
    """PPO update routing gradients to the active column and its adapters."""
    col_idx = stack._column(task_id)
    col = stack.columns[col_idx]
    B = buffer.num_steps * buffer.num_envs
    obs_flat = buffer.obs.reshape(B, -1)

    def logits_fn(idx):
        return stack._net_forward_graph(col_idx, "actor", obs_flat[idx])

    def values_fn(idx):
        return stack._net_forward_graph(col_idx, "critic", obs_flat[idx])

    extra_opts = [stack.adapter_opts[col_idx]] if col_idx in stack.adapter_opts else []
    return ppo_update(buffer, gae, col.actor, col.critic, cfg,
                      col.actor_opt, col.critic_opt, rng,
                      logits_fn=logits_fn, values_fn=values_fn,
                      extra_opts=extra_opts)

